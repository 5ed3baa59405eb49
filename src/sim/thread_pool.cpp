#include "atlarge/sim/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace atlarge::sim {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads > kMaxThreads)
    throw std::invalid_argument("ThreadPool: " + std::to_string(threads) +
                                " threads exceeds the cap of " +
                                std::to_string(kMaxThreads));
  const std::size_t lanes = std::max<std::size_t>(1, threads);
  errors_.resize(lanes);
  workers_.reserve(lanes - 1);
  try {
    for (std::size_t lane = 1; lane < lanes; ++lane)
      workers_.emplace_back([this, lane] { worker_loop(lane); });
  } catch (...) {
    join_workers();  // the workers started so far; the destructor won't run
    throw;
  }
}

void ThreadPool::join_workers() noexcept {
  if (workers_.empty()) return;
  job_ = nullptr;
  ++generation_;
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::uint32_t seen = 0;
  for (;;) {
    generation_.wait(seen);
    // One call at a time: the next bump cannot come before this worker
    // has finished the current call, so the generation moved by one.
    ++seen;
    const auto* job = job_;
    if (job == nullptr) return;
    try {
      (*job)(lane);
    } catch (...) {
      errors_[lane] = std::current_exception();
    }
    if (--pending_ == 0) pending_.notify_one();
  }
}

void ThreadPool::run_lanes(const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  job_ = &fn;
  pending_ = static_cast<std::uint32_t>(workers_.size());
  ++generation_;
  generation_.notify_all();
  try {
    fn(0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  for (std::uint32_t left = pending_; left != 0; left = pending_)
    pending_.wait(left);

  std::exception_ptr error;
  for (auto& e : errors_) {
    if (!error) error = e;
    e = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n <= 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  run_lanes([&](std::size_t) {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      next = n;  // no lane claims another index
      throw;
    }
  });
}

}  // namespace atlarge::sim
