#include "atlarge/sim/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace atlarge::sim {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  pinned_.resize(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    jobs_.clear();
    for (auto& q : pinned_) q.clear();
    pinned_pending_ = 0;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, index] {
        return stop_ || !pinned_[index].empty() || !jobs_.empty();
      });
      if (stop_) return;
      // Pinned work first: a pinned job is an ordering promise (per-worker
      // FIFO), shared work is load-balanced filler.
      if (!pinned_[index].empty()) {
        job = std::move(pinned_[index].front());
        pinned_[index].pop_front();
        --pinned_pending_;
      } else {
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      ++in_flight_;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0 && jobs_.empty() && pinned_pending_ == 0)
        idle_cv_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> job) {
  if (workers_.empty()) {
    job();  // size-1 pool: run inline, nothing to synchronize with
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::run_on(std::size_t worker_index, std::function<void()> job) {
  if (workers_.empty()) {
    job();  // size-1 pool: the caller is the only lane
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pinned_[worker_index % pinned_.size()].push_back(std::move(job));
    ++pinned_pending_;
  }
  // notify_all, not notify_one: only the target worker can take this job,
  // and notify_one might wake a different one that goes back to sleep.
  work_cv_.notify_all();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return jobs_.empty() && pinned_pending_ == 0 && in_flight_ == 0;
  });
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t fanout = std::min(size(), n);
  if (fanout <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::exception_ptr error;  // the first exception any lane caught
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining = fanout;

  // fn and n outlive the join below, so the body may capture them by
  // reference; `shared` keeps the latch alive for stragglers.
  auto body = [shared, &fn, n] {
    std::exception_ptr error;
    try {
      for (std::size_t i = shared->next.fetch_add(1); i < n;
           i = shared->next.fetch_add(1)) {
        fn(i);
      }
    } catch (...) {
      error = std::current_exception();
      shared->next.store(n);  // no lane claims another index
    }
    std::lock_guard<std::mutex> lock(shared->m);
    if (error && !shared->error) shared->error = error;
    if (--shared->remaining == 0) shared->done.notify_all();
  };

  for (std::size_t w = 1; w < fanout; ++w) submit(body);
  body();  // the calling thread is the last lane

  std::unique_lock<std::mutex> lock(shared->m);
  shared->done.wait(lock, [&] { return shared->remaining == 0; });
  if (shared->error) std::rethrow_exception(shared->error);
}

}  // namespace atlarge::sim
