#pragma once
// Internal to atlarge_sched: the one stable removal of queue positions,
// shared by the engine's drop of placed tasks and RandomPolicy's arrival
// order.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "atlarge/sched/policy.hpp"

namespace atlarge::sched::detail {

/// Removes the entries at positions `at` (ascending, distinct) from `v` in
/// one stable sweep. Each run of survivors between two removed positions
/// moves as one block, a memmove since TaskRef is trivially copyable.
inline void erase_positions(std::vector<TaskRef>& v,
                            std::span<const std::size_t> at) {
  if (at.empty()) return;
  const auto pos = [&v](std::size_t i) {
    return v.begin() + static_cast<std::ptrdiff_t>(i);
  };
  auto out = pos(at.front());
  for (std::size_t k = 0; k < at.size(); ++k) {
    const auto run_end = k + 1 < at.size() ? pos(at[k + 1]) : v.end();
    out = std::move(pos(at[k] + 1), run_end, out);
  }
  v.erase(out, v.end());
}

}  // namespace atlarge::sched::detail
