// Linear merge of ascending position runs.
//
// Every access path emits its hits in ascending region order, so the
// collectors above it (a server's per-group and per-identity lists, the
// client's per-server responses) only ever combine runs that are already
// ordered.  Merging them is linear; re-sorting their concatenation is
// O(n log n) and was the largest cost on the read path.  This is the
// PAM primitive (arXiv 1612.05665) the sorted-replica fold also uses:
// merge what is ordered, never re-sort it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace pdc {

/// Union of strictly ascending `runs` into `out` (replaced): ascending, and
/// a value present in several runs is emitted once (the multi-term OR
/// dedupe).  Each step copies the run with the smallest head up to the
/// smallest head of the others, so disjoint stretches — whole regions of
/// one server — move as blocks.  Every run is checked as it is consumed:
/// a run that is not strictly ascending returns Corruption naming its
/// index, and `out` is then unspecified.
inline Status merge_ascending_runs(
    std::span<const std::span<const std::uint64_t>> runs,
    std::vector<std::uint64_t>& out) {
  struct Cursor {
    const std::uint64_t* next;
    const std::uint64_t* end;
    std::size_t run;
  };
  std::vector<Cursor> live;
  std::size_t total = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].empty()) continue;
    live.push_back({runs[i].data(), runs[i].data() + runs[i].size(), i});
    total += runs[i].size();
  }
  out.resize(total);
  std::uint64_t* dst = out.data();
  const auto corrupt = [](std::size_t run) {
    return Status::Corruption("merge run " + std::to_string(run) +
                              " is not strictly ascending");
  };
  // Advance past a consumed value; the run's next value must exceed it.
  const auto step = [](Cursor& c, std::uint64_t consumed) {
    ++c.next;
    return c.next == c.end || *c.next > consumed;
  };
  while (!live.empty()) {
    std::size_t min_i = 0;
    for (std::size_t k = 1; k < live.size(); ++k) {
      if (*live[k].next < *live[min_i].next) min_i = k;
    }
    std::uint64_t bound = std::numeric_limits<std::uint64_t>::max();
    bool bounded = false;
    for (std::size_t k = 0; k < live.size(); ++k) {
      if (k == min_i) continue;
      bounded = true;
      if (*live[k].next < bound) bound = *live[k].next;
    }
    Cursor& c = live[min_i];
    const std::uint64_t head = *c.next;
    *dst++ = head;
    if (bounded && head == bound) {
      // Present in several runs: emitted once, every copy consumed.
      for (Cursor& other : live) {
        if (*other.next == head && !step(other, head)) {
          return corrupt(other.run);
        }
      }
    } else {
      std::uint64_t prev = head;
      ++c.next;
      while (c.next != c.end && (!bounded || *c.next < bound)) {
        if (*c.next <= prev) return corrupt(c.run);
        prev = *c.next++;
        *dst++ = prev;
      }
      if (c.next != c.end && *c.next <= prev) return corrupt(c.run);
    }
    std::erase_if(live, [](const Cursor& k) { return k.next == k.end; });
  }
  out.resize(static_cast<std::size_t>(dst - out.data()));
  return Status::Ok();
}

/// Convenience overload over owned runs.
inline Status merge_ascending_runs(
    const std::vector<std::vector<std::uint64_t>>& runs,
    std::vector<std::uint64_t>& out) {
  std::vector<std::span<const std::uint64_t>> views(runs.begin(), runs.end());
  return merge_ascending_runs(views, out);
}

}  // namespace pdc
