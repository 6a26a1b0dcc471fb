// Span-tree arithmetic for the benchmark's per-layer breakdown.
//
// A layer's self time is its span's duration minus the union of its
// children's intervals (each clipped to the parent).  Parallel children
// overlap — four rpc.request spans under one rpc.gather, pool region tasks
// under one server phase — so subtracting a plain sum of child durations
// would over-count and can go negative.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

/// Self time in microseconds of every span of `trace`, in trace.spans order.
[[nodiscard]] std::vector<double> self_times_us(const pdc::obs::Trace& trace);

/// Totals over the span trees of many operations of one type.
struct LayerTotals {
  std::uint64_t ops = 0;                ///< traces added
  std::map<std::string, double> self_us;  ///< span name -> summed self time
  /// "span.name:arg" -> summed arg value, for the args the breakdown reads.
  std::map<std::string, double> args;
  double pool_task_us = 0.0;  ///< self time of spans run as pool tasks
  double root_sim_s = 0.0;    ///< root spans' sim_elapsed_s args
  double root_wall_s = 0.0;   ///< root spans' durations

  void add(const pdc::obs::Trace& trace);
  void merge(const LayerTotals& other);

  [[nodiscard]] double self(const std::string& name) const;
  [[nodiscard]] double arg(const std::string& name,
                           const std::string& key) const;
};

/// Checks self_times_us on a hand-built tree with overlapping parallel
/// children; prints the first mismatch to stderr.  True when all hold.
[[nodiscard]] bool self_test();

}  // namespace perfbench
