#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `intervals` (sorted in place).
std::uint64_t union_length(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t total = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) total += hi - lo;
    lo = start;
    hi = end;
    open = true;
  }
  if (open) total += hi - lo;
  return total;
}

/// Span args the per-layer table reads (everything else is ignored, which
/// keeps aggregation cheap next to the traced operation itself).
bool wanted_arg(const std::string& span, const std::string& key) {
  static const std::map<std::string, std::vector<std::string>> kWanted = {
      {"client.join", {"epoch"}},
      {"rpc.gather", {"retries"}},
      {"server.join_eval", {"shuffle_bytes", "retransmits"}},
      {"server.eval",
       {"regions_scanned", "regions_indexed", "regions_allhit",
        "regions_stale"}},
      {"server.meta_query", {"probes"}},
      {"server.transfer_write", {"replica_rebuilt"}},
  };
  const auto it = kWanted.find(span);
  if (it == kWanted.end()) return false;
  return std::find(it->second.begin(), it->second.end(), key) !=
         it->second.end();
}

}  // namespace

std::vector<double> self_times_us(const pdc::obs::Trace& trace) {
  const std::size_t n = trace.spans.size();
  std::unordered_map<pdc::obs::SpanId, std::size_t> slot;
  slot.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slot.emplace(trace.spans[i].id, i);

  std::vector<std::vector<Interval>> children(n);
  for (const pdc::obs::Span& span : trace.spans) {
    if (span.parent == 0) continue;
    const auto it = slot.find(span.parent);
    if (it == slot.end()) continue;
    const pdc::obs::Span& parent = trace.spans[it->second];
    const std::uint64_t lo = std::max(span.start_us, parent.start_us);
    const std::uint64_t hi = std::min(span.end_us, parent.end_us);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<double> self(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const pdc::obs::Span& span = trace.spans[i];
    const std::uint64_t duration =
        span.end_us > span.start_us ? span.end_us - span.start_us : 0;
    const std::uint64_t covered = union_length(children[i]);
    self[i] = static_cast<double>(duration - std::min(duration, covered));
  }
  return self;
}

void LayerTotals::add(const pdc::obs::Trace& trace) {
  const std::vector<double> self = self_times_us(trace);
  ++ops;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const pdc::obs::Span& span = trace.spans[i];
    self_us[span.name] += self[i];
    bool pool_task = false;
    for (const auto& [key, value] : span.args) {
      if (key == "worker") pool_task = true;
      if (wanted_arg(span.name, key)) args[span.name + ":" + key] += value;
    }
    if (pool_task) pool_task_us += self[i];
    if (span.parent == 0) {
      root_sim_s += span.arg("sim_elapsed_s");
      root_wall_s += static_cast<double>(span.end_us - span.start_us) * 1e-6;
    }
  }
}

void LayerTotals::merge(const LayerTotals& other) {
  ops += other.ops;
  for (const auto& [name, value] : other.self_us) self_us[name] += value;
  for (const auto& [name, value] : other.args) args[name] += value;
  pool_task_us += other.pool_task_us;
  root_sim_s += other.root_sim_s;
  root_wall_s += other.root_wall_s;
}

double LayerTotals::self(const std::string& name) const {
  const auto it = self_us.find(name);
  return it == self_us.end() ? 0.0 : it->second;
}

double LayerTotals::arg(const std::string& name, const std::string& key) const {
  const auto it = args.find(name + ":" + key);
  return it == args.end() ? 0.0 : it->second;
}

bool self_test() {
  pdc::obs::Trace trace;
  trace.trace_id = 1;
  const auto add = [&](pdc::obs::SpanId id, pdc::obs::SpanId parent,
                       std::uint64_t start, std::uint64_t end,
                       const char* name) {
    pdc::obs::Span span;
    span.id = id;
    span.parent = parent;
    span.start_us = start;
    span.end_us = end;
    span.name = name;
    trace.spans.push_back(std::move(span));
  };
  // client.query [0,1000): plan, a gather over four parallel requests that
  // overlap each other, and the merge.
  add(1, 0, 0, 1000, "client.query");
  add(2, 1, 0, 50, "client.plan");
  add(3, 1, 50, 900, "rpc.gather");
  add(4, 3, 50, 800, "rpc.request");
  add(5, 3, 50, 850, "rpc.request");
  add(6, 3, 60, 900, "rpc.request");
  add(7, 3, 60, 600, "rpc.request");
  add(8, 1, 900, 1000, "client.merge");
  // Server side of request 4: queue wait, then the handler.
  add(9, 4, 100, 200, "server.queue");
  add(10, 4, 200, 700, "server.handle");
  // The eval inside the handler fans out four pool region tasks; three
  // overlap and the last one overruns the eval's end (clipped to it).
  add(11, 10, 210, 690, "server.eval");
  add(12, 11, 220, 400, "region");
  add(13, 11, 300, 500, "region");
  add(14, 11, 450, 600, "region");
  add(15, 11, 650, 750, "region");
  trace.spans.back().args.emplace_back("worker", 2.0);

  const std::vector<double> self = self_times_us(trace);
  struct Expect {
    std::size_t index;
    double self_us;
  };
  const Expect expected[] = {
      {0, 0.0},    // root fully covered by plan + gather + merge
      {2, 0.0},    // gather covered by the union [50,900) of its requests
      {3, 150.0},  // 750 - union(queue, handle) = 750 - 600
      {4, 800.0},  // request 5 has no children
      {9, 20.0},   // handle 500 - eval 480
      // eval 480 - union([220,600), [650,690)) = 480 - 420; a plain sum of
      // child durations (630) would exceed the eval itself.
      {10, 60.0},
      {11, 180.0},
      {14, 100.0},
  };
  for (const Expect& e : expected) {
    if (std::fabs(self[e.index] - e.self_us) > 1e-9) {
      std::fprintf(stderr, "self_test: span %zu self %.1f us, expected %.1f\n",
                   e.index, self[e.index], e.self_us);
      return false;
    }
  }
  LayerTotals totals;
  totals.add(trace);
  if (totals.self("rpc.request") != 150.0 + 800.0 + 840.0 + 540.0 ||
      totals.pool_task_us != 100.0 || totals.ops != 1) {
    std::fprintf(stderr, "self_test: LayerTotals aggregation mismatch\n");
    return false;
  }
  return true;
}

}  // namespace perfbench
