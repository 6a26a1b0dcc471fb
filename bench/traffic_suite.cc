// Traffic suite: deterministic virtual-time overload replay.
//
// Sweeps offered load from half capacity to 4x capacity for both Poisson
// and bursty arrivals through TrafficDriver::simulate — the same
// WeightedFairQueue the servers run, with service times and retry jitter
// derived from the (fixed) seed.  Every row is bit-stable, so the gate
// diffs goodput and p99 without wall-clock noise.  A second section
// replays the 4x burst with two tenants at weights 3:1 to pin the
// weighted-fair split.
//
// Self-checks: goodput must not collapse past saturation, the queue bound
// must hold, and a replay must reproduce the first run bit for bit.
#include <cstdio>
#include <string>

#include "bench/suite.h"
#include "workloads/traffic.h"

namespace pdc::bench {
namespace {

using pdc::workloads::ArrivalProcess;
using pdc::workloads::SimParams;
using pdc::workloads::TrafficConfig;
using pdc::workloads::TrafficDriver;
using pdc::workloads::TrafficReport;

SimParams bench_params() {
  SimParams params;
  params.service_time_s = 1e-3;
  params.concurrency = 8;
  params.queue_limit = 64;
  params.retry_after_s = 2e-3;
  return params;
}

TrafficConfig bench_config(ArrivalProcess arrival, std::uint32_t tenants) {
  TrafficConfig config;
  config.arrival = arrival;
  config.num_queries = 4000;
  config.num_tenants = tenants;
  return config;
}

bool reports_equal(const TrafficReport& a, const TrafficReport& b) {
  return a.offered == b.offered && a.completed == b.completed &&
         a.dropped == b.dropped && a.shed_retries == b.shed_retries &&
         a.goodput_qps == b.goodput_qps && a.p50_s == b.p50_s &&
         a.p99_s == b.p99_s && a.queue_peak == b.queue_peak;
}

}  // namespace

void run_traffic(Suite& suite) {
  const SimParams params = bench_params();
  const double capacity = params.capacity_qps();
  const double loads[] = {0.5, 1.0, 2.0, 4.0};
  const ArrivalProcess arrivals[] = {ArrivalProcess::kPoisson,
                                     ArrivalProcess::kBursty};

  TrafficReport last;
  for (ArrivalProcess arrival : arrivals) {
    const char* name = pdc::workloads::arrival_name(arrival).data();
    double goodput_at_capacity = 0.0;
    for (double load : loads) {
      TrafficDriver driver(bench_config(arrival, 1));
      const TrafficReport report = driver.simulate(params, load * capacity);
      std::printf("traffic  %-7s load %.2f  offered %6llu  completed %6llu  "
                  "dropped %5llu  sheds %6llu  goodput %9.1f q/s  "
                  "p99 %8.3f ms  qpeak %3.0f\n",
                  name, load, static_cast<unsigned long long>(report.offered),
                  static_cast<unsigned long long>(report.completed),
                  static_cast<unsigned long long>(report.dropped),
                  static_cast<unsigned long long>(report.shed_retries),
                  report.goodput_qps, report.p99_s * 1e3, report.queue_peak);
      char label[48];
      std::snprintf(label, sizeof label, "%s/load=%.2f", name, load);
      suite.add(Kind::kSim, label, "p99_s", "s", Better::kLower,
                report.p99_s);
      suite.add(Kind::kSim, label, "goodput_qps", "1/s", Better::kHigher,
                report.goodput_qps);

      // Robustness self-checks: the bounded queue must actually bound, and
      // goodput past saturation must hold >= 70% of the at-capacity value
      // instead of collapsing (congestion-collapse is the failure mode the
      // admission control exists to prevent).
      suite.expect(report.queue_peak <= static_cast<double>(params.queue_limit),
                   "%s queue_peak %.0f exceeds queue_limit %u", label,
                   report.queue_peak, params.queue_limit);
      if (load == 1.0) goodput_at_capacity = report.goodput_qps;
      suite.expect(load <= 1.0 ||
                       report.goodput_qps >= 0.7 * goodput_at_capacity,
                   "%s goodput %.1f q/s < 70%% of at-capacity goodput "
                   "%.1f q/s",
                   label, report.goodput_qps, goodput_at_capacity);
      last = report;
    }
  }

  // Determinism self-check: replaying the harshest configuration must
  // reproduce the stored report bit for bit, or the gate's diff would be
  // comparing noise.
  {
    TrafficDriver driver(bench_config(ArrivalProcess::kBursty, 1));
    suite.expect(reports_equal(driver.simulate(params, 4.0 * capacity), last),
                 "bursty 4x replay differs from first run — simulate() is "
                 "not deterministic");
  }

  // Weighted-fair split: two tenants at weights 3:1 replayed at 4x
  // capacity with an unbounded queue, so retries never blur the picture
  // and service order alone decides waiting time.  While both lanes are
  // backlogged the scheduler serves the heavy tenant ~3x as often, so its
  // latency distribution must sit clearly below the light tenant's —
  // inversion or equality means the weights stopped reaching the queue.
  TrafficConfig fair_config = bench_config(ArrivalProcess::kPoisson, 2);
  SimParams fair_params = params;
  fair_params.queue_limit = 0;  // unbounded: isolate scheduling from shedding
  fair_params.tenant_weights = {3.0, 1.0};
  TrafficDriver fair_driver(fair_config);
  const TrafficReport fair_report =
      fair_driver.simulate(fair_params, 4.0 * capacity);
  std::printf("fairness weights 3:1 at 4x load (unbounded queue):\n");
  for (const auto& tenant : fair_report.tenants) {
    std::printf("  tenant %u  offered %6llu  completed %6llu  "
                "mean %8.3f ms  p99 %8.3f ms\n",
                tenant.tenant,
                static_cast<unsigned long long>(tenant.offered),
                static_cast<unsigned long long>(tenant.completed),
                tenant.mean_s * 1e3, tenant.p99_s * 1e3);
    const std::string label =
        "fairness/tenant=" + std::to_string(tenant.tenant);
    suite.add(Kind::kSim, label, "mean_s", "s", Better::kLower, tenant.mean_s);
    suite.add(Kind::kSim, label, "p99_s", "s", Better::kLower, tenant.p99_s);
  }
  if (fair_report.tenants.size() == 2) {
    const auto& heavy = fair_report.tenants[0];
    const auto& light = fair_report.tenants[1];
    suite.expect(heavy.mean_s < light.mean_s && heavy.p99_s < light.p99_s,
                 "weight-3 tenant latency (mean %.3f ms, p99 %.3f ms) not "
                 "below weight-1 tenant (mean %.3f ms, p99 %.3f ms)",
                 heavy.mean_s * 1e3, heavy.p99_s * 1e3, light.mean_s * 1e3,
                 light.p99_s * 1e3);
  } else {
    suite.expect(false, "expected 2 tenant reports, got %zu",
                 fair_report.tenants.size());
  }
}

}  // namespace pdc::bench
