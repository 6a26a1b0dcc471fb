// Open-loop traffic driver for overload experiments.
//
// Replays thousands of simulated client queries against a QueryService
// with Poisson or bursty arrival processes, per-tenant identities and a
// fixed query mix.  Open loop means the arrival schedule is independent of
// completions — exactly the regime where an unprotected service queues
// without bound — so it exercises the admission-control path (bounded
// queues, kOverloaded shedding, retry-after) end to end.
//
// Two modes share one schedule generator and one fairness model:
//
//  * run_live() pushes real queries through the full rpc stack on worker
//    threads (wall clock).  It proves the robustness properties — bounded
//    mailboxes, explicit sheds, every admitted answer bit-identical to the
//    oracle — but its latencies are machine-dependent.
//  * simulate() runs a deterministic virtual-time queueing model (the same
//    WeightedFairQueue the servers use) over the same schedule.  Its
//    goodput/latency numbers are bit-stable for a given seed, which is
//    what the bench gate's committed traffic rows compare against.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "query/query.h"
#include "query/service.h"
#include "rpc/admission.h"

namespace pdc::workloads {

enum class ArrivalProcess : std::uint8_t {
  kPoisson = 0,  ///< memoryless arrivals at the offered rate
  kBursty = 1,   ///< on/off modulated Poisson (same mean rate, 4x-ish bursts)
};

[[nodiscard]] constexpr std::string_view arrival_name(
    ArrivalProcess arrival) noexcept {
  return arrival == ArrivalProcess::kBursty ? "bursty" : "poisson";
}

struct TrafficConfig {
  /// Master seed: schedule, tenant assignment, per-query service-time
  /// draws and client backoff jitter all derive from it.
  std::uint64_t seed = 42;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Total query arrivals in the schedule.
  std::uint32_t num_queries = 2000;
  /// Simulated client identities issuing them (live mode runs one thread
  /// per client; each client's own arrivals stay time-ordered).
  std::uint32_t num_clients = 32;
  /// Tenants to spread arrivals over (uniformly at random).
  std::uint32_t num_tenants = 1;
  /// Bursty modulation: fraction of each period spent "on" and the rate
  /// multiplier while on; the off-rate is derived so the mean offered rate
  /// is unchanged.
  double burst_period_s = 0.5;
  double burst_on_fraction = 0.2;
  double burst_multiplier = 4.0;
  /// Client reaction to kOverloaded: retries with exponential backoff
  /// (base doubling per attempt, jittered) before giving up.
  std::uint32_t max_retries = 10;
  std::uint64_t retry_backoff_us = 1000;

  /// Seed from PDC_TRAFFIC_SEED when set; other fields keep defaults.
  static TrafficConfig from_env();
};

/// One query of the mix plus its oracle answer (pre-computed by the
/// caller, e.g. testing::oracle_hits, so workloads stays independent of
/// the testing library).
struct TrafficQuery {
  query::QueryPtr query;
  std::uint64_t expected_hits = 0;
};

/// One scheduled arrival.
struct Arrival {
  double time_s = 0.0;           ///< offset from traffic start
  std::uint32_t tenant = 0;
  std::uint32_t query_index = 0; ///< into the query mix (mod its size)
};

/// Deterministic arrival schedule at mean rate `rate_qps`, sorted by time.
[[nodiscard]] std::vector<Arrival> make_schedule(const TrafficConfig& config,
                                                 double rate_qps);

struct TenantReport {
  std::uint32_t tenant = 0;
  std::uint64_t offered = 0;    ///< first arrivals (not counting retries)
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;    ///< gave up after max_retries
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
};

struct TrafficReport {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t mismatches = 0;   ///< answers differing from the oracle
  std::uint64_t failed = 0;       ///< non-overload errors
  std::uint64_t dropped = 0;      ///< overloaded past max_retries
  std::uint64_t shed_retries = 0; ///< kOverloaded responses clients saw
  double duration_s = 0.0;        ///< first arrival -> last completion
  double goodput_qps = 0.0;       ///< completed / duration
  double p50_s = 0.0;             ///< end-to-end simulated-client latency
  double p95_s = 0.0;
  double p99_s = 0.0;
  std::vector<TenantReport> tenants;
  // Live mode only: scraped from the service's metrics after the run.
  double server_sheds = 0.0;      ///< sum of rpc.server*.shed
  double queue_peak = 0.0;        ///< max rpc.server*.queue_peak
  double mailbox_peak = 0.0;      ///< bus.mailbox_peak
  double mailbox_rejects = 0.0;   ///< bus.mailbox_rejects
};

/// Virtual-time queueing model parameters for simulate().  Mirrors one
/// service's admission configuration.
struct SimParams {
  /// Mean per-query service time; individual queries draw a deterministic
  /// factor in [0.5, 1.5) of it from the seed.
  double service_time_s = 1e-3;
  /// Concurrent service slots (servers x max_inflight).
  std::uint32_t concurrency = 4;
  /// Admission queue bound (0 = unbounded, never sheds).
  std::uint32_t queue_limit = 64;
  rpc::ShedPolicy shed_policy = rpc::ShedPolicy::kRejectNew;
  std::vector<double> tenant_weights;
  /// Retry-after hint a shed client honours (scaled by its attempt).
  double retry_after_s = 2e-3;

  /// Offered capacity of this model in queries/sec.
  [[nodiscard]] double capacity_qps() const noexcept {
    return static_cast<double>(concurrency) / service_time_s;
  }
};

class TrafficDriver {
 public:
  explicit TrafficDriver(TrafficConfig config);

  [[nodiscard]] const TrafficConfig& config() const noexcept {
    return config_;
  }

  /// Per-tenant latency histograms ("traffic.tenant<k>.latency_seconds",
  /// with .p50/.p95/.p99 synthesized at snapshot time) plus offered/
  /// completed/shed counters, populated by both modes.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Closed-loop capacity probe: `probes` queries over `threads` workers,
  /// back to back; returns completed/elapsed in queries/sec.  Use it to
  /// express live offered load as a multiple of actual capacity.
  static double measure_capacity_qps(query::QueryService& service,
                                     const std::vector<TrafficQuery>& queries,
                                     std::uint32_t probes = 64,
                                     std::uint32_t threads = 4);

  /// Replay the schedule against a live service at mean rate `rate_qps`.
  /// Every completed answer is checked against its oracle; clients retry
  /// kOverloaded per config.  Wall-clock latencies; counts are exact.
  TrafficReport run_live(query::QueryService& service,
                         const std::vector<TrafficQuery>& queries,
                         double rate_qps);

  /// Deterministic virtual-time replay of the same schedule through a
  /// weighted-fair bounded queue model.  Same seed + params => bit-stable
  /// report (the bench gate's contract).  Wall clock is never consulted.
  TrafficReport simulate(const SimParams& params, double rate_qps);

 private:
  TrafficConfig config_;
  obs::MetricsRegistry metrics_;
};

}  // namespace pdc::workloads
