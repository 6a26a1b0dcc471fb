// Query suite: a subset of the Fig. 3 and Fig. 6 measurements plus the
// intra-server thread sweep, each row in deterministic simulated seconds
// from the cost model — the number the paper-shape claims are made about.
//
// The intra-server sweep (threads 1 -> 8 at fixed servers) additionally
// self-checks the acceptance property: simulated query time must be
// monotonically non-increasing in the thread count.
#include <string>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using query::QueryPtr;
using server::Strategy;

constexpr Strategy kStrategies[] = {
    Strategy::kFullScan, Strategy::kHistogram, Strategy::kHistogramIndex,
    Strategy::kSortedHistogram, Strategy::kAdaptive};

/// Records the simulated seconds of `q` on `service` under `section` and
/// returns them.
double measure(Suite& suite, query::QueryService& service, const QueryPtr& q,
               const char* section, int query_index) {
  // Warmup populates the region caches; the measured pass is then cache-
  // state-stable, whatever ran before it.
  unwrap(service.get_num_hits(q), "warmup");
  unwrap(service.get_num_hits(q), "nhits");
  const double sim_s = service.last_stats().sim_elapsed_seconds;
  suite.add(Kind::kSim,
            std::string(section) + "/" +
                std::string(server::strategy_name(service.options().strategy)) +
                "/servers=" + std::to_string(service.num_servers()) +
                "/threads=" + std::to_string(service.options().eval_threads) +
                "/query=" + std::to_string(query_index),
            "sim_s", "s", Better::kLower, sim_s);
  return sim_s;
}

}  // namespace

void run_query(Suite& suite) {
  BenchWorld world = BenchWorld::sized("query", 1ull << 20, 8);
  obj::ImportOptions options;
  options.region_size_bytes = 32768;
  obj::ObjectStore store(*world.cluster);
  auto objects = unwrap(workloads::import_vpic(store, world.data, options),
                        "import");
  for (const ObjectId id :
       {objects.energy, objects.x, objects.y, objects.z}) {
    check(store.build_bitmap_index(id), "index");
  }
  unwrap(sortrep::build_sorted_replica(store, objects.energy, options),
         "replica");

  const auto single = workloads::vpic_single_queries();
  const auto multi_spec = workloads::vpic_multi_queries()[2];

  // Fig. 3 subset: broad / mid / narrow selectivity, every strategy.
  for (const int qi : {0, 7, 14}) {
    for (const Strategy strategy : kStrategies) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = world.num_servers;
      query::QueryService service(store, so);
      measure(suite, service, energy_window(objects.energy, single[qi]),
              "fig3", qi);
    }
  }

  // Fig. 6 subset: the multi-object query over a growing fleet.
  for (const std::uint32_t servers : {2u, 4u, 8u}) {
    for (const Strategy strategy : kStrategies) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = servers;
      query::QueryService service(store, so);
      measure(suite, service, vpic_multi_query(objects, multi_spec), "fig6",
              2);
    }
  }

  // Intra-server sweep: fixed small fleet (2 servers => many regions per
  // server, the regime where intra-server parallelism matters), threads
  // 1 -> 8.  Full scan is the cpu-bound worst case; histogram the pruned
  // common case.
  for (const Strategy strategy :
       {Strategy::kFullScan, Strategy::kHistogram}) {
    double prev_sim = 0.0;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = 2;
      so.eval_threads = threads;
      query::QueryService service(store, so);
      const double sim =
          measure(suite, service, energy_window(objects.energy, single[0]),
                  "intra_server_sweep", 0);
      suite.expect(threads == 1 || sim <= prev_sim + 1e-12,
                   "non-monotone sweep: %s threads %u sim %.9f > prev %.9f",
                   std::string(server::strategy_name(strategy)).c_str(),
                   threads, sim, prev_sim);
      prev_sim = sim;
    }
  }
}

}  // namespace pdc::bench
