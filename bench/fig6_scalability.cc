// Fig. 6 reproduction: scalability of the query service.  One multi-object
// query (~0.011 % selectivity) evaluated with a growing server fleet
// (paper: 32–512 servers; scaled here to 2–64), for the three optimized
// strategies.  Expect query time to fall steadily with more servers.
#include <vector>

#include "bench/bench_util.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using server::Strategy;

}  // namespace

int run() {
  // Scaling needs many regions per server even at 64 servers: default to a
  // larger dataset and small regions (512 regions at the defaults).
  BenchWorld world = BenchWorld::create("fig6", 1ull << 22);
  obj::ImportOptions options;
  options.region_size_bytes = env_u64("PDC_BENCH_REGION_BYTES", 32768);
  obj::ObjectStore store(*world.cluster);
  auto objects = unwrap(workloads::import_vpic(store, world.data, options),
                        "import");
  for (const ObjectId id :
       {objects.energy, objects.x, objects.y, objects.z}) {
    check(store.build_bitmap_index(id), "index");
  }
  unwrap(sortrep::build_sorted_replica(store, objects.energy, options),
         "replica");

  // Query 3 of the paper's multi-object set (~0.011 % selectivity regime).
  const auto spec = workloads::vpic_multi_queries()[2];

  print_header("Fig 6: query time vs number of PDC servers (scaled 2-64)",
               "servers approach query_s hits");
  for (const std::uint32_t servers : {2u, 4u, 8u, 16u, 32u, 64u}) {
    for (const Strategy strategy :
         {Strategy::kHistogram, Strategy::kHistogramIndex,
          Strategy::kSortedHistogram}) {
      query::ServiceOptions service_options;
      service_options.strategy = strategy;
      service_options.num_servers = servers;
      query::QueryService service(store, service_options);
      const std::uint64_t hits =
          unwrap(service.get_num_hits(vpic_multi_query(objects, spec)),
                 "nhits");
      std::printf("%7u %-7s %10.6f %" PRIu64 "\n", servers,
                  std::string(server::strategy_name(strategy)).c_str(),
                  service.last_stats().sim_elapsed_seconds, hits);
    }
  }
  return 0;
}

}  // namespace pdc::bench

int main() { return pdc::bench::run(); }
