// Fig. 4 reproduction: 6 compound queries on 4 objects (Energy, x, y, z)
// at the best region size, across the five approaches.
//
// Shapes to expect, per paper §VI-B: all optimized approaches beat the two
// full scans by a wide margin; the sorted approach wins the first queries
// (highly selective on Energy, the sort key) but degrades to histogram-only
// level for the last two queries, where the planner evaluates the 'x'
// condition first; the index approach is uniformly fast on query time but
// pays extra get-data cost.
#include <vector>

#include "bench/bench_util.h"
#include "h5lite/full_scan.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using query::QueryPtr;
using server::Strategy;

}  // namespace

int run() {
  // Enough regions that even a 5 %-selective driver range spans every
  // server (the paper's 466 GB / 32 MB regime).
  BenchWorld world = BenchWorld::create("fig4", 1ull << 22);
  const auto queries = workloads::vpic_multi_queries();
  const double n = static_cast<double>(world.data.size());

  obj::ImportOptions options;
  options.region_size_bytes = env_u64("PDC_BENCH_REGION_BYTES", 65536);
  obj::ObjectStore store(*world.cluster);
  auto objects = unwrap(workloads::import_vpic(store, world.data, options),
                        "import vpic");
  for (const ObjectId id :
       {objects.energy, objects.x, objects.y, objects.z}) {
    check(store.build_bitmap_index(id), "bitmap index");
  }
  unwrap(sortrep::build_sorted_replica(store, objects.energy, options),
         "sorted replica");

  // ---- HDF5-F baseline: read all four columns, scan every conjunct.
  // Default-Lustre striping (few OSTs) vs PDC's whole-pool distribution.
  pfs::PfsConfig h5_cfg = world.cluster->config();
  h5_cfg.root_dir = world.scratch_dir + "/h5";
  h5_cfg.num_osts = 1;   // Lustre default striping
  h5_cfg.stripe_count = 1;
  auto h5_cluster = unwrap(pfs::PfsCluster::Create(h5_cfg), "h5 cluster");
  check(workloads::write_vpic_h5(*h5_cluster, world.data, "vpic4.h5"),
        "write h5");
  auto reader = unwrap(h5lite::H5LiteReader::Open(*h5_cluster, "vpic4.h5"),
                       "h5 open");
  h5lite::ParallelFullScan baseline(*h5_cluster, reader, world.num_servers);
  const std::vector<std::string> columns{"Energy", "x", "y", "z"};
  check(baseline.load(columns), "h5 load");
  const double h5_amortized_read =
      baseline.load_elapsed_seconds() / static_cast<double>(queries.size());
  const CostModel cost = world.cluster->config().cost;

  print_header("Fig 4: multi-object (Energy,x,y,z) queries, 6-query set",
               "approach query sel_pct query_s getdata_s hits");

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& spec = queries[qi];
    std::vector<h5lite::ScanCondition> conditions{
        {"Energy", ValueInterval::from_op(QueryOp::kGT, spec.energy_min)},
        {"x", ValueInterval::from_op(QueryOp::kGT, spec.x_lo)
                  .intersect(ValueInterval::from_op(QueryOp::kLT, spec.x_hi))},
        {"y", ValueInterval::from_op(QueryOp::kGT, spec.y_lo)
                  .intersect(ValueInterval::from_op(QueryOp::kLT, spec.y_hi))},
        {"z", ValueInterval::from_op(QueryOp::kGT, spec.z_lo)
                  .intersect(ValueInterval::from_op(QueryOp::kLT, spec.z_hi))},
    };
    auto result = unwrap(baseline.scan(conditions, true), "h5 scan");
    const double getdata =
        cost.net_cost(result.num_hits * sizeof(float)) +
        static_cast<double>(result.num_hits * sizeof(float)) /
            cost.memcpy_bandwidth_bps;
    std::printf("%-7s %zu %9.5f %10.6f %10.6f %" PRIu64 "\n", "HDF5-F", qi,
                100.0 * static_cast<double>(result.num_hits) / n,
                h5_amortized_read + result.scan_elapsed_s, getdata,
                result.num_hits);
  }

  const Strategy strategies[] = {Strategy::kFullScan, Strategy::kHistogram,
                                 Strategy::kHistogramIndex,
                                 Strategy::kSortedHistogram};
  for (const Strategy strategy : strategies) {
    query::ServiceOptions service_options;
    service_options.strategy = strategy;
    service_options.num_servers = world.num_servers;
    query::QueryService service(store, service_options);

    double amortized_read = 0.0;
    if (strategy == Strategy::kFullScan) {
      // Warm the cache with all four objects, amortize the cold read.
      const QueryPtr warm = vpic_multi_query(
          objects, {-1e30, -1e30, 1e30, -1e30, 1e30, -1e30, 1e30});
      unwrap(service.get_num_hits(warm), "warmup");
      amortized_read = service.last_stats().max_server_io_seconds /
                       static_cast<double>(queries.size());
    }
    // The optimized strategies run the sequence cold; caches warm up
    // across the sequence exactly as the paper describes (§VI-A).
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const QueryPtr q = vpic_multi_query(objects, queries[qi]);
      auto selection = unwrap(service.get_selection(q), "get_selection");
      const double query_s =
          service.last_stats().sim_elapsed_seconds + amortized_read;
      double getdata_s = 0.0;
      if (selection.num_hits > 0) {
        std::vector<float> values(selection.num_hits);
        check(service.get_data<float>(objects.energy, selection, values),
              "get_data");
        getdata_s = service.last_stats().sim_elapsed_seconds;
      }
      std::printf("%-7s %zu %9.5f %10.6f %10.6f %" PRIu64 "\n",
                  std::string(server::strategy_name(strategy)).c_str(), qi,
                  100.0 * static_cast<double>(selection.num_hits) / n,
                  query_s, getdata_s, selection.num_hits);
    }
  }
  return 0;
}

}  // namespace pdc::bench

int main() { return pdc::bench::run(); }
