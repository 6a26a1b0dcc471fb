// Fig. 3 reproduction: single-object (Energy) query performance across the
// paper's 15 selectivity-laddered queries, five approaches (HDF5-F, PDC-F,
// PDC-H, PDC-HI, PDC-SH) and six region sizes.
//
// Paper region sizes are 4–128 MB on a 466 GB object; we scale the object
// down (default 2^21 particles = 8 MB/variable) and sweep region sizes
// 32 KB–1 MB so the regions-per-server regime matches.  Shapes to expect,
// per paper §VI-A:
//   - HDF5-F and PDC-F are flat (amortized full read + scan);
//     PDC-F ≈ 2x faster than HDF5-F;
//   - PDC-H sits 2–3x below PDC-F; PDC-HI 4–14x; PDC-SH is best and grows
//     to >1000x at the most selective queries;
//   - mid-range region sizes win; the largest regions degrade.
#include <vector>

#include "bench/bench_util.h"
#include "h5lite/full_scan.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using query::GetDataMode;
using query::QueryPtr;
using server::Strategy;

struct Measurement {
  double query_s = 0.0;
  double getdata_s = 0.0;
  std::uint64_t num_hits = 0;
};

/// Per-region-size PDC deployment over its own sub-cluster.
struct Deployment {
  std::unique_ptr<pfs::PfsCluster> cluster;
  std::unique_ptr<obj::ObjectStore> store;
  ObjectId energy = kInvalidObjectId;

  static Deployment create(const BenchWorld& world,
                           std::uint64_t region_bytes) {
    Deployment d;
    pfs::PfsConfig cfg = world.cluster->config();
    cfg.root_dir =
        world.scratch_dir + "/rs_" + std::to_string(region_bytes);
    d.cluster = unwrap(pfs::PfsCluster::Create(cfg), "sub-cluster");
    d.store = std::make_unique<obj::ObjectStore>(*d.cluster);
    const ObjectId container =
        unwrap(d.store->create_container("vpic"), "container");
    obj::ImportOptions options;
    options.region_size_bytes = region_bytes;
    d.energy = unwrap(
        d.store->import_object<float>(container, "Energy",
                                      std::span<const float>(world.data.energy),
                                      options),
        "import energy");
    check(d.store->build_bitmap_index(d.energy), "bitmap index");
    unwrap(sortrep::build_sorted_replica(*d.store, d.energy, options),
           "sorted replica");
    return d;
  }
};

Measurement run_pdc_query(query::QueryService& service, ObjectId energy,
                          const workloads::SingleQuerySpec& spec,
                          double amortized_read_s) {
  Measurement m;
  auto selection =
      unwrap(service.get_selection(energy_window(energy, spec)),
             "get_selection");
  m.num_hits = selection.num_hits;
  m.query_s = service.last_stats().sim_elapsed_seconds + amortized_read_s;
  if (selection.num_hits > 0) {
    std::vector<float> values(selection.num_hits);
    check(service.get_data<float>(energy, selection, values), "get_data");
    m.getdata_s = service.last_stats().sim_elapsed_seconds;
  }
  return m;
}

}  // namespace

int run() {
  // Larger default so the biggest regions still give several per server.
  BenchWorld world = BenchWorld::create("fig3", 1ull << 23);
  const auto queries = workloads::vpic_single_queries();
  const double n = static_cast<double>(world.data.size());

  // ---- HDF5-F baseline (region-size independent) ----
  // The HDF5 file keeps default Lustre striping (few OSTs); PDC spreads
  // data across the whole pool — the §III-E contrast behind PDC-F's ~2x
  // read advantage.
  pfs::PfsConfig h5_cfg = world.cluster->config();
  h5_cfg.root_dir = world.scratch_dir + "/h5";
  h5_cfg.num_osts = 1;   // Lustre default striping
  h5_cfg.stripe_count = 1;
  auto h5_cluster = unwrap(pfs::PfsCluster::Create(h5_cfg), "h5 cluster");
  check(workloads::write_vpic_h5(*h5_cluster, world.data, "vpic.h5"),
        "write h5");
  auto reader =
      unwrap(h5lite::H5LiteReader::Open(*h5_cluster, "vpic.h5"), "h5 open");
  h5lite::ParallelFullScan baseline(*h5_cluster, reader, world.num_servers);
  const std::vector<std::string> columns{"Energy"};
  check(baseline.load(columns), "h5 load");
  const double h5_amortized_read =
      baseline.load_elapsed_seconds() / static_cast<double>(queries.size());
  const CostModel cost = world.cluster->config().cost;

  std::vector<Measurement> h5_rows;
  for (const auto& spec : queries) {
    const auto qi = ValueInterval::from_op(QueryOp::kGT, spec.lo)
                        .intersect(ValueInterval::from_op(QueryOp::kLT, spec.hi));
    std::vector<h5lite::ScanCondition> conditions{{"Energy", qi}};
    auto result =
        unwrap(baseline.scan(conditions, /*collect_positions=*/true),
               "h5 scan");
    Measurement m;
    m.num_hits = result.num_hits;
    m.query_s = h5_amortized_read + result.scan_elapsed_s;
    // Data already resides in rank memory: pay gather + network only.
    m.getdata_s = cost.net_cost(result.num_hits * sizeof(float)) +
                  static_cast<double>(result.num_hits * sizeof(float)) /
                      cost.memcpy_bandwidth_bps;
    h5_rows.push_back(m);
  }

  print_header("Fig 3: single-object (Energy) queries, 15-query ladder",
               "region_kb approach query sel_pct query_s getdata_s hits");

  const std::uint64_t region_sizes[] = {32768,  65536,  131072,
                                        262144, 524288, 1048576};
  for (const std::uint64_t region_bytes : region_sizes) {
    const auto region_kb = region_bytes / 1024;
    // HDF5-F rows repeat per region size for plot completeness.
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      std::printf("%6" PRIu64 " %-7s %2zu %9.5f %10.6f %10.6f %" PRIu64 "\n",
                  region_kb, "HDF5-F", qi,
                  100.0 * static_cast<double>(h5_rows[qi].num_hits) / n,
                  h5_rows[qi].query_s, h5_rows[qi].getdata_s,
                  h5_rows[qi].num_hits);
    }

    Deployment deployment = Deployment::create(world, region_bytes);
    const Strategy strategies[] = {Strategy::kFullScan, Strategy::kHistogram,
                                   Strategy::kHistogramIndex,
                                   Strategy::kSortedHistogram};
    for (const Strategy strategy : strategies) {
      query::ServiceOptions options;
      options.strategy = strategy;
      options.num_servers = world.num_servers;
      query::QueryService service(*deployment.store, options);

      double amortized_read = 0.0;
      if (strategy == Strategy::kFullScan) {
        // PDC-F pre-loads everything once; amortize the cold read over the
        // query sequence, then measure warm queries (paper §VI-A).
        const QueryPtr warm =
            query::create(deployment.energy, QueryOp::kGTE, -1e30);
        unwrap(service.get_num_hits(warm), "warmup");
        amortized_read = service.last_stats().max_server_io_seconds /
                         static_cast<double>(queries.size());
      } else {
        // The paper reports the best of >=5 runs, i.e. warm server caches;
        // run the whole sequence once unmeasured.
        for (const auto& spec : queries) {
          run_pdc_query(service, deployment.energy, spec, 0.0);
        }
      }
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const Measurement m = run_pdc_query(service, deployment.energy,
                                            queries[qi], amortized_read);
        std::printf("%6" PRIu64 " %-7s %2zu %9.5f %10.6f %10.6f %" PRIu64 "\n",
                    region_kb,
                    std::string(server::strategy_name(strategy)).c_str(), qi,
                    100.0 * static_cast<double>(m.num_hits) / n, m.query_s,
                    m.getdata_s, m.num_hits);
      }
    }
  }
  return 0;
}

}  // namespace pdc::bench

int main() { return pdc::bench::run(); }
