// Machine-readable perf baseline (PR 3): re-runs a subset of the Fig. 3
// and Fig. 6 measurements plus the new intra-server thread sweep and dumps
// everything to one JSON file, so CI (and later sessions) can diff perf
// numbers instead of eyeballing table output.
//
// Output: BENCH_pr5.json in the working directory (override with
// PDC_BENCH_JSON=<path>).  Two time columns per row:
//   sim_s   deterministic simulated seconds from the cost model — the
//           number the paper-shape claims are made about;
//   wall_s  actual wall-clock of the call on this machine, reported
//           honestly next to `hardware_threads` (on a single-core CI box
//           the pool cannot show real wall speedups; the simulated model
//           is the scaling claim, the wall number is the smoke check that
//           parallel evaluation does not *cost* anything).
//
// The intra-server sweep (threads 1 -> 8 at fixed servers) additionally
// self-checks the acceptance property: simulated query time must be
// monotonically non-increasing in the thread count.  Violations make the
// bench exit nonzero.
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using query::QueryPtr;
using server::Strategy;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string section;   ///< "fig3" | "fig6" | "intra_server_sweep"
  std::string strategy;
  std::uint32_t servers = 0;
  std::uint32_t threads = 0;  ///< 0 = serial evaluation (no pool)
  int query = 0;
  double sim_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t hits = 0;
};

constexpr Strategy kStrategies[] = {
    Strategy::kFullScan, Strategy::kHistogram, Strategy::kHistogramIndex,
    Strategy::kSortedHistogram, Strategy::kAdaptive};

Row measure(query::QueryService& service, const QueryPtr& q,
            const char* section, int query_index) {
  // Warmup populates the region caches; the measured pass is then cache-
  // state-stable, which is what makes wall numbers comparable across the
  // thread sweep.
  unwrap(service.get_num_hits(q), "warmup");
  const double t0 = wall_now();
  const std::uint64_t hits = unwrap(service.get_num_hits(q), "nhits");
  const double t1 = wall_now();
  Row row;
  row.section = section;
  row.strategy = std::string(server::strategy_name(service.options().strategy));
  row.servers = service.num_servers();
  row.threads = service.options().eval_threads;
  row.query = query_index;
  row.sim_s = service.last_stats().sim_elapsed_seconds;
  row.wall_s = t1 - t0;
  row.hits = hits;
  return row;
}

void emit(std::FILE* f, const std::vector<Row>& rows, const char* section,
          bool last) {
  std::fprintf(f, "  \"%s\": [\n", section);
  bool first = true;
  for (const Row& row : rows) {
    if (row.section != section) continue;
    if (!first) std::fprintf(f, ",\n");
    first = false;
    std::fprintf(f,
                 "    {\"strategy\": \"%s\", \"servers\": %u, \"threads\": "
                 "%u, \"query\": %d, \"sim_s\": %.9f, \"wall_s\": %.6f, "
                 "\"hits\": %" PRIu64 "}",
                 row.strategy.c_str(), row.servers, row.threads, row.query,
                 row.sim_s, row.wall_s, row.hits);
  }
  std::fprintf(f, "\n  ]%s\n", last ? "" : ",");
}

}  // namespace

int run() {
  BenchWorld world = BenchWorld::create("report_json", 1ull << 20);
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

  const auto single = workloads::vpic_single_queries();
  const auto multi_spec = workloads::vpic_multi_queries()[2];
  const auto multi_query = [&] {
    using query::create;
    using query::q_and;
    QueryPtr q = create(objects.energy, QueryOp::kGT, multi_spec.energy_min);
    q = q_and(q, q_and(create(objects.x, QueryOp::kGT, multi_spec.x_lo),
                       create(objects.x, QueryOp::kLT, multi_spec.x_hi)));
    q = q_and(q, q_and(create(objects.y, QueryOp::kGT, multi_spec.y_lo),
                       create(objects.y, QueryOp::kLT, multi_spec.y_hi)));
    q = q_and(q, q_and(create(objects.z, QueryOp::kGT, multi_spec.z_lo),
                       create(objects.z, QueryOp::kLT, multi_spec.z_hi)));
    return q;
  };
  const auto single_query = [&](const workloads::SingleQuerySpec& spec) {
    return query::q_and(query::create(objects.energy, QueryOp::kGT, spec.lo),
                        query::create(objects.energy, QueryOp::kLT, spec.hi));
  };

  std::vector<Row> rows;

  // Fig. 3 subset: broad / mid / narrow selectivity, every strategy.
  for (const int qi : {0, 7, 14}) {
    for (const Strategy strategy : kStrategies) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = world.num_servers;
      query::QueryService service(store, so);
      rows.push_back(measure(service, single_query(single[qi]), "fig3", qi));
    }
  }

  // Fig. 6 subset: the multi-object query over a growing fleet.
  for (const std::uint32_t servers : {2u, 4u, 8u}) {
    for (const Strategy strategy : kStrategies) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = servers;
      query::QueryService service(store, so);
      rows.push_back(measure(service, multi_query(), "fig6", 2));
    }
  }

  // Intra-server sweep: fixed small fleet (2 servers => many regions per
  // server, the regime where intra-server parallelism matters), threads
  // 1 -> 8.  Full scan is the cpu-bound worst case; histogram the pruned
  // common case.
  bool monotone = true;
  for (const Strategy strategy :
       {Strategy::kFullScan, Strategy::kHistogram}) {
    double prev_sim = 0.0;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      query::ServiceOptions so;
      so.strategy = strategy;
      so.num_servers = 2;
      so.eval_threads = threads;
      query::QueryService service(store, so);
      rows.push_back(
          measure(service, single_query(single[0]), "intra_server_sweep", 0));
      const double sim = rows.back().sim_s;
      if (threads > 1 && sim > prev_sim + 1e-12) {
        std::fprintf(stderr,
                     "NON-MONOTONE: %s threads %u sim %.9f > prev %.9f\n",
                     rows.back().strategy.c_str(), threads, sim, prev_sim);
        monotone = false;
      }
      prev_sim = sim;
    }
  }

  const std::string path = env_str("PDC_BENCH_JSON", "BENCH_pr5.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL cannot open %s\n", path.c_str());
    return 1;
  }
  const std::string bench_name =
      env_str("PDC_BENCH_NAME", "pr5_adaptive_pipeline");
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", bench_name.c_str());
  std::fprintf(f, "  \"particles\": %" PRIu64 ",\n",
               static_cast<std::uint64_t>(world.data.energy.size()));
  std::fprintf(f, "  \"region_bytes\": %" PRIu64 ",\n",
               options.region_size_bytes);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"sweep_monotone_non_increasing\": %s,\n",
               monotone ? "true" : "false");
  emit(f, rows, "fig3", false);
  emit(f, rows, "fig6", false);
  emit(f, rows, "intra_server_sweep", true);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("wrote %s (%zu rows, sweep monotone: %s)\n", path.c_str(),
              rows.size(), monotone ? "yes" : "NO");
  return monotone ? 0 : 1;
}

}  // namespace pdc::bench

int main() { return pdc::bench::run(); }
