// Writes suite: simulated cost of querying an object while a fraction of
// operations mutate it through the kTransferWrite path.
//
// For each (strategy, write_fraction) cell a fresh store is built, then a
// seeded op stream runs range queries interleaved with 64-element
// overwrites.  Gated rows are *simulated* seconds from the cost model
// (deterministic): read cost in every cell — including the pure-read
// column, which must not regress just because the write machinery exists —
// and write cost in the cells that write.  Write-path observability
// (stale-region scan fallbacks, inline delta compactions, the final data
// epoch) is printed alongside.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "common/rng.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

struct WriteRow {
  const char* strategy = "";
  double write_fraction = 0.0;
  std::uint64_t writes = 0;
  double read_sim_s = 0.0;
  double write_sim_s = 0.0;
  std::uint64_t regions_stale = 0;
  std::uint64_t compactions = 0;
  std::uint64_t data_epoch = 0;
};

struct Cell {
  server::Strategy strategy;
  const char* name;
};

WriteRow run_cell(const std::string& scratch, const Cell& cell,
                  double write_fraction, std::uint64_t num_elements,
                  std::uint32_t num_servers) {
  std::filesystem::remove_all(scratch);
  pfs::PfsConfig cfg;
  cfg.root_dir = scratch;
  cfg.num_osts = 16;
  cfg.stripe_count = 4;
  cfg.stripe_size = 1ull << 20;
  auto cluster = unwrap(pfs::PfsCluster::Create(cfg), "PFS create");
  obj::ObjectStore store(*cluster);

  Rng data_rng(0xBE7C);
  std::vector<float> values(num_elements);
  for (auto& v : values) v = static_cast<float>(data_rng.uniform(0.0, 10.0));

  obj::ImportOptions import_options;
  import_options.region_size_bytes = 16384;  // 4096 floats per region
  const ObjectId container =
      unwrap(store.create_container("wbench"), "container");
  const ObjectId object = unwrap(
      store.import_object<float>(container, "col",
                                 std::span<const float>(values),
                                 import_options),
      "import");
  check(store.build_bitmap_index(object), "index build");
  (void)unwrap(sortrep::build_sorted_replica(store, object, import_options),
               "replica build");

  query::ServiceOptions options;
  options.num_servers = num_servers;
  options.strategy = cell.strategy;
  options.compact_threshold = 8;
  options.replica_rebuild_threshold = 64;
  query::QueryService service(store, options);

  WriteRow row;
  row.strategy = cell.name;
  row.write_fraction = write_fraction;

  Rng op_rng(0x5EED);
  constexpr std::uint64_t kOps = 200;
  constexpr std::uint64_t kWriteElems = 64;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    // The op mix is drawn identically for every cell (same seed), so
    // cells differ only in strategy and fraction, not in the op stream.
    const bool is_write = op_rng.next_double() < write_fraction;
    if (is_write) {
      const std::uint64_t offset = static_cast<std::uint64_t>(
          op_rng.uniform(0.0,
                         static_cast<double>(num_elements - kWriteElems)));
      std::vector<float> repl(kWriteElems);
      for (auto& v : repl) v = static_cast<float>(op_rng.uniform(0.0, 10.0));
      auto report = service.overwrite(
          object, Extent1D{offset, kWriteElems},
          {reinterpret_cast<const std::uint8_t*>(repl.data()),
           repl.size() * sizeof(float)});
      if (!report.ok()) {
        std::fprintf(stderr, "FATAL overwrite: %s\n",
                     report.status().ToString().c_str());
        std::abort();
      }
      ++row.writes;
      if (report->compacted) ++row.compactions;
      row.write_sim_s += service.last_stats().sim_elapsed_seconds;
      row.data_epoch = report->data_epoch;
    } else {
      const double lo = op_rng.uniform(0.0, 9.0);
      const double hi = lo + op_rng.uniform(0.1, 1.0);
      const auto q = query::q_and(query::create(object, QueryOp::kGT, lo),
                                  query::create(object, QueryOp::kLT, hi));
      auto selection = service.get_selection(q);
      if (!selection.ok()) {
        std::fprintf(stderr, "FATAL query: %s\n",
                     selection.status().ToString().c_str());
        std::abort();
      }
      const query::OpStats stats = service.last_stats();
      row.read_sim_s += stats.sim_elapsed_seconds;
      row.regions_stale += stats.regions_stale;
    }
  }
  return row;
}

}  // namespace

void run_writes(Suite& suite) {
  constexpr std::uint64_t kElements = 1ull << 18;
  constexpr std::uint32_t kServers = 8;
  const std::string scratch =
      env_str("PDC_BENCH_DIR", "/tmp/pdc_bench") + "/writes";

  const Cell cells[] = {
      {server::Strategy::kHistogramIndex, "PDC-HI"},
      {server::Strategy::kSortedHistogram, "PDC-SH"},
      {server::Strategy::kAdaptive, "PDC-A"},
  };
  const double fractions[] = {0.0, 0.1, 0.5};

  print_header("mixed read/write sweep (simulated seconds)",
               "strategy  wfrac  reads_s  writes_s  stale  compact  epoch");
  for (const Cell& cell : cells) {
    for (const double fraction : fractions) {
      const WriteRow row =
          run_cell(scratch, cell, fraction, kElements, kServers);
      std::printf("%-8s  %4.2f  %8.4f  %8.4f  %5" PRIu64 "  %7" PRIu64
                  "  %5" PRIu64 "\n",
                  row.strategy, row.write_fraction, row.read_sim_s,
                  row.write_sim_s, row.regions_stale, row.compactions,
                  row.data_epoch);
      char label[48];
      std::snprintf(label, sizeof label, "%s/write_fraction=%.2f",
                    row.strategy, row.write_fraction);
      suite.add(Kind::kSim, label, "read_sim_s", "s", Better::kLower,
                row.read_sim_s);
      if (row.writes > 0) {
        suite.add(Kind::kSim, label, "write_sim_s", "s", Better::kLower,
                  row.write_sim_s);
      }
    }
  }
  std::filesystem::remove_all(scratch);
}

}  // namespace pdc::bench
