// Join suite: zone-shuffle vs broadcast exchange over the BOSS
// two-catalog workload, swept across server counts and catalog sizes.
//
// For each catalog size a fresh store is built once; every (strategy,
// servers) cell then runs the same epsilon join.  Gated rows are the
// deterministic cost-model time (MPC shuffle terms included); the shuffle
// columns are exact wire accounting from the exchange ports.  Self-checks
// pin the zones-algorithm claim (Nieto-Santisteban et al., MSR-TR-2005-169)
// in every cell: both strategies find the same pairs, zone-shuffle ships
// strictly fewer bytes than broadcast at >= 4 servers, and broadcast ships
// something at >= 2 servers.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "workloads/boss.h"

namespace pdc::bench {
namespace {

struct JoinRow {
  const char* strategy = "";
  std::uint32_t servers = 0;
  std::uint32_t sources = 0;  ///< per-side catalog size
  double sim_s = 0.0;
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t shuffle_msgs = 0;
  std::uint64_t shuffle_rounds = 0;
  std::uint64_t pairs = 0;
  std::uint64_t zones = 0;
};

struct StrategyCell {
  server::JoinStrategy strategy;
  const char* name;
};

}  // namespace

void run_join(Suite& suite) {
  const std::string scratch =
      env_str("PDC_BENCH_DIR", "/tmp/pdc_bench") + "/join";
  const std::uint32_t sizes[] = {2000, 8000};
  const std::uint32_t server_counts[] = {2, 4, 8};
  const StrategyCell strategies[] = {
      {pdc::server::JoinStrategy::kZoneShuffle, "zone"},
      {pdc::server::JoinStrategy::kBroadcast, "broadcast"},
  };

  print_header("BOSS cross-match: zone-shuffle vs broadcast",
               "strategy   srv  sources     sim_s  shuf_bytes  msgs  "
               "rounds      pairs  zones");
  for (const std::uint32_t sources : sizes) {
    std::filesystem::remove_all(scratch);
    pdc::pfs::PfsConfig cfg;
    cfg.root_dir = scratch;
    cfg.num_osts = 16;
    cfg.stripe_count = 4;
    cfg.stripe_size = 1ull << 20;
    auto cluster = unwrap(pdc::pfs::PfsCluster::Create(cfg), "PFS create");
    pdc::obj::ObjectStore store(*cluster);

    pdc::workloads::BossJoinConfig config;
    config.num_a = sources;
    config.num_b = sources;
    const auto pair =
        unwrap(pdc::workloads::import_boss_join_pair(store, config),
               "BOSS join import");

    pdc::query::JoinSpec spec;
    spec.left = pair.ra_a;
    spec.right = pair.ra_b;
    spec.epsilon = 0.125;
    spec.zone_height = config.zone_height;

    for (const std::uint32_t servers : server_counts) {
      std::vector<JoinRow> rows;  // in `strategies` order
      for (const StrategyCell& cell : strategies) {
        // A fresh service per cell: every run pays the same cold region
        // cache, so cells differ only in strategy, never in cache warmth.
        pdc::query::ServiceOptions options;
        options.num_servers = servers;
        pdc::query::QueryService service(store, options);
        spec.strategy = cell.strategy;
        const auto result = unwrap(service.join(spec), "join");
        const pdc::query::OpStats stats = service.last_stats();
        JoinRow row;
        row.strategy = cell.name;
        row.servers = servers;
        row.sources = sources;
        row.sim_s = stats.sim_elapsed_seconds;
        row.shuffle_bytes = stats.shuffle_bytes;
        row.shuffle_msgs = stats.shuffle_msgs;
        row.shuffle_rounds = stats.shuffle_rounds;
        row.pairs = result.pairs.size();
        row.zones = result.num_zones;
        std::printf("%-9s  %3u  %7u  %8.4f  %10" PRIu64 "  %4" PRIu64
                    "  %6" PRIu64 "  %9" PRIu64 "  %5" PRIu64 "\n",
                    row.strategy, row.servers, row.sources, row.sim_s,
                    row.shuffle_bytes, row.shuffle_msgs, row.shuffle_rounds,
                    row.pairs, row.zones);
        suite.add(Kind::kSim,
                  std::string(row.strategy) + "/servers=" +
                      std::to_string(servers) +
                      "/sources=" + std::to_string(sources),
                  "sim_s", "s", Better::kLower, row.sim_s);
        rows.push_back(row);
      }
      const JoinRow& zone = rows[0];
      const JoinRow& bcast = rows[1];
      suite.expect(zone.pairs == bcast.pairs,
                   "%usrv/%u: zone pairs %" PRIu64
                   " != broadcast pairs %" PRIu64,
                   servers, sources, zone.pairs, bcast.pairs);
      suite.expect(servers < 4 || zone.shuffle_bytes < bcast.shuffle_bytes,
                   "%usrv/%u: zone shuffle %" PRIu64 "B >= broadcast %" PRIu64
                   "B",
                   servers, sources, zone.shuffle_bytes, bcast.shuffle_bytes);
      suite.expect(servers < 2 || bcast.shuffle_bytes > 0,
                   "%usrv/%u: broadcast shipped nothing — exchange "
                   "accounting broken",
                   servers, sources);
    }
  }
  std::filesystem::remove_all(scratch);
}

}  // namespace pdc::bench
