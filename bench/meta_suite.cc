// Metadata suite: the sharded affix-trie service vs a modeled linear-scan
// oracle, over BOSS metadata catalogs of 10k / 100k / 1M objects at
// 1 / 2 / 4 servers.
//
// Three query shapes, one per index lane:
//   exact  PLATE = 3505                  (numeric equality, one vnode)
//   range  3502 <= PLATE <= 3504         (ordered numeric map)
//   affix  RUN starts with "r5_"         (prefix trie walk)
// Every shape selects a FIXED number of objects (one or three sky cells)
// at every catalog size, so the reported sim_s isolates index traversal
// cost from result size.  The trie claim the suite checks: traversal is
// O(pattern + output), so sim_s at 1M objects stays within 3x of sim_s at
// 10k and below the oracle.  The oracle column models the paper's
// alternative — a linear metadata walk checking every conjunct on every
// object (objects * conjuncts * kMetaProbeSeconds) — and must scale
// linearly.  Every server count must report the same hits.
//
// All times are deterministic simulated seconds.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "common/exec_pool.h"
#include "metadata/meta_shard.h"
#include "metadata/meta_store.h"
#include "workloads/boss.h"

namespace pdc::bench {
namespace {

struct MetaRow {
  const char* shape = "";
  std::uint32_t servers = 0;
  std::uint32_t objects = 0;
  double sim_s = 0.0;
  double oracle_s = 0.0;
  std::uint64_t probes = 0;
  std::uint64_t vnodes = 0;
  std::uint64_t hits = 0;
};

struct Shape {
  const char* name;
  std::vector<meta::MetaCondition> conditions;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({"exact",
                 {{"PLATE", QueryOp::kEQ, std::int64_t{3505},
                   meta::MetaMatchKind::kValue}}});
  out.push_back({"range",
                 {{"PLATE", QueryOp::kGTE, std::int64_t{3502},
                   meta::MetaMatchKind::kValue},
                  {"PLATE", QueryOp::kLTE, std::int64_t{3504},
                   meta::MetaMatchKind::kValue}}});
  out.push_back({"affix",
                 {{"RUN", QueryOp::kEQ, std::string("r5_"),
                   meta::MetaMatchKind::kPrefix}}});
  return out;
}

}  // namespace

void run_meta(Suite& suite) {
  const std::string scratch =
      env_str("PDC_BENCH_DIR", "/tmp/pdc_bench") + "/meta";
  const std::uint32_t sizes[] = {10000, 100000, 1000000};
  const std::uint32_t server_counts[] = {1, 2, 4};
  const auto query_shapes = shapes();

  pdc::exec::ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()));

  print_header("BOSS metadata: sharded affix trie vs linear-scan oracle",
               "shape   srv  objects      sim_s    oracle_s     probes  "
               "vnodes   hits");
  std::vector<MetaRow> rows;
  for (const std::uint32_t objects : sizes) {
    // One metadata catalog per size; the per-server-count services below
    // each build their own shards from it.
    pdc::meta::MetaStore meta;
    pdc::workloads::BossMetaConfig config;
    config.num_objects = objects;
    unwrap(pdc::workloads::generate_boss_metadata(meta, config, &pool),
           "BOSS metadata generation");

    // The service needs a (data-empty) object store underneath.
    std::filesystem::remove_all(scratch);
    pdc::pfs::PfsConfig cfg;
    cfg.root_dir = scratch;
    auto cluster = unwrap(pdc::pfs::PfsCluster::Create(cfg), "PFS create");
    pdc::obj::ObjectStore store(*cluster);

    for (const std::uint32_t servers : server_counts) {
      pdc::query::ServiceOptions options;
      options.num_servers = servers;
      options.metadata = &meta;
      pdc::query::QueryService service(store, options);

      for (const Shape& shape : query_shapes) {
        const auto result = unwrap(service.meta_query(shape.conditions),
                                   "meta query");
        const pdc::query::OpStats stats = service.last_stats();
        MetaRow row;
        row.shape = shape.name;
        row.servers = servers;
        row.objects = objects;
        row.sim_s = stats.sim_elapsed_seconds;
        // Modeled linear oracle: a full metadata walk probing every
        // conjunct on every object, the file-traversal alternative the
        // paper measures against.
        row.oracle_s = static_cast<double>(objects) *
                       static_cast<double>(shape.conditions.size()) *
                       pdc::meta::kMetaProbeSeconds;
        row.probes = stats.meta_probes;
        row.vnodes = stats.meta_vnodes_queried;
        row.hits = result.size();
        std::printf("%-6s  %3u  %7u  %9.6f  %10.6f  %9" PRIu64
                    "  %6" PRIu64 "  %5" PRIu64 "\n",
                    row.shape, row.servers, row.objects, row.sim_s,
                    row.oracle_s, row.probes, row.vnodes, row.hits);
        suite.add(Kind::kSim,
                  std::string(row.shape) + "/servers=" +
                      std::to_string(servers) +
                      "/objects=" + std::to_string(objects),
                  "sim_s", "s", Better::kLower, row.sim_s);
        rows.push_back(row);
      }
    }
  }
  std::filesystem::remove_all(scratch);

  const auto find = [&](const Shape& shape, std::uint32_t servers,
                        std::uint32_t objects) -> const MetaRow& {
    return *std::find_if(rows.begin(), rows.end(), [&](const MetaRow& r) {
      return std::string_view(r.shape) == shape.name && r.servers == servers &&
             r.objects == objects;
    });
  };
  const std::uint32_t small = sizes[0];
  const std::uint32_t large = sizes[std::size(sizes) - 1];
  const double ratio = static_cast<double>(large) / small;
  for (const Shape& shape : query_shapes) {
    for (const std::uint32_t servers : server_counts) {
      const MetaRow& lo = find(shape, servers, small);
      const MetaRow& hi = find(shape, servers, large);
      suite.expect(hi.sim_s <= 3.0 * lo.sim_s,
                   "%s/%usrv: trie sim_s at %u = %.9f > 3x %.9f at %u",
                   shape.name, servers, large, hi.sim_s, lo.sim_s, small);
      suite.expect(hi.oracle_s >= 0.5 * ratio * lo.oracle_s,
                   "%s/%usrv: oracle_s grew %.1fx over a %.0fx catalog — "
                   "not a linear model",
                   shape.name, servers, hi.oracle_s / lo.oracle_s, ratio);
      suite.expect(hi.sim_s < hi.oracle_s,
                   "%s/%usrv: trie sim_s %.9f >= oracle %.9f at %u objects",
                   shape.name, servers, hi.sim_s, hi.oracle_s, large);
    }
    for (const std::uint32_t objects : sizes) {
      const std::uint64_t hits = find(shape, server_counts[0], objects).hits;
      for (const std::uint32_t servers : server_counts) {
        const std::uint64_t got = find(shape, servers, objects).hits;
        suite.expect(got == hits,
                     "%s/%u: %u servers report %" PRIu64
                     " hits, %u servers %" PRIu64,
                     shape.name, objects, servers, got, server_counts[0],
                     hits);
      }
    }
  }
}

}  // namespace pdc::bench
