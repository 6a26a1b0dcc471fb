// Shared setup for the figure-reproduction benchmarks and the gated suites.
//
// Environment knobs (all optional):
//   PDC_BENCH_PARTICLES  particles in the VPIC dataset (default 2^21;
//                        figure benches only — gated suites are fixed-size)
//   PDC_BENCH_SERVERS    PDC servers (default 8; Fig. 6 sweeps its own;
//                        figure benches only)
//   PDC_BENCH_DIR        scratch directory (default /tmp/pdc_bench)
//
// All reported times are *simulated* seconds from the cost model
// (cluster-shaped I/O, network and scan costs; see common/cost_model.h) —
// results are deterministic and reflect a 64-node deployment's behaviour
// rather than this machine's.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "common/status.h"
#include "obj/object_store.h"
#include "pfs/pfs.h"
#include "query/service.h"
#include "workloads/vpic.h"

namespace pdc::bench {

inline std::uint64_t env_u64(const char* name, std::uint64_t def) {
  if (const char* v = std::getenv(name)) {
    return std::strtoull(v, nullptr, 10);
  }
  return def;
}

inline std::string env_str(const char* name, const std::string& def) {
  if (const char* v = std::getenv(name)) return v;
  return def;
}

/// Abort-on-error helpers: benches treat setup failures as fatal.
inline void check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// One PFS cluster + generated VPIC dataset, shared by figure benches.
struct BenchWorld {
  std::string scratch_dir;
  std::unique_ptr<pfs::PfsCluster> cluster;
  workloads::VpicData data;
  std::uint32_t num_servers = 8;

  /// Figure benches: sized by PDC_BENCH_PARTICLES / PDC_BENCH_SERVERS.
  static BenchWorld create(const char* bench_name,
                           std::uint64_t default_particles = 1ull << 21) {
    return sized(bench_name, env_u64("PDC_BENCH_PARTICLES", default_particles),
                 static_cast<std::uint32_t>(env_u64("PDC_BENCH_SERVERS", 8)));
  }

  /// Gated suites: a fixed size, so the gate always measures the
  /// baseline's configuration.
  static BenchWorld sized(const char* bench_name, std::uint64_t particles,
                          std::uint32_t num_servers) {
    BenchWorld world;
    world.scratch_dir = env_str("PDC_BENCH_DIR", "/tmp/pdc_bench") + "/" +
                        bench_name;
    std::filesystem::remove_all(world.scratch_dir);

    pfs::PfsConfig cfg;
    cfg.root_dir = world.scratch_dir;
    cfg.num_osts = 16;
    cfg.stripe_count = 4;
    cfg.stripe_size = 1ull << 20;
    world.cluster = unwrap(pfs::PfsCluster::Create(cfg), "PFS create");

    workloads::VpicConfig vpic;
    vpic.num_particles = particles;
    world.data = workloads::generate_vpic(vpic);
    world.num_servers = num_servers;
    return world;
  }

  BenchWorld() = default;
  BenchWorld(BenchWorld&&) = default;
  BenchWorld& operator=(BenchWorld&&) = default;

  ~BenchWorld() {
    // A moved-from world holds an empty scratch path and cleans nothing.
    if (!scratch_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(scratch_dir, ec);
    }
  }
};

/// One of the paper's single-object queries: lo < Energy < hi (Fig. 3).
inline query::QueryPtr energy_window(ObjectId energy,
                                     const workloads::SingleQuerySpec& spec) {
  return query::q_and(query::create(energy, QueryOp::kGT, spec.lo),
                      query::create(energy, QueryOp::kLT, spec.hi));
}

/// The Fig. 4/6 compound query: Energy threshold AND x, y, z windows.
inline query::QueryPtr vpic_multi_query(const workloads::VpicObjects& objects,
                                        const workloads::MultiQuerySpec& spec) {
  using query::create;
  using query::q_and;
  query::QueryPtr q = create(objects.energy, QueryOp::kGT, spec.energy_min);
  q = q_and(q, q_and(create(objects.x, QueryOp::kGT, spec.x_lo),
                     create(objects.x, QueryOp::kLT, spec.x_hi)));
  q = q_and(q, q_and(create(objects.y, QueryOp::kGT, spec.y_lo),
                     create(objects.y, QueryOp::kLT, spec.y_hi)));
  q = q_and(q, q_and(create(objects.z, QueryOp::kGT, spec.z_lo),
                     create(objects.z, QueryOp::kLT, spec.z_hi)));
  return q;
}

/// Paper-style approach labels in plot order.
inline constexpr const char* kApproachNames[] = {"HDF5-F", "PDC-F", "PDC-H",
                                                 "PDC-HI", "PDC-SH"};

inline void print_header(const char* title, const char* columns) {
  std::printf("\n# %s\n%s\n", title, columns);
}

}  // namespace pdc::bench
