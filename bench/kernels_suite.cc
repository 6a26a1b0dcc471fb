// Kernels suite: wall-clock microbenchmarks — the one suite that measures
// THIS machine, not the simulated cluster.  The SIMD kernel layer is real
// CPU work (the cost model charges it separately), so its claims — scan
// GB/s, WAH decode MB/s, parallel-build scaling — are wall-clock claims.
//
// The throughput rows are kWall: the gate diffs them only against a
// baseline recorded on a matching machine.  The self-checks hold on any
// machine that can show them: avx2 >= 4x scalar on scan_f32 and >= 2x on
// wah_expand (the median of interleaved scalar/avx2 pairs) where the CPU
// has AVX2, and a >= 3x sorted-replica build
// speedup from 1 to 8 threads where it has >= 8 hardware threads.  Build
// times are printed, not diffed: run to run they move more than the gate's
// threshold.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "bitmap/wah.h"
#include "common/exec_pool.h"
#include "common/interval.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "sortrep/sorted_replica.h"

namespace pdc::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Best-of-N wall seconds for `fn` (first call warms caches, then N timed).
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

struct KernelRow {
  std::string name;
  std::string backend;
  std::string metric;  ///< "gb_per_s" | "mb_per_s" | "mprobes_per_s"
  std::string unit;    ///< "GB/s" | "MB/s" | "Mprobes/s"
  double value = 0.0;
};

struct BuildRow {
  std::string name;
  std::uint32_t threads = 0;
  double seconds = 0.0;
};

template <typename T>
KernelRow bench_scan(const char* name, kernels::Backend backend) {
  constexpr std::size_t kN = 1u << 22;
  Rng rng(11);
  std::vector<T> values(kN);
  for (auto& v : values) v = static_cast<T>(rng.uniform(-1.0, 1.0));
  // ~50% selectivity: every element is branched on, half are appended.
  const auto q = ValueInterval::from_op(QueryOp::kGT, -0.5)
                     .intersect(ValueInterval::from_op(QueryOp::kLT, 0.5));
  std::vector<std::uint64_t> out;
  out.reserve(kN);
  const kernels::ScopedBackend scoped(backend);
  const double secs = best_seconds(5, [&] {
    out.clear();
    kernels::scan_interval(std::span<const T>(values), q, 0, out);
  });
  return {name, kernels::backend_name(kernels::active_backend()), "gb_per_s",
          "GB/s", static_cast<double>(kN * sizeof(T)) / secs / 1e9};
}

/// wah_expand rows for both backends and the avx2/scalar speedup.  The
/// backends run in interleaved pairs (scalar then avx2, best of 3 each)
/// and the speedup is the median of the per-pair ratios: a slow stretch
/// of a loaded host then lands on both sides of a pair instead of on
/// whichever backend happened to run during it.
struct WahExpandBench {
  std::vector<KernelRow> rows;
  double speedup = 0.0;  ///< 0 when the machine has no AVX2
};

WahExpandBench bench_wah_expand(const std::vector<kernels::Backend>& backends) {
  // Mixed word stream: literal stretches at ~6% density plus 0- and
  // 1-fills, the shape region bitmaps take after histogram pruning.
  Rng rng(23);
  bitmap::WahBitVector v;
  for (int block = 0; block < 6000; ++block) {
    switch (rng.bounded(4)) {
      case 0:
        v.append_run(false, 31 * (1 + rng.bounded(64)));
        break;
      case 1:
        v.append_run(true, 31 * (1 + rng.bounded(8)));
        break;
      default:
        for (int i = 0; i < 31 * 16; ++i) v.append_bit(rng.bounded(16) == 0);
        break;
    }
  }
  std::vector<std::uint64_t> out;
  out.reserve(v.count());
  const auto seconds = [&](kernels::Backend backend) {
    const kernels::ScopedBackend scoped(backend);
    return best_seconds(3, [&] {
      out.clear();
      v.append_set_positions(0, 0, v.size(), out);
    });
  };
  constexpr int kPairs = 15;
  std::vector<double> best(backends.size(),
                           std::numeric_limits<double>::infinity());
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    std::vector<double> secs;
    for (std::size_t b = 0; b < backends.size(); ++b) {
      secs.push_back(seconds(backends[b]));
      best[b] = std::min(best[b], secs.back());
    }
    if (secs.size() == 2) ratios.push_back(secs[0] / secs[1]);
  }
  WahExpandBench result;
  const double word_bytes =
      static_cast<double>(v.words().size()) * sizeof(std::uint32_t);
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const kernels::ScopedBackend scoped(backends[b]);
    result.rows.push_back({"wah_expand",
                           kernels::backend_name(kernels::active_backend()),
                           "mb_per_s", "MB/s", word_bytes / best[b] / 1e6});
  }
  if (!ratios.empty()) {
    std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2,
                     ratios.end());
    result.speedup = ratios[kPairs / 2];
  }
  return result;
}

KernelRow bench_bound_batch(kernels::Backend backend) {
  constexpr std::size_t kN = 1u << 20;
  constexpr std::size_t kKeys = 1u << 16;
  Rng rng(37);
  std::vector<double> sorted(kN);
  for (auto& v : sorted) v = rng.uniform(0.0, 1.0);
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> keys(kKeys);
  for (auto& k : keys) k = rng.uniform(-0.1, 1.1);
  std::vector<std::uint64_t> out(kKeys);
  const kernels::ScopedBackend scoped(backend);
  const double secs = best_seconds(5, [&] {
    kernels::lower_bound_batch(std::span<const double>(sorted),
                               std::span<const double>(keys), out);
  });
  return {"bound_batch_f64", kernels::backend_name(kernels::active_backend()),
          "mprobes_per_s", "Mprobes/s",
          static_cast<double>(kKeys) / secs / 1e6};
}

/// Sorted-replica build wall time at each pool width (one store per width:
/// a replica may only be built once per source).
std::vector<BuildRow> bench_sortrep_builds(const std::string& scratch) {
  constexpr std::uint64_t kN = 1u << 21;
  Rng rng(41);
  std::vector<float> data(kN);
  for (auto& v : data) v = static_cast<float>(rng.uniform(-100.0, 100.0));

  std::vector<BuildRow> rows;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    const std::string dir = scratch + "/sortrep_" + std::to_string(threads);
    std::filesystem::remove_all(dir);
    pfs::PfsConfig cfg;
    cfg.root_dir = dir;
    auto cluster = unwrap(pfs::PfsCluster::Create(cfg), "PFS create");
    obj::ObjectStore store(*cluster);
    const ObjectId container =
        unwrap(store.create_container("bench"), "container");
    obj::ImportOptions options;
    options.region_size_bytes = 1u << 20;
    const ObjectId source = unwrap(
        store.import_object<float>(container, "key",
                                   std::span<const float>(data), options),
        "import");
    exec::ThreadPool pool(threads);
    options.pool = &pool;
    const auto report = unwrap(
        sortrep::build_sorted_replica(store, source, options), "build");
    rows.push_back({"sortrep_build", threads, report.wall_seconds});
    std::filesystem::remove_all(dir);
  }
  return rows;
}

std::vector<BuildRow> bench_histogram_builds() {
  constexpr std::size_t kN = 1u << 23;
  Rng rng(43);
  std::vector<double> data(kN);
  for (auto& v : data) v = rng.uniform(-5.0, 5.0);
  std::vector<BuildRow> rows;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    exec::ThreadPool pool(threads);
    const double secs = best_seconds(3, [&] {
      (void)hist::MergeableHistogram::Build<double>(
          std::span<const double>(data), {}, &pool);
    });
    rows.push_back({"histogram_build", threads, secs});
  }
  return rows;
}

/// Wall seconds of `name` at `threads` (the sweeps always run 1/2/4/8).
double build_seconds(const std::vector<BuildRow>& rows, const char* name,
                     std::uint32_t threads) {
  for (const BuildRow& row : rows) {
    if (row.name == name && row.threads == threads) return row.seconds;
  }
  return 0.0;
}

double kernel_value(const std::vector<KernelRow>& rows, const char* name,
                    const char* backend) {
  for (const KernelRow& row : rows) {
    if (row.name == name && row.backend == backend) return row.value;
  }
  return 0.0;
}

}  // namespace

void run_kernels(Suite& suite) {
  const bool avx2 = kernels::cpu_has_avx2();
  std::vector<kernels::Backend> backends{kernels::Backend::kScalar};
  if (avx2) backends.push_back(kernels::Backend::kAvx2);

  std::vector<KernelRow> kernel_rows;
  for (const kernels::Backend b : backends) {
    kernel_rows.push_back(bench_scan<float>("scan_f32", b));
    kernel_rows.push_back(bench_scan<double>("scan_f64", b));
    kernel_rows.push_back(bench_bound_batch(b));
  }
  const WahExpandBench wah = bench_wah_expand(backends);
  kernel_rows.insert(kernel_rows.end(), wah.rows.begin(), wah.rows.end());

  const std::string scratch =
      env_str("PDC_BENCH_DIR", "/tmp/pdc_bench") + "/kernels";
  std::vector<BuildRow> build_rows = bench_sortrep_builds(scratch);
  for (auto& row : bench_histogram_builds()) build_rows.push_back(row);

  for (const KernelRow& row : kernel_rows) {
    std::printf("%-16s %-8s %10.3f %s\n", row.name.c_str(),
                row.backend.c_str(), row.value, row.unit.c_str());
    suite.add(Kind::kWall, row.name + "/" + row.backend, row.metric, row.unit,
              Better::kHigher, row.value);
  }
  for (const BuildRow& row : build_rows) {
    std::printf("%-16s threads=%u %10.6f s\n", row.name.c_str(), row.threads,
                row.seconds);
  }

  if (avx2) {
    const double scan_speedup = kernel_value(kernel_rows, "scan_f32", "avx2") /
                                kernel_value(kernel_rows, "scan_f32", "scalar");
    for (const auto& [name, speedup, floor] :
         {std::tuple{"scan_f32", scan_speedup, 4.0},
          std::tuple{"wah_expand", wah.speedup, 2.0}}) {
      std::printf("%-16s avx2/scalar %6.2fx  (floor %.0fx)\n", name, speedup,
                  floor);
      suite.expect(speedup >= floor, "%s avx2 speedup %.2fx < %.0fx floor",
                   name, speedup, floor);
    }
  } else {
    std::printf("note: no AVX2 on this machine — SIMD floors skipped\n");
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();
  if (hw_threads >= 8) {
    const double speedup = build_seconds(build_rows, "sortrep_build", 1) /
                           build_seconds(build_rows, "sortrep_build", 8);
    std::printf("%-16s 1t/8t       %6.2fx  (floor 3x)\n", "sortrep_build",
                speedup);
    suite.expect(speedup >= 3.0, "sortrep_build 8-thread speedup %.2fx < 3x",
                 speedup);
  } else {
    std::printf("note: %u hardware threads — 8-thread build floor skipped\n",
                hw_threads);
  }
}

}  // namespace pdc::bench
