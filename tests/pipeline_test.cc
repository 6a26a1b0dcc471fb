// RegionPipeline battery: classify_region unit laws, PDC-A determinism,
// threshold-knob crossover at the service level, traced-adaptive span
// invariants (validate_trace + trace-vs-OpStats reconciliation), and the
// region-order battery: PDC-HI / PDC-A output is strictly ascending
// straight out of the pipeline (no sort anywhere) and equals the
// element-wise oracle, on every access path, pool width and grain side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_pool.h"
#include "common/rng.h"
#include "histogram/histogram.h"
#include "obj/object_store.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "query/query.h"
#include "query/service.h"
#include "server/query_server.h"
#include "server/region_assignment.h"
#include "server/region_pipeline.h"
#include "testing/invariants.h"

namespace pdc {
namespace {

using query::QueryService;
using query::ServiceOptions;
using server::AdaptiveKnobs;
using server::RegionChoice;
using server::Strategy;

// ------------------------------------------------------- classify_region

hist::MergeableHistogram constant_hist(float value, std::size_t n = 1024) {
  const std::vector<float> data(n, value);
  return hist::MergeableHistogram::Build<float>(data);
}

hist::MergeableHistogram uniform_hist(double lo, double hi,
                                      std::size_t n = 4096) {
  Rng rng(42);
  std::vector<float> data(n);
  for (float& v : data) v = static_cast<float>(rng.uniform(lo, hi));
  return hist::MergeableHistogram::Build<float>(data);
}

TEST(ClassifyRegion, NonOverlappingRegionIsPruned) {
  const auto h = constant_hist(90.0f);
  const ValueInterval q{10.0, 40.0, /*lo_inclusive=*/true, /*hi_inclusive=*/false};
  EXPECT_EQ(server::classify_region(h, q, {0.25, true}), RegionChoice::kPruned);
  EXPECT_EQ(server::classify_region(h, q, {0.25, false}), RegionChoice::kPruned);
}

TEST(ClassifyRegion, CoveredRegionIsAllHitRegardlessOfIndex) {
  const auto h = constant_hist(20.0f);
  const ValueInterval q{10.0, 40.0, true, false};
  EXPECT_EQ(server::classify_region(h, q, {0.25, true}), RegionChoice::kAllHit);
  EXPECT_EQ(server::classify_region(h, q, {0.25, false}), RegionChoice::kAllHit);
}

TEST(ClassifyRegion, NoIndexAlwaysScans) {
  const auto h = uniform_hist(0.0, 100.0);
  const ValueInterval q{10.0, 40.0, true, false};
  EXPECT_EQ(server::classify_region(h, q, {1e-9, false}), RegionChoice::kScan);
  EXPECT_EQ(server::classify_region(h, q, {0.999, false}), RegionChoice::kScan);
}

TEST(ClassifyRegion, ThresholdSplitsScanFromIndex) {
  // Uniform over [0,100): the query [10,40) matches ~30% of the region.
  const auto h = uniform_hist(0.0, 100.0);
  const ValueInterval q{10.0, 40.0, true, false};
  const double sel =
      h.estimate(q).selectivity_mid(h.total_count());
  ASSERT_GT(sel, 0.1);
  ASSERT_LT(sel, 0.9);
  // Threshold below the selectivity: dense enough to scan.
  EXPECT_EQ(server::classify_region(h, q, {sel - 0.05, true}), RegionChoice::kScan);
  // Threshold above the selectivity: sparse enough to probe the index.
  EXPECT_EQ(server::classify_region(h, q, {sel + 0.05, true}), RegionChoice::kIndex);
  // Boundary: >= semantics, same as the dense-read crossover.
  EXPECT_EQ(server::classify_region(h, q, {sel, true}), RegionChoice::kScan);
}

TEST(ClassifyRegion, ChoiceCountsTallyIgnoresPruned) {
  server::RegionChoiceCounts counts;
  counts.tally(RegionChoice::kPruned);
  counts.tally(RegionChoice::kScan);
  counts.tally(RegionChoice::kScan);
  counts.tally(RegionChoice::kIndex);
  counts.tally(RegionChoice::kAllHit);
  EXPECT_EQ(counts.scanned, 2u);
  EXPECT_EQ(counts.indexed, 1u);
  EXPECT_EQ(counts.allhit, 1u);
}

// -------------------------------------------------------- service fixture

/// Dataset engineered for mixed per-region choices: interleaves uniform
/// "noise" regions (partial overlap, mid selectivity), constant in-range
/// regions (all-hit) and constant out-of-range regions (pruned).
class PipelineEnv {
 public:
  static constexpr std::uint64_t kRegionElems = 1024;  // 4096-byte regions
  static constexpr std::uint64_t kRegions = 18;
  static constexpr std::uint64_t kN = kRegionElems * kRegions;

  explicit PipelineEnv(const std::string& root) : root_(root) {
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);

    Rng rng(0x9195);
    values_.resize(kN);
    for (std::uint64_t r = 0; r < kRegions; ++r) {
      for (std::uint64_t i = 0; i < kRegionElems; ++i) {
        const std::uint64_t pos = r * kRegionElems + i;
        switch (r % 3) {
          case 0:  // mixed region: ~30% of values inside [10, 40)
            values_[pos] = static_cast<float>(rng.uniform(0.0, 100.0));
            break;
          case 1:  // all-hit region: every value inside the interval
            values_[pos] = 25.0f;
            break;
          default:  // prunable region: nothing overlaps
            values_[pos] = 90.0f;
            break;
        }
      }
    }
    obj::ImportOptions options;
    options.region_size_bytes = kRegionElems * sizeof(float);
    const ObjectId container =
        std::move(store_->create_container("pipeline")).value();
    object_ = std::move(store_->import_object<float>(
                            container, "values",
                            std::span<const float>(values_), options))
                  .value();
    if (!store_->build_bitmap_index(object_).ok()) std::abort();
  }

  ~PipelineEnv() { std::filesystem::remove_all(root_); }

  [[nodiscard]] query::QueryPtr range_query() const {
    return query::q_and(query::create(object_, QueryOp::kGTE, 10.0),
                        query::create(object_, QueryOp::kLT, 40.0));
  }

  [[nodiscard]] std::vector<std::uint64_t> oracle_positions() const {
    std::vector<std::uint64_t> hits;
    for (std::uint64_t i = 0; i < kN; ++i) {
      if (values_[i] >= 10.0f && values_[i] < 40.0f) hits.push_back(i);
    }
    return hits;
  }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  std::vector<float> values_;
  ObjectId object_ = kInvalidObjectId;
};

std::unique_ptr<PipelineEnv> make_env() {
  return std::make_unique<PipelineEnv>(
      ::testing::TempDir() + "/pipeline_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

ServiceOptions adaptive_options(std::uint32_t eval_threads = 4) {
  ServiceOptions options;
  options.strategy = Strategy::kAdaptive;
  options.num_servers = 3;
  options.eval_threads = eval_threads;
  return options;
}

// ------------------------------------------------------------ adaptive

TEST(AdaptivePipeline, MatchesOracleAndReportsMixedChoices) {
  const auto env = make_env();
  QueryService service(*env->store_, adaptive_options());
  const auto selection = service.get_selection(env->range_query());
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_EQ(selection->positions, env->oracle_positions());

  const query::OpStats stats = service.last_stats();
  // The dataset interleaves all three shapes; with the default 0.25
  // threshold the ~30%-selective noise regions scan, and every third
  // region is a provable all-hit.  Pruned regions appear in no counter.
  EXPECT_GT(stats.regions_scanned, 0u);
  EXPECT_GT(stats.regions_allhit, 0u);
  EXPECT_LE(stats.regions_scanned + stats.regions_indexed +
                stats.regions_allhit,
            PipelineEnv::kRegions);
}

TEST(AdaptivePipeline, FixedStrategiesReportNoChoices) {
  const auto env = make_env();
  for (const Strategy s : {Strategy::kFullScan, Strategy::kHistogram,
                           Strategy::kHistogramIndex}) {
    ServiceOptions options = adaptive_options();
    options.strategy = s;
    QueryService service(*env->store_, options);
    ASSERT_TRUE(service.get_num_hits(env->range_query()).ok());
    const query::OpStats stats = service.last_stats();
    EXPECT_EQ(stats.regions_scanned, 0u);
    EXPECT_EQ(stats.regions_indexed, 0u);
    EXPECT_EQ(stats.regions_allhit, 0u);
  }
}

TEST(AdaptivePipeline, ChoicesAreDeterministicAcrossRunsAndPoolWidths) {
  const auto env = make_env();
  std::vector<std::uint64_t> first_positions;
  std::uint64_t scanned = 0, indexed = 0, allhit = 0;
  bool first = true;
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    QueryService service(*env->store_, adaptive_options(threads));
    for (int run = 0; run < 2; ++run) {
      const auto selection = service.get_selection(env->range_query());
      ASSERT_TRUE(selection.ok()) << selection.status().ToString();
      const query::OpStats stats = service.last_stats();
      if (first) {
        first_positions = selection->positions;
        scanned = stats.regions_scanned;
        indexed = stats.regions_indexed;
        allhit = stats.regions_allhit;
        first = false;
        continue;
      }
      EXPECT_EQ(selection->positions, first_positions)
          << "threads=" << threads << " run=" << run;
      // Pool width must not change the plan, and within one width the warm
      // cache must not change the choice vector (only the I/O charged).
      EXPECT_EQ(stats.regions_scanned, scanned);
      EXPECT_EQ(stats.regions_indexed, indexed);
      EXPECT_EQ(stats.regions_allhit, allhit);
    }
  }
}

TEST(AdaptivePipeline, ThresholdKnobFlipsChoices) {
  const auto env = make_env();
  // Threshold below any mixed-region selectivity: everything scans.
  ServiceOptions scan_side = adaptive_options();
  scan_side.dense_read_threshold = 1e-9;
  QueryService scan_service(*env->store_, scan_side);
  const auto scan_sel = scan_service.get_selection(env->range_query());
  ASSERT_TRUE(scan_sel.ok()) << scan_sel.status().ToString();
  const query::OpStats scan_stats = scan_service.last_stats();

  // Threshold above: every non-all-hit survivor probes the index.
  ServiceOptions index_side = adaptive_options();
  index_side.dense_read_threshold = 0.999;
  QueryService index_service(*env->store_, index_side);
  const auto index_sel = index_service.get_selection(env->range_query());
  ASSERT_TRUE(index_sel.ok()) << index_sel.status().ToString();
  const query::OpStats index_stats = index_service.last_stats();

  // Same answer, opposite access paths.
  EXPECT_EQ(scan_sel->positions, index_sel->positions);
  EXPECT_GT(scan_stats.regions_scanned, 0u);
  EXPECT_EQ(scan_stats.regions_indexed, 0u);
  EXPECT_GT(index_stats.regions_indexed, 0u);
  EXPECT_EQ(index_stats.regions_scanned, 0u);
  EXPECT_EQ(scan_stats.regions_allhit, index_stats.regions_allhit);
}

TEST(AdaptivePipeline, TracedRunValidatesAndReconcilesStats) {
  const auto env = make_env();
  QueryService service(*env->store_, adaptive_options());
  ASSERT_TRUE(service.get_num_hits(env->range_query(), {.trace = true}).ok());
  const std::shared_ptr<const obs::Trace> trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  const Status valid = obs::validate_trace(*trace);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  const Status stats_ok =
      testing::check_trace_stats(*trace, service.last_stats());
  EXPECT_TRUE(stats_ok.ok()) << stats_ok.ToString();

  // One adaptive-plan phase per server, annotated with the choice split
  // that the response counters also report.
  std::size_t plan_spans = 0;
  double span_scanned = 0.0, span_indexed = 0.0, span_allhit = 0.0;
  for (const obs::Span& span : trace->spans) {
    if (span.name != "phase.adaptive_plan") continue;
    ++plan_spans;
    span_scanned += span.arg("scanned");
    span_indexed += span.arg("indexed");
    span_allhit += span.arg("allhit");
  }
  const query::OpStats stats = service.last_stats();
  EXPECT_EQ(plan_spans, 3u);
  EXPECT_EQ(span_scanned, static_cast<double>(stats.regions_scanned));
  EXPECT_EQ(span_indexed, static_cast<double>(stats.regions_indexed));
  EXPECT_EQ(span_allhit, static_cast<double>(stats.regions_allhit));
}

// --------------------------------------------------------- region order

/// A float column whose regions cover every access path of PDC-HI and
/// PDC-A for the query [10.37, 60.61) (off the bin-edge grid, so boundary
/// bins hold candidates):
///   r % 4 == 0  uniform [0, 100)  -> index probe (full + partial bins)
///   r % 4 == 1  constant 25       -> all-hit
///   r % 4 == 2  constant 90       -> pruned
///   r % 4 == 3  uniform [8, 70)   -> dense: PDC-A scans it
/// plus an out-of-range overwrite that makes region 4's index stale, an
/// absorbed (delta-WAH) overwrite of region 8, and a short appended tail
/// region.  `region_elems` picks the side of the fan-out grain.
class RegionOrderEnv {
 public:
  static constexpr std::uint64_t kRegions = 12;
  static constexpr std::uint32_t kServers = 3;
  static constexpr double kThreshold = 0.65;  // PDC-A: r%4==0 index, ==3 scan

  RegionOrderEnv(const std::string& root, std::uint64_t region_elems)
      : root_(root), region_elems_(region_elems) {
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);

    Rng rng(0x0DE5 + region_elems);
    values_.resize(region_elems * kRegions);
    for (std::uint64_t r = 0; r < kRegions; ++r) {
      for (std::uint64_t i = 0; i < region_elems; ++i) {
        float& v = values_[r * region_elems + i];
        switch (r % 4) {
          case 0: v = static_cast<float>(rng.uniform(0.0, 100.0)); break;
          case 1: v = 25.0f; break;
          case 2: v = 90.0f; break;
          default: v = static_cast<float>(rng.uniform(8.0, 70.0)); break;
        }
      }
    }
    obj::ImportOptions options;
    options.region_size_bytes = region_elems * sizeof(float);
    const ObjectId container =
        std::move(store_->create_container("order")).value();
    id_ = std::move(store_->import_object<float>(
                        container, "values",
                        std::span<const float>(values_), options))
              .value();
    if (!store_->build_bitmap_index(id_).ok()) std::abort();

    // Stale: 1000 lies outside region 4's indexed range.
    write(obj::WriteKind::kOverwrite, 4 * region_elems + 7, {1000.0f});
    // Absorbed: values strictly inside region 8's range, off bin edges;
    // two are hits, one is a candidate-bin miss, one is out of range.
    write(obj::WriteKind::kOverwrite, 8 * region_elems + 3,
          {33.3333f, 11.1111f, 60.6099f, 71.2345f});
    // Short tail region: no index coverage, so it is scanned.
    std::vector<float> tail(region_elems / 3);
    for (float& v : tail) v = static_cast<float>(rng.uniform(0.0, 100.0));
    write(obj::WriteKind::kAppend, 0, tail);
  }

  ~RegionOrderEnv() { std::filesystem::remove_all(root_); }

  [[nodiscard]] const obj::ObjectDescriptor& desc() const {
    return *std::move(store_->get(id_)).value();
  }

  /// Element-wise oracle over `identity`'s regions within `constraint`
  /// (count 0 = unconstrained).
  [[nodiscard]] std::vector<std::uint64_t> oracle(
      ServerId identity, Extent1D constraint) const {
    const obj::ObjectDescriptor& object = desc();
    std::vector<std::uint64_t> hits;
    for (std::uint64_t p = 0; p < values_.size(); ++p) {
      if (server::owner_of_region(
              object, server::region_of_position(object, p), kServers) !=
          identity) {
        continue;
      }
      if (constraint.count > 0 && !constraint.contains(p)) continue;
      if (interval().contains(static_cast<double>(values_[p]))) {
        hits.push_back(p);
      }
    }
    return hits;
  }

  [[nodiscard]] static ValueInterval interval() {
    return {10.37, 60.61, /*lo_inclusive=*/true, /*hi_inclusive=*/false};
  }

  std::string root_;
  std::uint64_t region_elems_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  std::vector<float> values_;
  ObjectId id_ = kInvalidObjectId;
  std::uint64_t seq_ = 0;

 private:
  void write(obj::WriteKind kind, std::uint64_t offset,
             const std::vector<float>& values) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        values.size() * sizeof(float));
    if (!store_->apply_write(id_, kind, Extent1D{offset, values.size()},
                             bytes, ++seq_, {})
             .ok()) {
      std::abort();
    }
    if (kind == obj::WriteKind::kAppend) {
      values_.insert(values_.end(), values.begin(), values.end());
    } else {
      std::copy(values.begin(), values.end(), values_.begin() + offset);
    }
  }
};

/// One direct pipeline (no QueryServer, no merge above it) over `env`.
struct PipelineHarness {
  PipelineHarness(const obj::ObjectStore& store, exec::ThreadPool* pool,
                  ServerId id)
      : data_cache(1ull << 30),
        index_cache(1ull << 28),
        actor("server" + std::to_string(id)),
        pipeline(server::RegionPipeline::Env{
            &store, pool, id, RegionOrderEnv::kServers, {},
            RegionOrderEnv::kThreshold, &data_cache, &index_cache, &actor}) {}

  server::RegionCache data_cache;
  server::RegionCache index_cache;
  std::string actor;
  server::RegionPipeline pipeline;
};

bool strictly_ascending(const std::vector<std::uint64_t>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            [](std::uint64_t a, std::uint64_t b) {
                              return a >= b;
                            }) == v.end();
}

/// Every identity's PDC-HI and PDC-A output, twice (cold, then warm
/// caches), at one pool width; `submitted` returns the tasks the pool saw.
void check_region_order(const RegionOrderEnv& env, std::uint32_t width,
                        Extent1D constraint, server::RegionChoiceCounts& seen,
                        std::uint64_t& submitted) {
  exec::ThreadPool pool(width);
  for (const Strategy strategy :
       {Strategy::kHistogramIndex, Strategy::kAdaptive}) {
    for (ServerId identity = 0; identity < RegionOrderEnv::kServers;
         ++identity) {
      PipelineHarness h(*env.store_, &pool, identity);
      const std::vector<std::uint64_t> want = env.oracle(identity, constraint);
      for (int pass = 0; pass < 2; ++pass) {
        CostLedger ledger;
        std::vector<std::uint64_t> positions;
        std::vector<Extent1D> extents;
        server::RegionChoiceCounts counts;
        const Status st = h.pipeline.run(
            env.desc(), RegionOrderEnv::interval(), constraint, identity,
            server::pipeline_config(strategy, /*sorted_driver=*/false),
            ledger, positions, extents, counts, {});
        ASSERT_TRUE(st.ok()) << st.ToString();
        const std::string where = std::string(strategy_name(strategy)) +
                                  " width=" + std::to_string(width) +
                                  " identity=" + std::to_string(identity) +
                                  " pass=" + std::to_string(pass);
        EXPECT_TRUE(strictly_ascending(positions)) << where;
        EXPECT_EQ(positions, want) << where;
        seen.scanned += counts.scanned;
        seen.indexed += counts.indexed;
        seen.allhit += counts.allhit;
        seen.stale += counts.stale;
      }
    }
  }
  submitted = pool.stats().submitted;
}

class RegionOrder : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, possibly concurrently: one
    // directory per case.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    env_ = std::make_unique<RegionOrderEnv>(
        ::testing::TempDir() + "/region_order_" + name, GetParam());
  }
  /// True when this size keeps every fan-out under the grain.
  [[nodiscard]] bool below_grain() const {
    return GetParam() * sizeof(float) * RegionOrderEnv::kRegions <
           server::kFanOutGrainBytes;
  }
  std::unique_ptr<RegionOrderEnv> env_;
};

TEST_P(RegionOrder, FixtureCoversEveryAccessPath) {
  const obj::ObjectDescriptor& desc = env_->desc();
  ASSERT_EQ(desc.regions.size(), RegionOrderEnv::kRegions + 1);
  EXPECT_LT(desc.regions.back().extent.count, env_->region_elems_);
  EXPECT_FALSE(desc.regions.back().index_fresh());
  EXPECT_FALSE(desc.regions[4].index_fresh());
  EXPECT_TRUE(desc.regions[8].index_fresh());
  EXPECT_FALSE(desc.regions[8].delta.empty());
}

TEST_P(RegionOrder, IndexAndAdaptiveEmitAscendingOracleHits) {
  for (const std::uint32_t width : {1u, 4u, 8u}) {
    server::RegionChoiceCounts seen;
    std::uint64_t submitted = 0;
    check_region_order(*env_, width, {}, seen, submitted);
    // Every path ran: all-hit, index, scan (PDC-A dense and the stale /
    // appended fallbacks).
    EXPECT_GT(seen.allhit, 0u);
    EXPECT_GT(seen.indexed, 0u);
    EXPECT_GT(seen.scanned, seen.stale);
    EXPECT_GT(seen.stale, 0u);
    // Below the grain no fan-out touches the pool; above it they do.
    if (below_grain()) {
      EXPECT_EQ(submitted, 0u) << "width=" << width;
    } else {
      EXPECT_GT(submitted, 0u) << "width=" << width;
    }
  }
}

TEST_P(RegionOrder, ConstraintCuttingRegionsMidwayStaysAscending) {
  // Starts half-way into region 2 and ends half-way into region 8 (the
  // delta-absorbed index region).
  const std::uint64_t n = env_->region_elems_;
  const Extent1D constraint{2 * n + n / 2, 6 * n};
  for (const std::uint32_t width : {1u, 4u, 8u}) {
    server::RegionChoiceCounts seen;
    std::uint64_t submitted = 0;
    check_region_order(*env_, width, constraint, seen, submitted);
  }
}

TEST_P(RegionOrder, RestrictOnRegionBoundaryPositions) {
  // The first and last element of every region: each group spans its
  // region exactly, and consecutive groups touch.
  const obj::ObjectDescriptor& desc = env_->desc();
  std::vector<std::uint64_t> boundary;
  for (const obj::RegionDescriptor& region : desc.regions) {
    boundary.push_back(region.extent.offset);
    if (region.extent.count > 1) boundary.push_back(region.extent.end() - 1);
  }
  std::vector<std::uint64_t> want;
  for (const std::uint64_t p : boundary) {
    if (RegionOrderEnv::interval().contains(
            static_cast<double>(env_->values_[p]))) {
      want.push_back(p);
    }
  }
  ASSERT_FALSE(want.empty());
  for (const std::uint32_t width : {1u, 4u, 8u}) {
    exec::ThreadPool pool(width);
    for (const bool full_scan_mode : {false, true}) {
      PipelineHarness h(*env_->store_, &pool, 0);
      CostLedger ledger;
      std::vector<std::uint64_t> positions = boundary;
      ASSERT_TRUE(h.pipeline
                      .restrict(desc, RegionOrderEnv::interval(),
                                full_scan_mode, ledger, positions, {})
                      .ok());
      EXPECT_TRUE(strictly_ascending(positions));
      EXPECT_EQ(positions, want)
          << "width=" << width << " full_scan=" << full_scan_mode;
    }
  }
}

TEST_P(RegionOrder, DegradedServerMergesTwoIdentities) {
  // Server 0 also covers dead server 2's identity: two ascending
  // per-identity runs, merged into one.
  std::vector<std::uint64_t> want = env_->oracle(0, {});
  const std::vector<std::uint64_t> other = env_->oracle(2, {});
  want.insert(want.end(), other.begin(), other.end());
  std::sort(want.begin(), want.end());
  for (const Strategy strategy :
       {Strategy::kHistogramIndex, Strategy::kAdaptive}) {
    for (const std::uint32_t width : {1u, 4u, 8u}) {
      exec::ThreadPool pool(width);
      server::ServerOptions options;
      options.id = 0;
      options.num_servers = RegionOrderEnv::kServers;
      options.pool = &pool;
      options.dense_read_threshold = RegionOrderEnv::kThreshold;
      server::QueryServer server(*env_->store_, options);
      server::EvalRequest request;
      request.strategy = strategy;
      request.need_locations = true;
      request.act_as = {0, 2};
      request.terms.push_back(
          {{{env_->id_, RegionOrderEnv::interval()}}, kInvalidObjectId});
      const server::EvalResponse response = server.eval(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_TRUE(strictly_ascending(response.positions));
      EXPECT_EQ(response.positions, want)
          << strategy_name(strategy) << " width=" << width;
      EXPECT_EQ(response.num_hits, want.size());
    }
  }
}

// 256-element regions keep every fan-out below the grain; 4096-element
// regions put the bin decode and the scans above it.
INSTANTIATE_TEST_SUITE_P(GrainSides, RegionOrder,
                         ::testing::Values(std::uint64_t{256},
                                           std::uint64_t{4096}),
                         [](const auto& info) {
                           return "regions_of_" +
                                  std::to_string(info.param);
                         });

}  // namespace
}  // namespace pdc
