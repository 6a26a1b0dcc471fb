// QueryCheck: property-based differential testing across all query paths,
// plus pinned regression tests for the bugs the harness originally found.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <vector>

#include "bitmap/binned_index.h"
#include "common/interval.h"
#include "histogram/histogram.h"
#include "kernels/kernels.h"
#include "obj/object_store.h"
#include "pfs/pfs.h"
#include "query/planner.h"
#include "query/query.h"
#include "sortrep/sorted_replica.h"
#include "testing/invariants.h"
#include "testing/joincheck.h"
#include "testing/querycheck.h"

namespace pdc::testing {
namespace {

std::string test_temp_root() {
  return ::testing::TempDir() + "/querycheck_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

RunOptions fast_options() {
  RunOptions options = RunOptions::all_paths();
  options.temp_root = test_temp_root();
  return options;
}

// ------------------------------------------------------------------ smoke

// The headline property: every strategy, the degraded mode and the data
// fetch paths agree bit-identically with the element-wise oracle on
// generated datasets and queries.  PDC_QC_CASES / PDC_QC_SEED override the
// defaults (that is how the extended suite and failure replays run).
TEST(QueryCheck, AllPathsAgreeWithOracle) {
  RunOptions options = fast_options();
  const Status status = run_querycheck(/*base_seed=*/1, /*num_cases=*/20,
                                       options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Pinned from the kernel-backend sweep added with the SIMD layer.  The
// query bound 1 + 1e-12 is not representable in float — every stored
// float is either <= 1.0 or >= nextafter(1,2) — and the sorted strategy's
// binary search cast the double bound to float with round-to-nearest:
// `key < 1.0 + 1e-12` searched for 1.0f and dropped the elements equal to
// 1.0 (PDC-SH returned 2 of the oracle's 5 hits, on BOTH backends — a
// shared-path bug, not SIMD divergence).  sorted_range now rounds the
// bound to the element domain directionally (smallest/largest
// representable key on the correct side).  The scan-kernel half of the
// same property lives in kernels_test (FloatBoundsNotRepresentableInFloat);
// this pins it end-to-end across the full strategy matrix, explicitly on
// each backend so a failure names the backend directly.
TEST(QueryCheckRegression, DoubleDomainBoundsOnEveryBackend) {
  Case c;
  c.seed = 3;
  c.dataset.names = {"key"};
  c.dataset.region_size_bytes = 512;
  c.dataset.columns = {{0.5f, 1.0f, 1.0f, 2.0f, 3.0f, 1.0f, 0.0f, 4.0f}};
  QuerySpec q;
  q.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kGT, 1.0 + 1e-12}}});
  c.queries.push_back(q);
  QuerySpec q2;  // and the mirrored upper bound
  q2.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kLT, 1.0 + 1e-12}}});
  c.queries.push_back(q2);

  for (const kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    const kernels::ScopedBackend scoped(backend);
    RunOptions options = fast_options();
    auto result = run_case(c, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->has_value())
        << kernels::backend_name(kernels::active_backend()) << ": "
        << (*result)->path << ": " << (*result)->detail;
  }
}

// -------------------------------------------------------------- write mode

// The write-path headline property: with mutations interleaved between
// queries — appends and overwrites through the full kTransferWrite RPC
// path, with incremental maintenance of histograms, the delta-WAH index
// sidecar and the sorted-replica delta log — every strategy plus the
// degraded mode must stay bit-identical to the element-wise oracle after
// EVERY mutation prefix.  Maintenance thresholds (compaction, replica
// rebuild) are seed-derived so the battery cycles disabled / aggressive /
// threshold-crossing coverage; PDC_QC_CASES / PDC_QC_SEED replay as in
// the read-only suite, PDC_QC_COMPACT / PDC_QC_REBUILD pin the knobs.
TEST(QueryCheckWrites, AllPathsAgreeAfterEveryPrefix) {
  RunOptions options = fast_options();
  options.write_interleaved = true;
  const Status status = run_querycheck(/*base_seed=*/1001, /*num_cases=*/10,
                                       options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Pinned end-to-end: an overwrite whose replacement values fall outside
// the region's indexed range cannot be absorbed into the delta-WAH
// sidecar; the region must be marked stale and served by scan fallback —
// on every strategy — until a compaction rebuild (disabled here) folds it.
TEST(QueryCheckWrites, OutOfRangeOverwriteFallsBackToScan) {
  Case c;
  c.seed = 7;
  c.dataset.names = {"key"};
  c.dataset.region_size_bytes = 64;  // 16 floats per region, 4 regions
  std::vector<float> key;
  for (int i = 0; i < 64; ++i) {
    key.push_back(static_cast<float>(i) / 64.0f);
  }
  c.dataset.columns.push_back(std::move(key));

  OpSpec before;  // baseline prefix: fresh indexes answer this one
  before.query.terms.push_back(
      TermSpec{{LeafSpec{0, QueryOp::kGT, 0.5}}});
  c.ops.push_back(before);

  OpSpec write;  // 9.5 / -3.0 lie outside [0, ~1): delta-WAH must reject
  write.is_write = true;
  write.write.column = 0;
  write.write.extent = {5, 2};
  write.write.values = {{9.5f, -3.0f}};
  c.ops.push_back(write);

  OpSpec after;  // the new out-of-range value must be found by the scan
  after.query.terms.push_back(
      TermSpec{{LeafSpec{0, QueryOp::kGT, 0.5}}});
  c.ops.push_back(after);

  RunOptions options = fast_options();
  options.compact_threshold = 0;          // keep the region stale
  options.replica_rebuild_threshold = 0;  // keep the delta log pending
  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->has_value())
      << (*result)->path << ": " << (*result)->detail;
}

// Write-mode harness acceptance: a silently corrupted base index must
// still be caught when reads combine it with the delta sidecar, and the
// shrinker must minimize over the COMBINED op sequence (the irrelevant
// write op gets dropped, the dataset still halves).
TEST(QueryCheckWritesSanity, CatchesCorruptionAndShrinksOpSequence) {
  Case c;
  c.seed = 0;
  c.dataset.names = {"key"};
  c.dataset.region_size_bytes = 128;  // 32 floats per region, 8 regions
  std::vector<float> key;
  for (int i = 0; i < 256; ++i) {
    key.push_back(static_cast<float>(i + 1) / 512.0f);
  }
  c.dataset.columns.push_back(std::move(key));

  OpSpec write;  // interior values: absorbed into region 1's delta sidecar
  write.is_write = true;
  write.write.column = 0;
  write.write.extent = {40, 4};
  write.write.values = {{0.25f, 0.26f, 0.27f, 0.28f}};
  c.ops.push_back(write);
  OpSpec probe;  // region 0 stays partial: the corrupted bins get probed
  probe.query.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kGT, 0.015},
                                        LeafSpec{0, QueryOp::kLT, 0.35}}});
  c.ops.push_back(probe);

  RunOptions options;
  options.temp_root = test_temp_root();
  options.strategies = {server::Strategy::kFullScan,
                        server::Strategy::kHistogramIndex};
  options.degraded = false;
  options.compact_threshold = 0;  // a compaction rebuild would heal it
  options.replica_rebuild_threshold = 0;
  options.post_build = [](obj::ObjectStore& store,
                          const std::vector<ObjectId>& ids) {
    return corrupt_region_index(store, ids.front(), 0);
  };

  // Control: without the corruption the whole op sequence passes.
  {
    RunOptions clean = options;
    clean.post_build = nullptr;
    auto result = run_case(c, clean);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->has_value())
        << (*result)->path << ": " << (*result)->detail;
  }

  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_value())
      << "corrupted base index was not detected through the delta combine";
  EXPECT_EQ((*result)->path, "PDC-HI");

  const ShrinkResult shrunk = shrink(c, [&options](const Case& candidate) {
    auto r = run_case(candidate, options);
    return r.ok() && r->has_value();
  });
  EXPECT_GT(shrunk.accepted_steps, 0u);
  EXPECT_LE(shrunk.minimal.ops.size(), 1u)
      << "irrelevant write op not dropped: " << describe_case(shrunk.minimal);
  EXPECT_LT(shrunk.minimal.dataset.size(), 256u);
  auto replay = run_case(shrunk.minimal, options);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->has_value());
}

// The oracle model replay is the write-mode ground truth; pin its
// semantics: appends extend every column, overwrites replace in place,
// and ill-fitting writes are rejected without touching the model.
TEST(QueryCheckWrites, ModelReplaySemantics) {
  Dataset d;
  d.names = {"key", "aux"};
  d.columns = {{1.0f, 2.0f}, {3.0f, 4.0f}};

  WriteSpec append;
  append.is_append = true;
  append.values = {{5.0f}, {6.0f}};
  EXPECT_TRUE(apply_write_model(d, append));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.columns[0][2], 5.0f);
  EXPECT_EQ(d.columns[1][2], 6.0f);

  WriteSpec over;
  over.column = 1;
  over.extent = {1, 2};
  over.values = {{7.0f, 8.0f}};
  EXPECT_TRUE(apply_write_model(d, over));
  EXPECT_EQ(d.columns[1][1], 7.0f);
  EXPECT_EQ(d.columns[1][2], 8.0f);
  EXPECT_EQ(d.columns[0][1], 2.0f);  // other column untouched

  const Dataset snapshot = d;
  WriteSpec bad;  // extent past the end: rejected, model untouched
  bad.column = 0;
  bad.extent = {2, 2};
  bad.values = {{9.0f, 9.0f}};
  EXPECT_FALSE(apply_write_model(d, bad));
  WriteSpec ragged;  // column-count mismatch: rejected
  ragged.is_append = true;
  ragged.values = {{1.0f}};
  EXPECT_FALSE(apply_write_model(d, ragged));
  EXPECT_TRUE(d == snapshot);
}

// ------------------------------------------------------------- invariants

TEST(QueryCheckInvariants, WahAlgebraAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const std::uint64_t num_bits = 1 + (seed * 977) % 5000;
    const Status status = check_wah_random_algebra(seed, num_bits);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
  }
  // Sizes that land exactly on word boundaries.
  for (const std::uint64_t num_bits : {31ull, 62ull, 31ull * 64, 1ull}) {
    const Status status = check_wah_random_algebra(99, num_bits);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

TEST(QueryCheckInvariants, HistogramMergeLawsAcrossSeeds) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Status status = check_histogram_merge_laws(seed);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.ToString();
  }
}

// --------------------------------------------------- sanity: finds planted bugs

// Acceptance check for the harness itself: silently corrupt one region's
// bitmap index, and QueryCheck must (a) catch the divergence and (b)
// shrink the failing case to at most two regions.
TEST(QueryCheckSanity, CatchesInjectedIndexCorruptionAndShrinks) {
  Case c;
  c.seed = 0;
  c.dataset.names = {"key"};
  c.dataset.region_size_bytes = 128;  // 32 floats per region, 8 regions
  std::vector<float> key;
  for (int i = 0; i < 256; ++i) {
    key.push_back(static_cast<float>(i + 1) / 512.0f);
  }
  c.dataset.columns.push_back(std::move(key));
  // Leaves region 0 PARTIAL (its min 0.002 < 0.015), so the index path
  // must actually probe the corrupted bins instead of taking the
  // histogram-covers fast path.
  QuerySpec q;
  q.terms.push_back(
      TermSpec{{LeafSpec{0, QueryOp::kGT, 0.015},
                LeafSpec{0, QueryOp::kLT, 0.35}}});
  c.queries.push_back(q);

  RunOptions options;
  options.temp_root = test_temp_root();
  options.strategies = {server::Strategy::kFullScan,
                        server::Strategy::kHistogramIndex};
  options.degraded = false;
  options.check_invariants = false;
  options.post_build = [](obj::ObjectStore& store,
                          const std::vector<ObjectId>& ids) {
    return corrupt_region_index(store, ids.front(), 0);
  };

  // Control: without corruption the case passes.
  {
    RunOptions clean = options;
    clean.post_build = nullptr;
    auto result = run_case(c, clean);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->has_value())
        << (*result)->path << ": " << (*result)->detail;
  }

  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->has_value())
      << "corrupted index was not detected as a mismatch";
  EXPECT_EQ((*result)->path, "PDC-HI");

  const ShrinkResult shrunk = shrink(c, [&options](const Case& candidate) {
    auto r = run_case(candidate, options);
    return r.ok() && r->has_value();
  });
  EXPECT_GT(shrunk.accepted_steps, 0u);
  const std::uint64_t per_region =
      std::max<std::uint64_t>(1, shrunk.minimal.dataset.region_size_bytes / 4);
  const std::uint64_t regions =
      (shrunk.minimal.dataset.size() + per_region - 1) / per_region;
  EXPECT_LE(regions, 2u) << describe_case(shrunk.minimal);
  EXPECT_LT(shrunk.minimal.dataset.size(), 256u);
  // The minimal case still reproduces.
  auto replay = run_case(shrunk.minimal, options);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->has_value());
}

// ------------------------------------- pinned regressions (harness finds)

// NaN must satisfy no range condition on any path.  ValueInterval::contains
// previously returned true for NaN on one-sided intervals because the
// negated comparisons (v < lo || v > hi) are all false for NaN.
TEST(QueryCheckRegression, NanSatisfiesNoInterval) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const QueryOp op : {QueryOp::kGT, QueryOp::kGTE, QueryOp::kLT,
                           QueryOp::kLTE, QueryOp::kEQ}) {
    EXPECT_FALSE(ValueInterval::from_op(op, 2.0).contains(nan))
        << query_op_name(op);
  }
  EXPECT_FALSE(ValueInterval{}.contains(nan));  // whole-line interval
}

// The binned index treats open lower bounds that align with a bin edge as
// "bin fully covered" (value-at-edge is measure zero for continuous data).
// That is unsound when an indexed value sits EXACTLY on the edge: for
// `key > 2.5` with 2.5 stored, the at-edge elements were reported as
// definite hits.  Probe soundness must hold regardless:
//   definite ⊆ truth ⊆ definite ∪ candidates.
TEST(QueryCheckRegression, ProbeSoundAtExactBinEdges) {
  std::vector<float> data;
  for (int rep = 0; rep < 8; ++rep) {
    for (int k = 20; k <= 36; ++k) {
      data.push_back(static_cast<float>(k) / 10.0f);  // 2.0, 2.1, ..., 3.6
    }
  }
  const bitmap::BinnedBitmapIndex index =
      bitmap::BinnedBitmapIndex::Build<float>(data);

  for (const double edge : {2.5, 3.0, 2.1}) {
    for (const QueryOp op : {QueryOp::kGT, QueryOp::kGTE, QueryOp::kLT,
                             QueryOp::kLTE, QueryOp::kEQ}) {
      const ValueInterval interval = ValueInterval::from_op(op, edge);
      const bitmap::IndexProbe probe = index.probe(interval);
      std::vector<bool> is_definite(data.size()), is_candidate(data.size());
      for (const std::uint64_t p : probe.definite) is_definite[p] = true;
      for (const std::uint64_t p : probe.candidates) is_candidate[p] = true;
      for (std::size_t i = 0; i < data.size(); ++i) {
        const bool truth = interval.contains(static_cast<double>(data[i]));
        if (is_definite[i]) {
          EXPECT_TRUE(truth) << "false definite hit: " << data[i] << " "
                             << query_op_name(op) << " " << edge;
        }
        if (truth) {
          EXPECT_TRUE(is_definite[i] || is_candidate[i])
              << "missed hit: " << data[i] << " " << query_op_name(op) << " "
              << edge;
        }
      }
    }
  }
}

// Histogram construction previously hit UB on NaN (clamp of NaN then a
// NaN->size_t cast) and could anchor an infinite bin lattice on ±inf.
TEST(QueryCheckRegression, HistogramHandlesNanAndInf) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> data{1.0f, nan, 2.0f, inf, 3.0f, -inf, 4.0f, nan};
  const auto h = hist::MergeableHistogram::Build<float>(data);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.total_count(), data.size());
  EXPECT_EQ(h.nan_count(), 2u);

  // Estimates must stay sound in the presence of the specials.
  const ValueInterval all = ValueInterval{};  // whole line
  const auto est = h.estimate(all);
  EXPECT_LE(est.lower, 6u);   // 6 non-NaN elements actually match
  EXPECT_GE(est.upper, 6u);
  // covers() must refuse the all-hits shortcut: the NaN elements match
  // no interval, so "every element matches" is false.
  EXPECT_FALSE(h.covers(all));

  // All-NaN input must not crash and must never claim covers().
  std::vector<float> only_nan{nan, nan, nan};
  const auto hn = hist::MergeableHistogram::Build<float>(only_nan);
  EXPECT_EQ(hn.nan_count(), 3u);
  EXPECT_FALSE(hn.covers(all));
  EXPECT_EQ(hn.estimate(all).upper, 0u);
}

// The bitmap index previously binned NaN into the last bin (turning it
// into a false definite hit for wide queries) and fed non-finite values
// into the edge sampler.
TEST(QueryCheckRegression, IndexNeverMatchesNan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> data{1.0f, 2.0f, nan, 3.0f, nan, 4.0f};
  const auto index = bitmap::BinnedBitmapIndex::Build<float>(data);
  const ValueInterval wide = ValueInterval{};  // matches every real value
  const auto probe = index.probe(wide);
  for (const std::uint64_t p : probe.definite) {
    EXPECT_FALSE(std::isnan(data[p])) << "NaN reported as definite hit";
  }
  for (const std::uint64_t p : probe.candidates) {
    EXPECT_FALSE(std::isnan(data[p])) << "NaN reported as candidate";
  }
}

class StoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/querycheck_store_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    pfs::PfsConfig config;
    config.root_dir = root_;
    auto cluster = pfs::PfsCluster::Create(config);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);
    auto container = store_->create_container("c");
    ASSERT_TRUE(container.ok());
    container_ = *container;
  }

  void TearDown() override {
    store_.reset();
    cluster_.reset();
    std::filesystem::remove_all(root_);
  }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  ObjectId container_ = kInvalidObjectId;
};

// Sorting NaN with operator< is UB (and the replica's binary search would
// be meaningless), so replica builds must reject NaN sources outright.
TEST_F(StoreFixture, SortedReplicaRejectsNan) {
  std::vector<float> data{3.0f, std::numeric_limits<float>::quiet_NaN(),
                          1.0f};
  auto id = store_->import_object<float>(container_, "v", data, {});
  ASSERT_TRUE(id.ok());
  const auto report = sortrep::build_sorted_replica(*store_, *id);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// A NaN query constant compares false against everything in a scan but
// breaks histogram pruning and replica binary search in path-dependent
// ways; the planner now rejects it up front.
TEST_F(StoreFixture, PlannerRejectsNanConstant) {
  std::vector<float> data{1.0f, 2.0f, 3.0f};
  auto id = store_->import_object<float>(container_, "v", data, {});
  ASSERT_TRUE(id.ok());
  const query::QueryPtr q = query::create(
      *id, QueryOp::kGT, std::numeric_limits<double>::quiet_NaN());
  const auto plan = query::plan_query(*q, *store_, {});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

// Importing an empty object is rejected cleanly (the harness relies on
// this contract instead of generating empty datasets).
TEST_F(StoreFixture, EmptyImportRejected) {
  const std::vector<float> empty;
  const auto id = store_->import_object<float>(container_, "e", empty, {});
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

// Pinned from PDC_QC_SEED=16 (found by the 20-case smoke run): under the
// sorted strategy, a multi-term OR whose first term was answered by the
// extents-only fast path lost that term's hits entirely — eval() merges
// ORs on positions and discards extents, but the fast path had never
// materialized positions.  Minimal shrunk case: one element, query
// `(key > lo) OR (b > hi)` where only the sorted-driver term matches.
TEST(QueryCheckRegression, SortedOrTermNotDropped) {
  Case c;
  c.seed = 16;
  c.dataset.names = {"key", "b"};
  c.dataset.region_size_bytes = 512;
  c.dataset.columns = {{0.0f}, {1.0f}};
  QuerySpec q;
  q.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kGT, -82.6827}}});
  q.terms.push_back(TermSpec{{LeafSpec{1, QueryOp::kGT, 28.292}}});
  c.queries.push_back(q);

  RunOptions options = fast_options();
  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->has_value())
      << (*result)->path << ": " << (*result)->detail;
}

// Also pinned from PDC_QC_SEED=16: OR-terms whose drivers are different
// objects are evaluated on different servers, and the client summed the
// per-server hit counts — an element satisfying both terms was counted on
// both servers (n=2 reported 3 hits).  The union must be deduplicated.
TEST(QueryCheckRegression, CrossServerOrUnionDeduplicated) {
  Case c;
  c.seed = 16;
  c.dataset.names = {"key", "b"};
  c.dataset.region_size_bytes = 512;
  c.dataset.columns = {{0.0f, 1.0f}, {100.0f, 1.0f}};
  QuerySpec q;
  // Element 0 satisfies both terms; element 1 only the first.
  q.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kGT, -1.0}}});
  q.terms.push_back(TermSpec{{LeafSpec{1, QueryOp::kGT, 50.0}}});
  c.queries.push_back(q);

  RunOptions options = fast_options();
  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->has_value())
      << (*result)->path << ": " << (*result)->detail;
}

// Pinned from PDC_QC_SEED=97: under the sorted strategy with a region
// constraint, servers filtered their POSITIONS by the constraint but still
// returned the unconstrained replica-space extents; a server whose entire
// share was filtered out reported the extent counts as phantom hits.
// Layout: 34 matching elements spanning both replica regions, constraint
// [10,16) that excludes the second region's share entirely.
TEST(QueryCheckRegression, SortedRegionConstraintDropsExtents) {
  Case c;
  c.seed = 97;
  c.dataset.names = {"key"};
  c.dataset.region_size_bytes = 128;  // 32 floats per region, 2 regions
  std::vector<float> key(35, -10.0f);
  key[0] = 10.0f;  // the only non-match, sorted to the replica's tail
  c.dataset.columns = {key};
  QuerySpec q;
  q.terms.push_back(TermSpec{{LeafSpec{0, QueryOp::kLTE, -5.0}}});
  q.region = {10, 6};
  c.queries.push_back(q);

  RunOptions options = fast_options();
  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->has_value())
      << (*result)->path << ": " << (*result)->detail;
}

// End-to-end pin for the all-hits shortcut: a region whose histogram range
// is covered by the query but which contains NaN elements must not be
// accepted wholesale.  All paths and the oracle agree on this dataset.
TEST(QueryCheckRegression, NanRegionNotAcceptedWholesale) {
  Case c;
  c.seed = 0;
  c.dataset.names = {"key", "special"};
  c.dataset.region_size_bytes = 64;  // 16 floats per region
  std::vector<float> key, special;
  for (int i = 0; i < 64; ++i) {
    key.push_back(static_cast<float>(i));
    special.push_back(i % 5 == 0 ? std::numeric_limits<float>::quiet_NaN()
                                 : static_cast<float>(i % 7));
  }
  c.dataset.columns = {key, special};
  // Covers the whole finite range of "special": the buggy shortcut
  // returned NaN positions as hits.
  QuerySpec q;
  q.terms.push_back(TermSpec{{LeafSpec{1, QueryOp::kGTE, -1.0e30}}});
  c.queries.push_back(q);

  RunOptions options = fast_options();
  options.degraded = false;
  auto result = run_case(c, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->has_value())
      << (*result)->path << ": " << (*result)->detail;
}

// ------------------------------------------------------------- join check

// The join headline property: zone-shuffle and broadcast, at every server
// count, pool width and candidate-production strategy in the sweep, return
// byte-identical pairs equal to the nested-loop oracle on adversarial
// two-catalog cases (exact zone edges, |va-vb| == epsilon boundaries,
// duplicates, non-finite values, negative zones, pre-filters).  The
// extended configuration re-runs this at PDC_QC_CASES=200.
TEST(JoinCheck, BothShuffleStrategiesAgreeWithOracle) {
  JoinRunOptions options;
  options.temp_root = test_temp_root();
  const Status status =
      run_joincheck(/*base_seed=*/1, /*num_cases=*/12, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Concurrent mode: 2 and 4 joins in flight on one 4-server service, at
// pool widths 1 and 4.  Join epochs share the pool and the exchange ports;
// none may wait on another (a blocked epoch would miss its shuffle
// deadline and re-run), and every join must return the serial pairs in
// its first epoch.
TEST(JoinCheck, ConcurrentJoinsMatchSerialInFirstEpoch) {
  JoinRunOptions options;
  options.temp_root = test_temp_root();
  options.server_counts = {4};
  options.eval_strategies = {server::Strategy::kHistogram};
  options.concurrent = true;
  const Status status =
      run_joincheck(/*base_seed=*/101, /*num_cases=*/6, options);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Harness sanity: the oracle itself honors the exact inclusive predicate
// and the skip-non-finite rule, and the two-catalog shrinker converges to
// a minimal failing case.
TEST(JoinCheckSanity, OracleSemanticsAndShrinkerConverge) {
  JoinCase c;
  c.epsilon = 0.5;
  c.zone_height = 1.0;
  c.a = {0.0, 10.0, std::numeric_limits<double>::quiet_NaN(),
         std::numeric_limits<double>::infinity()};
  c.b = {0.5,  // exactly epsilon away: inclusive boundary -> pair
         std::nextafter(0.5, 1.0),  // one ulp past: no pair
         10.0, std::numeric_limits<double>::quiet_NaN()};
  const auto pairs = join_oracle(c);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].left_pos, 0u);
  EXPECT_EQ(pairs[0].right_pos, 0u);
  EXPECT_EQ(pairs[1].left_pos, 1u);
  EXPECT_EQ(pairs[1].right_pos, 2u);

  // Filters narrow the oracle with ValueInterval semantics.
  c.filter_a = ValueInterval::from_op(QueryOp::kGT, 0.0);
  EXPECT_EQ(join_oracle(c).size(), 1u);

  // Shrinker: against a synthetic predicate ("some a value equals some b
  // value"), a big case collapses to one element per side.
  JoinGen gen(0xD1FFu);
  JoinCase big = gen.draw_case();
  big.a.push_back(42.25);
  big.b.push_back(42.25);
  const auto pred = [](const JoinCase& candidate) {
    for (const double va : candidate.a) {
      for (const double vb : candidate.b) {
        if (va == vb) return true;
      }
    }
    return false;
  };
  const JoinShrinkResult shrunk = shrink_join(big, pred, /*max_attempts=*/600);
  EXPECT_TRUE(pred(shrunk.minimal));
  EXPECT_LE(shrunk.minimal.a.size(), 2u);
  EXPECT_LE(shrunk.minimal.b.size(), 2u);
}

}  // namespace
}  // namespace pdc::testing
