// Unit tests for the common substrate: Status/Result, serialization,
// intervals, RNG determinism, thread pool, cost ledger, ascending-run
// merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/interval.h"
#include "common/merge_runs.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/exec_pool.h"
#include "common/status.h"
#include "common/types.h"

namespace pdc {
namespace {

// ---------------------------------------------------------------- Status

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("object 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "object 42");
  EXPECT_EQ(s.ToString(), "NotFound: object 42");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(status_code_name(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::IoError("disk");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

Status helper_propagates(bool fail) {
  PDC_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::Ok();
}

TEST(Result, ReturnIfErrorMacro) {
  EXPECT_TRUE(helper_propagates(false).ok());
  EXPECT_EQ(helper_propagates(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Types

TEST(Types, SizesMatchCxxTypes) {
  EXPECT_EQ(pdc_type_size(PdcType::kFloat), sizeof(float));
  EXPECT_EQ(pdc_type_size(PdcType::kDouble), sizeof(double));
  EXPECT_EQ(pdc_type_size(PdcType::kInt64), sizeof(std::int64_t));
  EXPECT_EQ(kPdcTypeOf<float>, PdcType::kFloat);
  EXPECT_EQ(kPdcTypeOf<std::uint64_t>, PdcType::kUInt64);
}

TEST(Types, EvalOpAllOperators) {
  EXPECT_TRUE(eval_op(2.0, QueryOp::kGT, 1.0));
  EXPECT_FALSE(eval_op(1.0, QueryOp::kGT, 1.0));
  EXPECT_TRUE(eval_op(1.0, QueryOp::kGTE, 1.0));
  EXPECT_TRUE(eval_op(0.5, QueryOp::kLT, 1.0));
  EXPECT_FALSE(eval_op(1.0, QueryOp::kLT, 1.0));
  EXPECT_TRUE(eval_op(1.0, QueryOp::kLTE, 1.0));
  EXPECT_TRUE(eval_op(3, QueryOp::kEQ, 3));
  EXPECT_FALSE(eval_op(3, QueryOp::kEQ, 4));
}

TEST(Types, Extent1DIntersect) {
  Extent1D a{10, 20};  // [10, 30)
  Extent1D b{25, 10};  // [25, 35)
  Extent1D c = a.intersect(b);
  EXPECT_EQ(c.offset, 25u);
  EXPECT_EQ(c.count, 5u);
  Extent1D d{40, 5};
  EXPECT_TRUE(a.intersect(d).empty());
  EXPECT_TRUE(a.contains(10));
  EXPECT_FALSE(a.contains(30));
}

// ---------------------------------------------------------------- Interval

TEST(ValueInterval, FromOp) {
  auto gt = ValueInterval::from_op(QueryOp::kGT, 2.0);
  EXPECT_FALSE(gt.contains(2.0));
  EXPECT_TRUE(gt.contains(2.0000001));
  auto lte = ValueInterval::from_op(QueryOp::kLTE, 2.0);
  EXPECT_TRUE(lte.contains(2.0));
  EXPECT_FALSE(lte.contains(2.1));
  auto eq = ValueInterval::from_op(QueryOp::kEQ, 5.0);
  EXPECT_TRUE(eq.contains(5.0));
  EXPECT_FALSE(eq.contains(5.0001));
  EXPECT_FALSE(eq.empty());
}

TEST(ValueInterval, IntersectFormsRange) {
  auto gt = ValueInterval::from_op(QueryOp::kGT, 1.0);
  auto lt = ValueInterval::from_op(QueryOp::kLT, 2.0);
  auto range = gt.intersect(lt);
  EXPECT_TRUE(range.contains(1.5));
  EXPECT_FALSE(range.contains(1.0));
  EXPECT_FALSE(range.contains(2.0));
  EXPECT_FALSE(range.empty());
}

TEST(ValueInterval, EmptyDetection) {
  auto lt = ValueInterval::from_op(QueryOp::kLT, 1.0);
  auto gt = ValueInterval::from_op(QueryOp::kGT, 2.0);
  EXPECT_TRUE(lt.intersect(gt).empty());
  // Touching open endpoints: (1, 1) is empty.
  auto gt1 = ValueInterval::from_op(QueryOp::kGT, 1.0);
  auto lt1 = ValueInterval::from_op(QueryOp::kLT, 1.0);
  EXPECT_TRUE(gt1.intersect(lt1).empty());
  // [1,1] is not empty.
  auto gte = ValueInterval::from_op(QueryOp::kGTE, 1.0);
  auto lte = ValueInterval::from_op(QueryOp::kLTE, 1.0);
  EXPECT_FALSE(gte.intersect(lte).empty());
}

TEST(ValueInterval, OverlapsClosed) {
  auto q = ValueInterval::from_op(QueryOp::kGT, 5.0);
  EXPECT_FALSE(q.overlaps_closed(1.0, 5.0));   // max == open bound
  EXPECT_TRUE(q.overlaps_closed(1.0, 5.1));
  auto qe = ValueInterval::from_op(QueryOp::kGTE, 5.0);
  EXPECT_TRUE(qe.overlaps_closed(1.0, 5.0));
  EXPECT_TRUE(q.covers_closed(6.0, 7.0));
  EXPECT_FALSE(q.covers_closed(5.0, 7.0));
}

// ---------------------------------------------------------------- Serial

TEST(Serial, RoundTripScalarsAndStrings) {
  SerialWriter w;
  w.put<std::uint32_t>(0xDEADBEEF);
  w.put<double>(3.25);
  w.put_string("hello");
  w.put_vector(std::vector<std::uint64_t>{1, 2, 3});

  auto bytes = w.take();
  SerialReader r(bytes);
  std::uint32_t u = 0;
  double d = 0;
  std::string s;
  std::vector<std::uint64_t> v;
  ASSERT_TRUE(r.get(u).ok());
  ASSERT_TRUE(r.get(d).ok());
  ASSERT_TRUE(r.get_string(s).ok());
  ASSERT_TRUE(r.get_vector(v).ok());
  EXPECT_EQ(u, 0xDEADBEEF);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, EmptyVectorRoundTrips) {
  // A never-filled vector has no storage (data() is null): reading an
  // empty vector into it must not hand that null pointer to memcpy.
  SerialWriter w;
  w.put_vector(std::vector<float>{});
  w.put<std::uint32_t>(7);
  auto bytes = w.take();
  SerialReader r(bytes);
  std::vector<float> v;
  std::uint32_t tail = 0;
  ASSERT_TRUE(r.get_vector(v).ok());
  ASSERT_TRUE(r.get(tail).ok());
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(tail, 7u);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serial, UnderrunIsCorruptionNotCrash) {
  SerialWriter w;
  w.put<std::uint16_t>(7);
  auto bytes = w.take();
  SerialReader r(bytes);
  std::uint64_t big = 0;
  EXPECT_EQ(r.get(big).code(), StatusCode::kCorruption);
}

TEST(Serial, MaliciousLengthPrefixRejected) {
  SerialWriter w;
  w.put<std::uint64_t>(~0ull);  // vector length prefix claiming 2^64-1 elems
  auto bytes = w.take();
  SerialReader r(bytes);
  std::vector<std::uint64_t> v;
  EXPECT_EQ(r.get_vector(v).code(), StatusCode::kCorruption);
}

TEST(Serial, BytesViewBorrowsWithoutCopy) {
  SerialWriter w;
  std::vector<std::uint8_t> blob{1, 2, 3, 4};
  w.put_bytes(blob);
  auto bytes = w.take();
  SerialReader r(bytes);
  std::span<const std::uint8_t> view;
  ASSERT_TRUE(r.get_bytes_view(view).ok());
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view.data(), bytes.data() + sizeof(std::uint64_t));
}

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BoundedNoModuloEscape) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.bounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues reached
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(3);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllTasks) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) {
    group.spawn([&count] { ++count; });
  }
  group.wait();
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  exec::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  exec::parallel_for(&pool, 1000, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  exec::ThreadPool pool(2);
  exec::parallel_for(&pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

// ------------------------------------------------------------ Run merge

using Runs = std::vector<std::vector<std::uint64_t>>;

TEST(MergeAscendingRuns, NoRunsAndEmptyRunsYieldNothing) {
  std::vector<std::uint64_t> out{7, 8};  // replaced, not appended to
  ASSERT_TRUE(merge_ascending_runs(Runs{}, out).ok());
  EXPECT_TRUE(out.empty());
  out = {7};
  ASSERT_TRUE(merge_ascending_runs(Runs{{}, {}, {}}, out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(MergeAscendingRuns, SingleRunIsCopied) {
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(merge_ascending_runs(Runs{{}, {0, 3, 9, 1ull << 40}}, out).ok());
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 3, 9, 1ull << 40}));
}

TEST(MergeAscendingRuns, InterleavedRunsMergeAscending) {
  // Round-robin region blocks, the shape of per-server responses.
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(merge_ascending_runs(
                  Runs{{0, 1, 2, 12, 13}, {4, 5, 16}, {8, 9, 10, 11}}, out)
                  .ok());
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2, 4, 5, 8, 9, 10, 11, 12,
                                             13, 16}));
}

TEST(MergeAscendingRuns, ValuesInSeveralRunsAreEmittedOnce) {
  // The multi-term OR: one element can satisfy two terms.
  std::vector<std::uint64_t> out;
  ASSERT_TRUE(
      merge_ascending_runs(Runs{{1, 4, 6, 9}, {4, 5, 9}, {0, 4, 9, 10}}, out)
          .ok());
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 4, 5, 6, 9, 10}));
}

TEST(MergeAscendingRuns, MatchesSortUniqueOnRandomRuns) {
  Rng rng(0x3E6);
  for (int trial = 0; trial < 50; ++trial) {
    Runs runs(1 + rng.bounded(6));
    std::vector<std::uint64_t> expected;
    for (auto& run : runs) {
      std::set<std::uint64_t> values;
      const std::uint64_t n = rng.bounded(40);
      for (std::uint64_t i = 0; i < n; ++i) values.insert(rng.bounded(200));
      run.assign(values.begin(), values.end());
      expected.insert(expected.end(), run.begin(), run.end());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    std::vector<std::uint64_t> out;
    ASSERT_TRUE(merge_ascending_runs(runs, out).ok()) << "trial " << trial;
    EXPECT_EQ(out, expected) << "trial " << trial;
  }
}

TEST(MergeAscendingRuns, RunsOutOfOrderAreRejected) {
  std::vector<std::uint64_t> out;
  // A descending run, alone and beside well-formed runs.
  Status s = merge_ascending_runs(Runs{{5, 3}}, out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  s = merge_ascending_runs(Runs{{1, 2, 3}, {9, 7, 8}, {4}}, out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("run 1"), std::string::npos) << s.message();
  // The disorder sits past another run's head (found while skipping a
  // duplicate) or at the very end of a run.
  EXPECT_EQ(merge_ascending_runs(Runs{{2, 1}, {2}}, out).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(merge_ascending_runs(Runs{{1, 2, 3, 0}, {10}}, out).code(),
            StatusCode::kCorruption);
  // Strictly ascending: a value repeated inside one run is out of order.
  EXPECT_EQ(merge_ascending_runs(Runs{{4, 4}}, out).code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------- Cost model

TEST(CostLedger, AccumulatesAndMerges) {
  CostLedger a, b;
  a.add_io(1.0);
  a.add_cpu(0.5);
  b.add_net(0.25);
  b.add_bytes_read(100);
  b.add_read_ops(2);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 1.75);
  EXPECT_EQ(a.bytes_read(), 100u);
  EXPECT_EQ(a.read_ops(), 2u);
  a.reset();
  EXPECT_DOUBLE_EQ(a.total_seconds(), 0.0);
}

TEST(CostModel, NetCostScalesWithBytes) {
  CostModel m;
  EXPECT_GT(m.net_cost(1 << 20), m.net_cost(0));
  EXPECT_DOUBLE_EQ(m.net_cost(0), m.net_latency_s);
  EXPECT_GT(m.scan_cost(1 << 20), 0.0);
}

}  // namespace
}  // namespace pdc
