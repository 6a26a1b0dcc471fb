// Chaos tests: the query service must return exactly the fault-free answer
// under seeded fault plans (drops, delays, duplicates, corruption, server
// kills/stalls) — only slower — and must surface kUnavailable rather than
// hang when every server is dead.  The no-hang guarantee is enforced twice:
// by the client's deadline-bounded retries, and by the ctest TIMEOUT set on
// every test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/trace.h"
#include "query/service.h"
#include "rpc/fault.h"
#include "sortrep/sorted_replica.h"
#include "testing/invariants.h"
#include "workloads/boss.h"

namespace pdc {
namespace {

rpc::RetryPolicy tight_retry() {
  rpc::RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(100);
  policy.max_attempts = 4;
  policy.backoff_base = std::chrono::milliseconds(2);
  policy.backoff_cap = std::chrono::milliseconds(20);
  return policy;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/chaos_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);
    const ObjectId container =
        std::move(store_->create_container("c")).value();
    Rng rng(7);
    data_.resize(40000);
    for (auto& v : data_) v = static_cast<float>(rng.uniform(0.0, 10.0));
    obj::ImportOptions options;
    options.region_size_bytes = 4096;  // 40 regions across 4 servers
    object_ = std::move(store_->import_object<float>(
                            container, "v", std::span<const float>(data_),
                            options))
                  .value();
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// The mixed query batch: alternating count-only and selection queries
  /// over intervals of varying selectivity.
  [[nodiscard]] std::vector<std::pair<double, double>> intervals() const {
    return {{1.0, 9.0}, {4.5, 5.5}, {0.2, 0.3}, {7.9, 8.0}, {2.0, 6.0}};
  }

  query::QueryPtr make_query(double lo, double hi) const {
    return query::q_and(query::create(object_, QueryOp::kGT, lo),
                        query::create(object_, QueryOp::kLT, hi));
  }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  std::vector<float> data_;
  ObjectId object_ = kInvalidObjectId;
};

// Acceptance criterion: a seeded plan that kills 1 of 4 servers and
// drops/delays 10% of messages must change nothing about the answers —
// hit counts, positions AND fetched values — while OpStats shows nonzero
// retries and redispatched_regions.
TEST_F(ChaosTest, DegradedQueriesMatchFaultFreeBaseline) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);

  rpc::FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.10;
  plan.delay_rate = 0.10;
  plan.duplicate_rate = 0.05;
  plan.corrupt_rate = 0.05;
  plan.min_delay = std::chrono::milliseconds(1);
  plan.max_delay = std::chrono::milliseconds(10);
  plan.server_faults.push_back({/*server=*/2, /*after_requests=*/2,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);

  query::ServiceOptions faulty_options = clean_options;
  faulty_options.fault_injector = &injector;
  faulty_options.retry = tight_retry();
  query::QueryService service(*store_, faulty_options);

  std::uint64_t total_retries = 0;
  std::uint64_t total_redispatched = 0;
  bool use_count_only = true;
  for (const auto& [lo, hi] : intervals()) {
    const auto q = make_query(lo, hi);
    if (use_count_only) {
      auto want = baseline.get_num_hits(q);
      auto got = service.get_num_hits(q);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << "interval (" << lo << ", " << hi << ")";
    } else {
      auto want = baseline.get_selection(q);
      auto got = service.get_selection(q);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->num_hits, want->num_hits);
      EXPECT_EQ(got->positions, want->positions)
          << "interval (" << lo << ", " << hi << ")";
      // The data fetch must survive re-routing away from the dead server.
      std::vector<float> want_values(want->num_hits);
      std::vector<float> got_values(got->num_hits);
      ASSERT_TRUE(baseline
                      .get_data<float>(object_, *want,
                                       std::span<float>(want_values))
                      .ok());
      auto fetch = service.get_data<float>(object_, *got,
                                           std::span<float>(got_values));
      ASSERT_TRUE(fetch.ok()) << fetch.ToString();
      EXPECT_EQ(got_values, want_values);
      total_retries += service.last_stats().retries;
      total_redispatched += service.last_stats().redispatched_regions;
    }
    use_count_only = !use_count_only;
    total_retries += service.last_stats().retries;
    total_redispatched += service.last_stats().redispatched_regions;
  }
  // The killed server forces both retries and region redispatch.
  EXPECT_GT(total_retries, 0u);
  EXPECT_GT(total_redispatched, 0u);
  EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{2}));
  EXPECT_GT(injector.counters().dropped, 0u);
  EXPECT_EQ(injector.counters().servers_failed, 1u);
}

// Lossy-but-alive fleet: randomized drop/delay/duplicate/corrupt plans
// across several seeds never change a hit count.
TEST_F(ChaosTest, RandomizedLossPlansPreserveCounts) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  std::vector<std::uint64_t> want;
  for (const auto& [lo, hi] : intervals()) {
    want.push_back(*baseline.get_num_hits(make_query(lo, hi)));
  }

  for (const std::uint64_t seed : {1ull, 99ull, 2026ull}) {
    rpc::FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.15;
    plan.delay_rate = 0.15;
    plan.duplicate_rate = 0.10;
    plan.corrupt_rate = 0.10;
    plan.max_delay = std::chrono::milliseconds(8);
    rpc::FaultInjector injector(plan);
    query::ServiceOptions faulty_options = clean_options;
    faulty_options.fault_injector = &injector;
    faulty_options.retry = tight_retry();
    faulty_options.retry.max_attempts = 6;  // loss, no kills: always recover
    query::QueryService service(*store_, faulty_options);
    std::size_t i = 0;
    for (const auto& [lo, hi] : intervals()) {
      auto got = service.get_num_hits(make_query(lo, hi));
      ASSERT_TRUE(got.ok()) << "seed " << seed << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, want[i++]) << "seed " << seed;
    }
  }
}

// A stalled (wedged, never replying) server must degrade exactly like a
// killed one: correct answers, no hang.
TEST_F(ChaosTest, StalledServerDoesNotHangQueries) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);

  rpc::FaultPlan plan;
  plan.server_faults.push_back({/*server=*/1, /*after_requests=*/1,
                                rpc::ServerFate::kStalled});
  rpc::FaultInjector injector(plan);
  query::ServiceOptions faulty_options = clean_options;
  faulty_options.fault_injector = &injector;
  faulty_options.retry = tight_retry();
  query::QueryService service(*store_, faulty_options);

  for (const auto& [lo, hi] : intervals()) {
    const auto q = make_query(lo, hi);
    auto want = baseline.get_selection(q);
    auto got = service.get_selection(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->positions, want->positions);
  }
  EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{1}));
}

// When every server is dead the service must fail fast with kUnavailable
// instead of hanging forever (the seed behaviour).
TEST_F(ChaosTest, AllServersDeadReturnsUnavailable) {
  rpc::FaultPlan plan;
  for (ServerId s = 0; s < 4; ++s) {
    plan.server_faults.push_back({s, /*after_requests=*/0,
                                  rpc::ServerFate::kKilled});
  }
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 4;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  options.retry.attempt_timeout = std::chrono::milliseconds(50);
  options.retry.max_attempts = 2;
  query::QueryService service(*store_, options);

  auto result = service.get_num_hits(make_query(1.0, 9.0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.last_stats().dead_servers, 4u);

  // Later operations fail fast too — no RPC round trips are attempted.
  auto again = service.get_num_hits(make_query(4.0, 6.0));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kUnavailable);
}

// A server that dies between the selection and the data fetch: get_data
// re-routes its partition to a survivor and still returns correct bytes.
TEST_F(ChaosTest, GetDataReroutesWhenOwnerDiesMidSession) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto q = make_query(2.0, 6.0);
  auto want = baseline.get_selection(q);
  ASSERT_TRUE(want.ok());
  std::vector<float> want_values(want->num_hits);
  ASSERT_TRUE(baseline
                  .get_data<float>(object_, *want,
                                   std::span<float>(want_values))
                  .ok());

  // Server 3 answers the eval, then dies before the data fetch.
  rpc::FaultPlan plan;
  plan.server_faults.push_back({/*server=*/3, /*after_requests=*/1,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);
  query::ServiceOptions faulty_options = clean_options;
  faulty_options.fault_injector = &injector;
  faulty_options.retry = tight_retry();
  query::QueryService service(*store_, faulty_options);

  auto got = service.get_selection(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->positions, want->positions);
  std::vector<float> got_values(got->num_hits);
  auto fetch =
      service.get_data<float>(object_, *got, std::span<float>(got_values));
  ASSERT_TRUE(fetch.ok()) << fetch.ToString();
  EXPECT_EQ(got_values, want_values);
  EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{3}));
  EXPECT_GT(service.last_stats().redispatched_regions, 0u);
}

// Regression: in degraded mode one surviving server contributes TWO
// sorted_extents entries — its own round-1 answer plus the dead identity it
// covered in round 2.  The replica fetch must key response buffers per
// entry, not per sender; per-sender keying let the second response clobber
// the first, corrupting fetched values (and reading past the buffer when
// the entries differ in size).
TEST_F(ChaosTest, SortedReplicaFetchSurvivesDuplicateSenderEntries) {
  obj::ImportOptions options;
  options.region_size_bytes = 4096;
  ASSERT_TRUE(sortrep::build_sorted_replica(*store_, object_, options).ok());

  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  clean_options.strategy = server::Strategy::kSortedHistogram;
  query::QueryService baseline(*store_, clean_options);
  // Wide interval: every server identity owns part of the sorted range, so
  // the dead identity's extents are guaranteed non-empty.
  const auto q = make_query(1.0, 9.0);
  auto want = baseline.get_selection(q);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->num_hits, 0u);
  ASSERT_FALSE(want->sorted_extents.empty());
  std::vector<float> want_values(want->num_hits);
  ASSERT_TRUE(baseline
                  .get_data<float>(object_, *want,
                                   std::span<float>(want_values),
                                   query::GetDataMode::kFromReplica)
                  .ok());

  // Server 2 never answers: its identity is re-dispatched onto a survivor
  // that already produced an extents entry of its own.
  rpc::FaultPlan plan;
  plan.server_faults.push_back({/*server=*/2, /*after_requests=*/0,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);
  query::ServiceOptions faulty_options = clean_options;
  faulty_options.fault_injector = &injector;
  faulty_options.retry = tight_retry();
  query::QueryService service(*store_, faulty_options);

  auto got = service.get_selection(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->num_hits, want->num_hits);
  std::vector<int> entries_per_sender(4, 0);
  for (const auto& [sender, extents] : got->sorted_extents) {
    ++entries_per_sender[sender];
  }
  EXPECT_EQ(entries_per_sender[2], 0);  // the dead server answered nothing
  bool some_sender_twice = false;
  for (const int n : entries_per_sender) some_sender_twice |= n > 1;
  EXPECT_TRUE(some_sender_twice)
      << "degraded eval no longer produces duplicate-sender entries; "
         "this regression test needs a new trigger";

  std::vector<float> got_values(got->num_hits);
  auto fetch = service.get_data<float>(object_, *got,
                                       std::span<float>(got_values),
                                       query::GetDataMode::kFromReplica);
  ASSERT_TRUE(fetch.ok()) << fetch.ToString();
  EXPECT_EQ(got_values, want_values);
}

// Trace/fault interaction: a traced query against a deployment where one
// of two servers is dead from the start still produces one coherent span
// tree — every retry attempt gets its own span under the same trace, the
// dead server contributes nothing, and the redispatched region share shows
// up under the survivor's spans.  The span-vs-OpStats reconciliation must
// hold in degraded mode too (per-round maxima sum identically both ways).
TEST_F(ChaosTest, TracedQuerySurvivesServerDeath) {
  rpc::FaultPlan plan;
  plan.server_faults.push_back({/*server=*/1, /*after_requests=*/0,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 2;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  query::QueryService service(*store_, options);

  auto nhits = service.get_num_hits(make_query(2.0, 6.0), {.trace = true});
  ASSERT_TRUE(nhits.ok()) << nhits.status().ToString();
  const query::OpStats stats = service.last_stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.dead_servers, 1u);
  EXPECT_GT(stats.redispatched_regions, 0u);

  const std::shared_ptr<const obs::Trace> trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  // Structurally valid; strict nesting is not required under faults (late
  // or retried server work may straddle the client's attempt windows).
  const Status valid =
      obs::validate_trace(*trace, {.require_nesting = false});
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  const auto count = [&](std::string_view name) {
    std::size_t n = 0;
    for (const obs::Span& span : trace->spans) {
      if (span.name == name) ++n;
    }
    return n;
  };
  // One query, two gather rounds (broadcast + redispatch), one span per
  // retry attempt: the dead server burns every attempt of round one, the
  // redispatch round succeeds on the first.
  EXPECT_EQ(count("client.query"), 1u);
  EXPECT_EQ(count("rpc.gather"), 2u);
  EXPECT_EQ(count("rpc.attempt"),
            static_cast<std::size_t>(tight_retry().max_attempts) + 1);
  // Round one sends to both servers; the redispatch round targets one
  // survivor.  Requests keep one span across attempts.
  EXPECT_EQ(count("rpc.request"), 3u);

  // All spans hang off the single client root — retries and redispatch
  // link into the same trace, never a parallel tree.
  std::size_t roots = 0;
  for (const obs::Span& span : trace->spans) roots += span.parent == 0;
  EXPECT_EQ(roots, 1u);

  // The dead server never ran: every server-side span carries the
  // survivor's actor, and the survivor covered the whole region space
  // (its own share plus the redispatched share).
  double regions_reported = 0.0;
  std::size_t region_spans = 0;
  for (const obs::Span& span : trace->spans) {
    if (span.name == "server.eval" || span.name == "server.handle" ||
        span.name == "server.queue" || span.name == "region") {
      EXPECT_EQ(span.actor, "server0") << span.name;
    }
    if (span.name == "server.eval") {
      regions_reported += span.arg("regions_evaluated");
    }
    if (span.name == "region") ++region_spans;
  }
  EXPECT_EQ(count("server.eval"), 2u);  // own round + redispatch round
  EXPECT_EQ(static_cast<double>(region_spans), regions_reported);
  EXPECT_EQ(regions_reported, 40.0);  // all 40 regions, nothing lost

  const Status reconciled = testing::check_trace_stats(*trace, stats);
  EXPECT_TRUE(reconciled.ok()) << reconciled.ToString();
}

// ---------------------------------------------------------------------------
// Write-during-fault battery: every write is applied exactly once or
// cleanly rejected — duplicated, dropped or rerouted transfers never
// double-apply and never leave a torn index (queries stay exact through
// scan fallback on whatever went stale).
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, WritesUnderLossyNetworkApplyExactlyOnce) {
  ASSERT_TRUE(store_->build_bitmap_index(object_).ok());

  rpc::FaultPlan plan;
  plan.seed = 1234;
  plan.drop_rate = 0.05;
  plan.delay_rate = 0.10;
  plan.duplicate_rate = 0.20;  // the interesting case: replayed transfers
  plan.min_delay = std::chrono::milliseconds(1);
  plan.max_delay = std::chrono::milliseconds(5);
  rpc::FaultInjector injector(plan);

  query::ServiceOptions options;
  options.num_servers = 4;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  query::QueryService service(*store_, options);

  Rng rng(0xD00D);
  std::uint64_t applied = 0;
  for (int i = 0; i < 20; ++i) {
    // Mix of single-region and region-straddling overwrites.
    const std::uint64_t count = (i % 3 == 0) ? 1500 : 7;
    const std::uint64_t offset = static_cast<std::uint64_t>(
        rng.uniform(0.0, static_cast<double>(data_.size() - count)));
    std::vector<float> repl(count);
    for (auto& v : repl) v = static_cast<float>(rng.uniform(0.0, 10.0));
    auto report = service.overwrite(
        object_, Extent1D{offset, count},
        {reinterpret_cast<const std::uint8_t*>(repl.data()),
         repl.size() * sizeof(float)});
    ASSERT_TRUE(report.ok()) << "write " << i << ": "
                             << report.status().ToString();
    // report->duplicate may legitimately be true here: when the wire
    // duplicates a transfer and the first response is lost, the client
    // sees the replay's duplicate-ack.  Either way the write landed
    // exactly once — the epoch check below is the real invariant.
    std::copy(repl.begin(), repl.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(offset));
    ++applied;
    // Exactly-once: the epoch advances by one per applied write, no
    // matter how many duplicated transfers the wire delivered.
    EXPECT_EQ(report->data_epoch, 1 + applied) << "write " << i;
  }
  const auto* desc = std::move(store_->get(object_)).value();
  EXPECT_EQ(desc->data_epoch, 1 + applied);

  // No torn state: a clean service over the same store answers every
  // query exactly (stale regions fall back to scan; fresh ones use their
  // base+delta index).
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  for (const auto strategy :
       {server::Strategy::kFullScan, server::Strategy::kHistogramIndex,
        server::Strategy::kAdaptive}) {
    clean_options.strategy = strategy;
    query::QueryService clean(*store_, clean_options);
    for (const auto& [lo, hi] : intervals()) {
      std::vector<std::uint64_t> want;
      for (std::uint64_t p = 0; p < data_.size(); ++p) {
        if (data_[p] > lo && data_[p] < hi) want.push_back(p);
      }
      auto got = clean.get_selection(make_query(lo, hi));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->positions, want)
          << "strategy " << static_cast<int>(strategy) << " interval ("
          << lo << ", " << hi << ")";
    }
  }
}

TEST_F(ChaosTest, WriteReroutesWhenOwnerDiesAndAppliesOnce) {
  ASSERT_TRUE(store_->build_bitmap_index(object_).ok());

  // Kill server 1 before it handles anything; a write anchored in its
  // region share must reroute to a survivor and apply exactly once.
  rpc::FaultPlan plan;
  plan.server_faults.push_back({/*server=*/1, /*after_requests=*/0,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 2;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  query::QueryService service(*store_, options);

  // 40 regions over 2 servers: region 21 belongs to server 1.
  const std::uint64_t offset = 21 * 1024 + 5;
  const std::vector<float> repl{3.25f, 7.75f};
  auto report = service.overwrite(
      object_, Extent1D{offset, 2},
      {reinterpret_cast<const std::uint8_t*>(repl.data()),
       repl.size() * sizeof(float)});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->duplicate);
  EXPECT_EQ(report->data_epoch, 2u);
  data_[offset] = repl[0];
  data_[offset + 1] = repl[1];

  const query::OpStats stats = service.last_stats();
  EXPECT_EQ(stats.dead_servers, 1u);
  EXPECT_GT(stats.redispatched_regions, 0u);

  // The value landed exactly once and queries see it.
  auto got = service.get_selection(make_query(7.74, 7.76));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<std::uint64_t> want;
  for (std::uint64_t p = 0; p < data_.size(); ++p) {
    if (data_[p] > 7.74 && data_[p] < 7.76) want.push_back(p);
  }
  EXPECT_EQ(got->positions, want);
}

TEST_F(ChaosTest, AllServersDeadWriteIsCleanlyRejected) {
  rpc::FaultPlan plan;
  for (std::uint32_t s = 0; s < 3; ++s) {
    plan.server_faults.push_back({s, /*after_requests=*/0,
                                  rpc::ServerFate::kKilled});
  }
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 3;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  query::QueryService service(*store_, options);

  const std::vector<float> repl{1.5f};
  auto report = service.overwrite(
      object_, Extent1D{100, 1},
      {reinterpret_cast<const std::uint8_t*>(repl.data()),
       repl.size() * sizeof(float)});
  ASSERT_FALSE(report.ok());

  // Cleanly rejected: nothing was applied, the store is untouched.
  const auto* desc = std::move(store_->get(object_)).value();
  EXPECT_EQ(desc->data_epoch, 1u);
  float got = 0.0f;
  const pfs::ReadContext ctx{};
  ASSERT_TRUE(store_
                  ->read_elements(*desc, Extent1D{100, 1},
                                  {reinterpret_cast<std::uint8_t*>(&got),
                                   sizeof(got)},
                                  ctx)
                  .ok());
  EXPECT_EQ(got, data_[100]);
}

// ---------------------------------------------------------------------------
// Join-under-fault battery: the exchange shuffle must deliver every batch
// exactly once through drops/duplicates/corruption (the checksum turns
// corruption into loss, acks turn loss into retransmits, seq dedup turns
// duplication into a no-op), and a server dying mid-shuffle must end in
// either the exact fault-free pair list (re-planned epoch) or a clean
// kUnavailable — never a partial or duplicated result.
// ---------------------------------------------------------------------------

class JoinChaosTest : public ChaosTest {
 protected:
  void SetUp() override {
    ChaosTest::SetUp();
    workloads::BossJoinConfig config;
    config.num_a = 600;
    config.num_b = 800;
    config.region_size_bytes = 1024;
    pair_ = std::move(workloads::import_boss_join_pair(*store_, config))
                .value();
  }

  [[nodiscard]] query::JoinSpec join_spec() const {
    query::JoinSpec spec;
    spec.left = pair_.ra_a;
    spec.right = pair_.ra_b;
    spec.epsilon = 0.125;
    spec.zone_height = 0.5;
    return spec;
  }

  static void expect_same_pairs(const query::JoinResult& got,
                                const query::JoinResult& want,
                                std::string_view label) {
    ASSERT_EQ(got.pairs.size(), want.pairs.size()) << label;
    for (std::size_t i = 0; i < want.pairs.size(); ++i) {
      ASSERT_EQ(got.pairs[i].left_pos, want.pairs[i].left_pos)
          << label << " pair " << i;
      ASSERT_EQ(got.pairs[i].right_pos, want.pairs[i].right_pos)
          << label << " pair " << i;
    }
    EXPECT_EQ(got.num_zones, want.num_zones) << label;
  }

  workloads::BossJoinPair pair_;
};

// Lossy-but-alive fleet: dropped shuffle frames are retransmitted,
// duplicated ones deduped by (producer, seq), corrupted ones rejected by
// the envelope checksum and retransmitted — the pair list is bit-identical
// to the fault-free run for BOTH strategies, across several seeds.
TEST_F(JoinChaosTest, LossyShuffleDeliversExactlyOnce) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto want = baseline.join(join_spec());
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->pairs.size(), 0u);

  for (const std::uint64_t seed : {7ull, 1234ull}) {
    rpc::FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.10;
    plan.delay_rate = 0.10;
    plan.duplicate_rate = 0.15;  // the interesting case: replayed batches
    plan.corrupt_rate = 0.05;
    plan.min_delay = std::chrono::milliseconds(1);
    plan.max_delay = std::chrono::milliseconds(5);
    rpc::FaultInjector injector(plan);
    query::ServiceOptions faulty_options = clean_options;
    faulty_options.fault_injector = &injector;
    faulty_options.retry = tight_retry();
    query::QueryService service(*store_, faulty_options);

    for (const auto strategy : {server::JoinStrategy::kZoneShuffle,
                                server::JoinStrategy::kBroadcast}) {
      auto spec = join_spec();
      spec.strategy = strategy;
      auto got = service.join(spec);
      ASSERT_TRUE(got.ok())
          << "seed " << seed << " strategy "
          << server::join_strategy_name(strategy) << ": "
          << got.status().ToString();
      expect_same_pairs(*got, *want,
                        server::join_strategy_name(strategy));
    }
    EXPECT_GT(injector.counters().dropped + injector.counters().corrupted,
              0u)
        << "seed " << seed << ": plan injected nothing — tighten rates";
  }
}

// A server killed mid-join (it answers a couple of requests, then dies —
// possibly between producing candidates and finishing its shuffle): the
// client must converge to the exact fault-free answer via a re-planned
// epoch, or fail cleanly with kUnavailable.  Never a wrong pair list.
TEST_F(JoinChaosTest, ServerDeathMidShuffleDegradesOrFailsClean) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto want = baseline.join(join_spec());
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (const std::uint32_t after : {0u, 1u, 2u}) {
    for (const auto strategy : {server::JoinStrategy::kZoneShuffle,
                                server::JoinStrategy::kBroadcast}) {
      rpc::FaultPlan plan;
      plan.server_faults.push_back(
          {/*server=*/2, /*after_requests=*/after, rpc::ServerFate::kKilled});
      rpc::FaultInjector injector(plan);
      query::ServiceOptions faulty_options = clean_options;
      faulty_options.fault_injector = &injector;
      faulty_options.retry = tight_retry();
      // The shuffle deadline must sit INSIDE the client's per-request retry
      // budget (~400 ms under tight_retry): survivors wedged shipping to
      // the dead server then fail their epoch with kUnavailable instead of
      // looking dead themselves and collapsing the whole fleet.
      faulty_options.join_shuffle_deadline_ms = 50;
      query::QueryService service(*store_, faulty_options);

      auto spec = join_spec();
      spec.strategy = strategy;
      auto got = service.join(spec);
      const std::string label =
          std::string(server::join_strategy_name(strategy)) +
          " after_requests=" + std::to_string(after);
      if (got.ok()) {
        expect_same_pairs(*got, *want, label);
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << label;
      }
      // Whether this attempt degraded or failed, retries on the same
      // service must keep producing the exact answer.  Depending on
      // `after`, server 2 may die only after answering the joins above, so
      // keep joining until the service has actually observed the death.
      for (int retries = 0; retries < 3; ++retries) {
        auto again = service.join(spec);
        ASSERT_TRUE(again.ok())
            << label << " retry " << retries << ": "
            << again.status().ToString();
        expect_same_pairs(*again, *want, label + " (retry)");
        if (!service.dead_servers().empty()) break;
      }
      EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{2})) << label;
    }
  }
}

// The asynchronous shuffle under loss with a pool: stage 1 runs as an
// admitted pool task and stage 2 as a continuation the exchange port
// schedules onto the pool.  Drops, duplicates and corruption on every lane
// (requests, replies, shuffle frames and acks) still give the fault-free
// pair list, at pool width 1 (every stage shares one worker) and 4.
TEST_F(JoinChaosTest, LossyAsyncShuffleAtPoolWidths) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto want = baseline.join(join_spec());
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (const std::uint32_t threads : {1u, 4u}) {
    rpc::FaultPlan plan;
    plan.seed = 99 + threads;
    plan.drop_rate = 0.10;
    plan.duplicate_rate = 0.15;
    plan.corrupt_rate = 0.05;
    rpc::FaultInjector injector(plan);
    query::ServiceOptions faulty_options = clean_options;
    faulty_options.eval_threads = threads;
    faulty_options.fault_injector = &injector;
    faulty_options.retry = tight_retry();
    query::QueryService service(*store_, faulty_options);
    for (const auto strategy : {server::JoinStrategy::kZoneShuffle,
                                server::JoinStrategy::kBroadcast}) {
      auto spec = join_spec();
      spec.strategy = strategy;
      const std::string label = std::string(server::join_strategy_name(
                                    strategy)) +
                                " threads=" + std::to_string(threads);
      auto got = service.join(spec);
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
      expect_same_pairs(*got, *want, label);
    }
    EXPECT_GT(injector.counters().dropped + injector.counters().corrupted,
              0u)
        << "threads " << threads << ": plan injected nothing";
  }
}

// A server killed mid-join while stages run on a pool: the exact answer
// or a clean kUnavailable, then the exact answer once the death is seen.
TEST_F(JoinChaosTest, ServerDeathMidAsyncShuffleAtPoolWidths) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto want = baseline.join(join_spec());
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (const std::uint32_t threads : {1u, 4u}) {
    for (const std::uint32_t after : {0u, 1u}) {
      rpc::FaultPlan plan;
      plan.server_faults.push_back({/*server=*/1, after,
                                    rpc::ServerFate::kKilled});
      rpc::FaultInjector injector(plan);
      query::ServiceOptions faulty_options = clean_options;
      faulty_options.eval_threads = threads;
      faulty_options.fault_injector = &injector;
      faulty_options.retry = tight_retry();
      faulty_options.join_shuffle_deadline_ms = 50;
      query::QueryService service(*store_, faulty_options);
      const std::string label = "threads=" + std::to_string(threads) +
                                " after_requests=" + std::to_string(after);
      auto got = service.join(join_spec());
      if (got.ok()) {
        expect_same_pairs(*got, *want, label);
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << label;
      }
      for (int retries = 0; retries < 3; ++retries) {
        auto again = service.join(join_spec());
        ASSERT_TRUE(again.ok()) << label << " retry " << retries << ": "
                                << again.status().ToString();
        expect_same_pairs(*again, *want, label + " (retry)");
        if (!service.dead_servers().empty()) break;
      }
      EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{1})) << label;
    }
  }
}

// Exactly once under client retries: with the shuffle parked (every
// server-to-server frame delayed) the client's short attempt window
// expires and it re-sends each kJoinEval while its epoch is still in
// flight.  Each server runs stage 1 once and drops the duplicates; the
// original replies answer the stable request ids, in epoch 1.
TEST_F(JoinChaosTest, DuplicateJoinEvalInFlightAppliesOnce) {
  query::ServiceOptions clean_options;
  clean_options.num_servers = 4;
  query::QueryService baseline(*store_, clean_options);
  const auto want = baseline.join(join_spec());
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  for (const std::uint32_t threads : {0u, 4u}) {
    rpc::FaultPlan plan;
    plan.delay_rate = 1.0;
    plan.min_delay = std::chrono::milliseconds(80);
    plan.max_delay = std::chrono::milliseconds(80);
    plan.only_direction = rpc::Direction::kServerToServer;
    rpc::FaultInjector injector(plan);
    query::ServiceOptions options = clean_options;
    options.eval_threads = threads;
    options.fault_injector = &injector;
    options.join_shuffle_deadline_ms = 5000;
    options.retry.attempt_timeout = std::chrono::milliseconds(30);
    options.retry.max_attempts = 40;
    options.retry.backoff_base = std::chrono::milliseconds(1);
    options.retry.backoff_cap = std::chrono::milliseconds(5);
    query::QueryService service(*store_, options);

    const std::string label = "threads=" + std::to_string(threads);
    auto got = service.join(join_spec());
    ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
    expect_same_pairs(*got, *want, label);
    EXPECT_GT(service.last_stats().retries, 0u)
        << label << ": the client never re-sent a join request";
    const auto metrics = service.scrape_metrics();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    double stage_one_runs = 0.0;
    double duplicates = 0.0;
    for (ServerId s = 0; s < 4; ++s) {
      const std::string server = "server" + std::to_string(s);
      stage_one_runs += metrics->value(server + ".join_requests");
      duplicates += metrics->value(server + ".join_duplicates");
    }
    EXPECT_EQ(stage_one_runs, 4.0) << label;
    EXPECT_GT(duplicates, 0.0) << label;
    EXPECT_EQ(metrics->value("client.join_epoch_reruns"), 0.0) << label;
  }
}

// Every server dead: join must fail fast with kUnavailable, not hang on
// the shuffle deadline forever.
TEST_F(JoinChaosTest, AllServersDeadJoinReturnsUnavailable) {
  rpc::FaultPlan plan;
  for (ServerId s = 0; s < 4; ++s) {
    plan.server_faults.push_back({s, /*after_requests=*/0,
                                  rpc::ServerFate::kKilled});
  }
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 4;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  options.retry.attempt_timeout = std::chrono::milliseconds(50);
  options.retry.max_attempts = 2;
  query::QueryService service(*store_, options);

  auto result = service.join(join_spec());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------------- distributed metadata

/// Metadata chaos helpers: a small BOSS metadata catalog (12 cells) and
/// the three condition shapes the sharded trie routes differently (exact
/// lane, numeric-range lane, prefix lane).
std::vector<meta::MetaCondition> meta_exact() {
  return {{"PLATE", QueryOp::kEQ, std::int64_t{3505},
           meta::MetaMatchKind::kValue}};
}
std::vector<meta::MetaCondition> meta_range() {
  return {{"PLATE", QueryOp::kGTE, std::int64_t{3502},
           meta::MetaMatchKind::kValue},
          {"PLATE", QueryOp::kLTE, std::int64_t{3504},
           meta::MetaMatchKind::kValue}};
}
std::vector<meta::MetaCondition> meta_prefix() {
  return {{"RUN", QueryOp::kEQ, std::string("r5_"),
           meta::MetaMatchKind::kPrefix}};
}

// Lossy-but-alive fleet: metadata queries retried through drops,
// duplicates and corrupted payloads must return exactly the oracle's
// posting lists — corruption is detected by checksum and retried, never
// silently decoded into a truncated answer.
TEST_F(ChaosTest, MetadataQueriesUnderLossyNetworkStayExact) {
  meta::MetaStore meta;
  workloads::BossMetaConfig cfg;
  cfg.num_objects = 3000;
  cfg.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, cfg).ok());

  std::uint64_t injected = 0;
  for (const std::uint64_t seed : {3u, 17u, 99u}) {
    rpc::FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.08;
    plan.duplicate_rate = 0.08;
    plan.corrupt_rate = 0.08;
    rpc::FaultInjector injector(plan);

    query::ServiceOptions options;
    options.num_servers = 4;
    options.metadata = &meta;
    options.meta_vnodes = 32;
    options.fault_injector = &injector;
    options.retry = tight_retry();
    query::QueryService service(*store_, options);

    for (const auto& conditions : {meta_exact(), meta_range(),
                                   meta_prefix()}) {
      const std::vector<ObjectId> want = meta.query(conditions);
      ASSERT_FALSE(want.empty());
      auto got = service.meta_query(conditions);
      ASSERT_TRUE(got.ok()) << "seed " << seed << ": "
                            << got.status().ToString();
      EXPECT_EQ(*got, want) << "seed " << seed;
    }
    injected += injector.counters().dropped + injector.counters().corrupted +
                injector.counters().duplicated;
  }
  // Across the three seeds the plans must actually have injected faults —
  // otherwise the "stays exact" half of the property proved nothing.
  EXPECT_GT(injected, 0u);
}

// One replica of every vnode dies mid-session (replicas=2): each metadata
// query either matches the oracle exactly (served by the surviving
// replica) or fails with a clean kUnavailable/kOverloaded — NEVER a
// silently truncated posting list.  Once the death is observed the
// service must settle back to exact answers, including through a
// replicated update.
TEST_F(ChaosTest, MetadataQueriesSurviveServerDeathOrFailClean) {
  meta::MetaStore meta;
  workloads::BossMetaConfig cfg;
  cfg.num_objects = 3000;
  cfg.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, cfg).ok());

  rpc::FaultPlan plan;
  plan.seed = 5;
  plan.server_faults.push_back({/*server=*/1, /*after_requests=*/3,
                                rpc::ServerFate::kKilled});
  rpc::FaultInjector injector(plan);

  query::ServiceOptions options;
  options.num_servers = 4;
  options.metadata = &meta;
  options.meta_vnodes = 32;
  options.meta_replicas = 2;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  query::QueryService service(*store_, options);

  const auto conditions = {meta_exact(), meta_range(), meta_prefix()};
  for (int round = 0; round < 4; ++round) {
    for (const auto& c : conditions) {
      const std::vector<ObjectId> want = meta.query(c);
      auto got = service.meta_query(c);
      if (got.ok()) {
        EXPECT_EQ(*got, want) << "round " << round;
      } else {
        EXPECT_TRUE(got.status().code() == StatusCode::kUnavailable ||
                    got.status().code() == StatusCode::kOverloaded)
            << got.status().ToString();
      }
    }
    if (!service.dead_servers().empty()) break;
  }
  EXPECT_EQ(service.dead_servers(), (std::vector<ServerId>{1}));

  // With the death observed, the surviving replicas answer exactly — and
  // keep doing so through a replicated attribute update.
  ASSERT_TRUE(
      service.meta_set_attribute(/*object=*/1, "RUN", std::string("r0_X"))
          .ok());
  for (const auto& c : conditions) {
    auto got = service.meta_query(c);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, meta.query(c));
  }
}

// Every server dead: metadata queries fail fast with kUnavailable (all
// replicas of some vnode are gone), not a hang and not an empty answer.
TEST_F(ChaosTest, MetadataAllServersDeadReturnsUnavailable) {
  meta::MetaStore meta;
  workloads::BossMetaConfig cfg;
  cfg.num_objects = 500;
  cfg.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, cfg).ok());

  rpc::FaultPlan plan;
  for (ServerId s = 0; s < 4; ++s) {
    plan.server_faults.push_back({s, /*after_requests=*/0,
                                  rpc::ServerFate::kKilled});
  }
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 4;
  options.metadata = &meta;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  options.retry.attempt_timeout = std::chrono::milliseconds(50);
  options.retry.max_attempts = 2;
  query::QueryService service(*store_, options);

  auto result = service.meta_query(meta_exact());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ------------------------------------------- traces of failed and empty ops

/// The last published trace is one closed, well-formed tree rooted at the
/// operation's own span.
void expect_trace_rooted_at(const query::QueryService& service,
                            std::string_view root_name) {
  const std::shared_ptr<const obs::Trace> trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  const Status valid = obs::validate_trace(*trace);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  std::size_t roots = 0;
  for (const obs::Span& span : trace->spans) {
    if (span.parent != 0) continue;
    ++roots;
    EXPECT_EQ(span.name, root_name);
  }
  EXPECT_EQ(roots, 1u);
}

TEST_F(ChaosTest, TracedAllDeadQueryPublishesItsTrace) {
  rpc::FaultPlan plan;
  for (ServerId s = 0; s < 4; ++s) {
    plan.server_faults.push_back({s, /*after_requests=*/0,
                                  rpc::ServerFate::kKilled});
  }
  rpc::FaultInjector injector(plan);
  query::ServiceOptions options;
  options.num_servers = 4;
  options.fault_injector = &injector;
  options.retry = tight_retry();
  options.retry.attempt_timeout = std::chrono::milliseconds(50);
  options.retry.max_attempts = 2;
  query::QueryService service(*store_, options);

  auto result = service.get_num_hits(make_query(1.0, 9.0), {.trace = true});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  expect_trace_rooted_at(service, "client.query");
}

TEST_F(ChaosTest, TracedShedQueryPublishesItsTrace) {
  // One server with one slot and a one-deep queue, kept full by untraced
  // background queries; a single attempt per request, so the first shed
  // fails the traced probe with kOverloaded.
  query::ServiceOptions options;
  options.num_servers = 1;
  options.strategy = server::Strategy::kFullScan;
  options.eval_threads = 1;
  options.max_inflight = 1;
  options.queue_limit = 1;
  options.retry = tight_retry();
  options.retry.attempt_timeout = std::chrono::milliseconds(2000);
  options.retry.max_attempts = 1;
  query::QueryService service(*store_, options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&] {
      while (!stop.load()) (void)service.get_num_hits(make_query(1.0, 9.0));
    });
  }
  Status status;
  for (int probe = 0; probe < 500 && status.code() != StatusCode::kOverloaded;
       ++probe) {
    status = service.get_num_hits(make_query(1.0, 9.0), {.trace = true})
                 .status();
  }
  stop = true;
  for (std::thread& t : load) t.join();
  ASSERT_EQ(status.code(), StatusCode::kOverloaded) << status.ToString();
  expect_trace_rooted_at(service, "client.query");
  // The shedding server's baggage survives into the failed op's trace.
  std::size_t sheds = 0;
  for (const obs::Span& span : service.last_trace()->spans) {
    sheds += span.name == "server.shed";
  }
  EXPECT_GE(sheds, 1u);
}

TEST_F(ChaosTest, TracedEmptyMetaQueryPublishesClosedTrace) {
  meta::MetaStore meta;
  workloads::BossMetaConfig cfg;
  cfg.num_objects = 500;
  cfg.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, cfg).ok());
  query::ServiceOptions options;
  options.num_servers = 2;
  options.metadata = &meta;
  query::QueryService service(*store_, options);

  auto result = service.meta_query({}, {.trace = true});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->empty());
  expect_trace_rooted_at(service, "client.meta_query");
}

}  // namespace
}  // namespace pdc
