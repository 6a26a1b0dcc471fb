// Cross-object epsilon join: zone math unit battery plus service-level
// determinism — pairs must be byte-identical at any pool width, server
// count and shuffle strategy, and equal to the nested-loop oracle — and the
// join's place among other requests: a join epoch waiting for its shuffle
// holds no server thread, counts against admission, and a service torn
// down mid-shuffle settles every pending epoch first.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metadata/meta_store.h"
#include "query/query.h"
#include "query/service.h"
#include "rpc/fault.h"
#include "server/zone_join.h"
#include "testing/joincheck.h"
#include "workloads/boss.h"

namespace pdc {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ------------------------------------------------------------- zone math

TEST(ZoneMath, AssignmentAtBoundaries) {
  EXPECT_EQ(server::zone_of(0.0, 1.0), 0);
  EXPECT_EQ(server::zone_of(-0.0, 1.0), 0);
  EXPECT_EQ(server::zone_of(0.5, 1.0), 0);
  // Exact zone edges belong to the upper zone (floor semantics).
  EXPECT_EQ(server::zone_of(1.0, 1.0), 1);
  EXPECT_EQ(server::zone_of(std::nextafter(1.0, 0.0), 1.0), 0);
  EXPECT_EQ(server::zone_of(-1.0, 1.0), -1);
  EXPECT_EQ(server::zone_of(std::nextafter(-1.0, 0.0), 1.0), -1);
  EXPECT_EQ(server::zone_of(-0.25, 0.5), -1);
  EXPECT_EQ(server::zone_of(7.75, 0.25), 31);
  // Extreme magnitudes clamp instead of overflowing.
  EXPECT_LE(server::zone_of(1e300, 1e-3), std::int64_t{2000000000000000000});
  EXPECT_GE(server::zone_of(-1e300, 1e-3),
            std::int64_t{-2000000000000000000});
}

TEST(ZoneMath, BandCoversEveryReachablePartner) {
  // Property: for any probe value vb, every va with |va - vb| <= eps has
  // zone_of(va) inside zone_band(vb).  Sampled densely around edges.
  Rng rng(11);
  const double heights[] = {0.25, 1.0, 1.0 / 1024.0, 64.0};
  for (const double h : heights) {
    for (const double eps : {0.0, h / 2.0, std::nextafter(h, 0.0), h}) {
      for (int trial = 0; trial < 200; ++trial) {
        double vb = rng.uniform(-8.0 * h, 8.0 * h);
        if (trial % 4 == 0) {
          vb = std::floor(vb / h) * h;  // exact edge
        }
        const auto [first, last] = server::zone_band(vb, eps, h);
        for (const double va :
             {vb - eps, vb + eps, vb,
              std::nextafter(vb - eps, vb), std::nextafter(vb + eps, vb)}) {
          if (!(std::fabs(va - vb) <= eps)) continue;
          const std::int64_t z = server::zone_of(va, h);
          EXPECT_GE(z, first) << "h=" << h << " eps=" << eps << " vb=" << vb;
          EXPECT_LE(z, last) << "h=" << h << " eps=" << eps << " vb=" << vb;
        }
        // Nominally 3 consecutive zones for zone_height >= epsilon; the
        // 2-ulp safety widening may cross one more boundary when
        // value -/+ epsilon lands exactly on a zone edge.
        EXPECT_LE(last - first, 3);
      }
    }
  }
}

TEST(ZoneMath, ParamValidation) {
  EXPECT_TRUE(server::validate_join_params(0.0, 1.0).ok());
  EXPECT_TRUE(server::validate_join_params(0.5, 0.5).ok());
  const auto bad = [](double eps, double h) {
    return server::validate_join_params(eps, h).code() ==
           StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(bad(kNan, 1.0));
  EXPECT_TRUE(bad(0.0, kNan));
  EXPECT_TRUE(bad(-0.5, 1.0));
  EXPECT_TRUE(bad(kInf, 1.0));
  EXPECT_TRUE(bad(0.0, 0.0));
  EXPECT_TRUE(bad(0.0, -1.0));
  EXPECT_TRUE(bad(0.0, kInf));
  EXPECT_TRUE(bad(1.0, 0.5));  // zone_height < epsilon inadmissible
}

TEST(ZoneMath, OwnerMapsNegativeZones) {
  const std::vector<ServerId> participants{0, 1, 2};
  for (std::int64_t z = -9; z <= 9; ++z) {
    const ServerId owner = server::zone_owner(z, participants);
    EXPECT_TRUE(owner == 0 || owner == 1 || owner == 2);
    // Consecutive zones round-robin (adjacent band zones spread out).
    EXPECT_NE(owner, server::zone_owner(z + 1, participants));
  }
  EXPECT_EQ(server::zone_owner(-3, participants),
            server::zone_owner(0, participants));
}

TEST(ZoneMergeJoin, Degenerates) {
  const auto t = [](double v, std::uint64_t pos) {
    return rpc::JoinTuple{0, v, pos};
  };
  // Empty sides.
  EXPECT_TRUE(server::zone_merge_join({}, {t(1.0, 0)}, 1.0).empty());
  EXPECT_TRUE(server::zone_merge_join({t(1.0, 0)}, {}, 1.0).empty());
  // All-match with duplicates: cross product, sorted by (left, right).
  const auto pairs = server::zone_merge_join(
      {t(1.0, 5), t(1.0, 2)}, {t(1.0, 9), t(1.5, 1), t(1.0, 9)}, 0.5);
  ASSERT_EQ(pairs.size(), 6u);
  for (std::size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_TRUE(pairs[i - 1].left_pos < pairs[i].left_pos ||
                (pairs[i - 1].left_pos == pairs[i].left_pos &&
                 pairs[i - 1].right_pos <= pairs[i].right_pos));
  }
  EXPECT_EQ(pairs.front().left_pos, 2u);
  // Inclusive epsilon boundary.
  EXPECT_EQ(server::zone_merge_join({t(0.0, 0)}, {t(0.5, 0)}, 0.5).size(), 1u);
  EXPECT_TRUE(server::zone_merge_join({t(0.0, 0)},
                                      {t(std::nextafter(0.5, 1.0), 0)}, 0.5)
                  .empty());
}

// --------------------------------------------------------- service level

class JoinServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "/join_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);

    workloads::BossJoinConfig config;
    config.num_a = 900;
    config.num_b = 1100;
    config.zone_height = 0.5;
    config.region_size_bytes = 1024;
    pair_ = std::move(workloads::import_boss_join_pair(*store_, config))
                .value();

    // Mirror the catalogs for the oracle (same generator, same seed).
    oracle_case_.a = regenerate(config, config.num_a, /*first=*/true);
    oracle_case_.b = regenerate(config, config.num_b, /*first=*/false);
    oracle_case_.epsilon = 0.125;
    oracle_case_.zone_height = config.zone_height;
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// Re-draws import_boss_join_pair's catalogs (same Rng stream): catalog A
  /// is drawn first, catalog B continues the stream.
  static std::vector<double> regenerate(const workloads::BossJoinConfig& c,
                                        std::uint32_t n, bool first) {
    Rng rng(c.seed);
    std::vector<double> a, b;
    const auto draw = [&](std::vector<double>& out, std::uint32_t count) {
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t pick = rng.bounded(8);
        double v = rng.uniform(c.ra_min, c.ra_max);
        if (pick == 0) {
          v = std::floor(v / c.zone_height) * c.zone_height;
        } else if (pick == 1 && !out.empty()) {
          v = out[rng.bounded(out.size())];
        }
        out.push_back(v);
      }
    };
    draw(a, c.num_a);
    if (first) return a;
    draw(b, c.num_b);
    return b;
  }

  query::JoinSpec spec(server::JoinStrategy strategy) const {
    query::JoinSpec s;
    s.left = pair_.ra_a;
    s.right = pair_.ra_b;
    s.epsilon = oracle_case_.epsilon;
    s.zone_height = oracle_case_.zone_height;
    s.strategy = strategy;
    return s;
  }

  query::JoinResult run(std::uint32_t servers, std::uint32_t threads,
                        server::JoinStrategy strategy,
                        query::OpStats* stats = nullptr) const {
    query::ServiceOptions options;
    options.num_servers = servers;
    options.eval_threads = threads;
    query::QueryService service(*store_, options);
    auto result = service.join(spec(strategy));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (stats != nullptr) *stats = service.last_stats();
    return result.ok() ? std::move(*result) : query::JoinResult{};
  }

  static bool identical(const query::JoinResult& x,
                        const query::JoinResult& y) {
    return x.num_zones == y.num_zones &&
           x.pairs.size() == y.pairs.size() &&
           (x.pairs.empty() ||
            std::memcmp(x.pairs.data(), y.pairs.data(),
                        x.pairs.size() * sizeof(query::JoinPair)) == 0);
  }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  workloads::BossJoinPair pair_;
  testing::JoinCase oracle_case_;
};

// Acceptance criterion: bit-identical pairs at pool widths 1/4/8 and
// server counts 1/2/4, both strategies, all equal to the oracle.
TEST_F(JoinServiceTest, DeterministicAcrossWidthsServersAndStrategies) {
  const auto want = testing::join_oracle(oracle_case_);
  ASSERT_FALSE(want.empty());  // the catalogs overlap by construction

  query::JoinResult reference;
  bool have_reference = false;
  for (const std::uint32_t servers : {1u, 2u, 4u}) {
    for (const std::uint32_t threads : {1u, 4u, 8u}) {
      for (const auto strategy : {server::JoinStrategy::kZoneShuffle,
                                  server::JoinStrategy::kBroadcast}) {
        const query::JoinResult got = run(servers, threads, strategy);
        ASSERT_EQ(got.pairs.size(), want.size())
            << "servers=" << servers << " threads=" << threads;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got.pairs[i].left_pos, want[i].left_pos) << "rank " << i;
          ASSERT_EQ(got.pairs[i].right_pos, want[i].right_pos) << "rank " << i;
        }
        if (!have_reference) {
          reference = got;
          have_reference = true;
        } else {
          EXPECT_TRUE(identical(reference, got));
        }
      }
    }
  }
}

// The whole point of the exchange: at 4 servers the zone shuffle moves
// strictly fewer bytes than broadcasting both sides everywhere.
TEST_F(JoinServiceTest, ZoneShuffleBeatsBroadcastBytes) {
  query::OpStats zone_stats, broadcast_stats;
  const query::JoinResult zone =
      run(4, 2, server::JoinStrategy::kZoneShuffle, &zone_stats);
  const query::JoinResult broadcast =
      run(4, 2, server::JoinStrategy::kBroadcast, &broadcast_stats);
  EXPECT_TRUE(identical(zone, broadcast));
  EXPECT_GT(broadcast_stats.shuffle_bytes, 0u);
  EXPECT_LT(zone_stats.shuffle_bytes, broadcast_stats.shuffle_bytes);
  EXPECT_EQ(zone_stats.join_candidates_left,
            broadcast_stats.join_candidates_left);
}

// Single server: no cross-server traffic at all under zone shuffle.
TEST_F(JoinServiceTest, SingleServerShipsNothing) {
  query::OpStats stats;
  run(1, 2, server::JoinStrategy::kZoneShuffle, &stats);
  EXPECT_EQ(stats.shuffle_bytes, 0u);
  EXPECT_EQ(stats.shuffle_msgs, 0u);
}

// Pre-filters that exclude everything produce a clean empty result.
TEST_F(JoinServiceTest, EmptySideViaFilter) {
  query::ServiceOptions options;
  options.num_servers = 2;
  query::QueryService service(*store_, options);
  query::JoinSpec s = spec(server::JoinStrategy::kZoneShuffle);
  s.left_filter = ValueInterval::from_op(QueryOp::kLT, -1.0e6);
  const auto result = service.join(s);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->pairs.empty());
  EXPECT_EQ(result->num_zones, 0u);
}

// Plan-time rejections surface before any server work happens.
TEST_F(JoinServiceTest, PlanTimeValidation) {
  query::ServiceOptions options;
  options.num_servers = 2;
  query::QueryService service(*store_, options);

  query::JoinSpec s = spec(server::JoinStrategy::kZoneShuffle);
  s.epsilon = kNan;
  EXPECT_EQ(service.join(s).status().code(), StatusCode::kInvalidArgument);

  s = spec(server::JoinStrategy::kZoneShuffle);
  s.zone_height = 0.0;
  EXPECT_EQ(service.join(s).status().code(), StatusCode::kInvalidArgument);

  s = spec(server::JoinStrategy::kZoneShuffle);
  s.zone_height = s.epsilon / 2.0;
  EXPECT_EQ(service.join(s).status().code(), StatusCode::kInvalidArgument);

  s = spec(server::JoinStrategy::kZoneShuffle);
  s.right = 999999;
  EXPECT_EQ(service.join(s).status().code(), StatusCode::kNotFound);
}

// ------------------------------------------- join epochs off the mailbox

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Delay every server-to-server frame by `delay`: a join epoch then stays
/// parked in its shuffle for at least two delays (frames, then acks).
rpc::FaultPlan parked_shuffle_plan(milliseconds delay) {
  rpc::FaultPlan plan;
  plan.delay_rate = 1.0;
  plan.min_delay = delay;
  plan.max_delay = delay;
  plan.only_direction = rpc::Direction::kServerToServer;
  return plan;
}

// Head of line: a join epoch parked in its shuffle holds no server thread.
// A metadata query and a data query sent to the same servers meanwhile
// return long before the join does, and all three answers stay exact.
TEST_F(JoinServiceTest, MetadataAndSelectionDoNotQueueBehindParkedJoin) {
  meta::MetaStore meta;
  workloads::BossMetaConfig meta_config;
  meta_config.num_objects = 2000;
  meta_config.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, meta_config).ok());
  const std::vector<meta::MetaCondition> plate = {
      {"PLATE", QueryOp::kEQ, std::int64_t{3505},
       meta::MetaMatchKind::kValue}};
  const std::vector<ObjectId> want_meta = meta.query(plate);
  ASSERT_FALSE(want_meta.empty());

  rpc::FaultInjector injector(parked_shuffle_plan(milliseconds(250)));
  query::ServiceOptions options;
  options.num_servers = 4;
  options.eval_threads = 4;
  options.metadata = &meta;
  options.fault_injector = &injector;
  options.join_shuffle_deadline_ms = 10000;
  options.retry.attempt_timeout = milliseconds(5000);
  query::QueryService service(*store_, options);

  const double median = [&] {
    std::vector<double> a = oracle_case_.a;
    std::nth_element(a.begin(), a.begin() + a.size() / 2, a.end());
    return a[a.size() / 2];
  }();
  const auto selection = query::create(pair_.ra_a, QueryOp::kGT, median);
  const auto want_selection = service.get_selection(selection);
  ASSERT_TRUE(want_selection.ok()) << want_selection.status().ToString();

  const auto t0 = Clock::now();
  Clock::time_point join_done;
  std::optional<Result<query::JoinResult>> joined;
  std::thread joiner([&] {
    joined = service.join(spec(server::JoinStrategy::kZoneShuffle));
    join_done = Clock::now();
  });
  // Every server has run the join's first stage well within this; the
  // epoch now waits for its delayed frames and acks.
  std::this_thread::sleep_for(milliseconds(100));
  const auto side_start = Clock::now();
  const auto got_meta = service.meta_query(plate);
  const auto got_selection = service.get_selection(selection);
  const auto side_done = Clock::now();
  joiner.join();

  ASSERT_TRUE(got_meta.ok()) << got_meta.status().ToString();
  EXPECT_EQ(*got_meta, want_meta);
  ASSERT_TRUE(got_selection.ok()) << got_selection.status().ToString();
  EXPECT_EQ(got_selection->positions, want_selection->positions);
  ASSERT_TRUE(joined->ok()) << joined->status().ToString();
  EXPECT_EQ(joined->value().pairs.size(),
            testing::join_oracle(oracle_case_).size());
  // The join waited out its parked shuffle (frames, then acks) ...
  EXPECT_GE(join_done - t0, milliseconds(450));
  // ... and the side requests did not wait for it.
  EXPECT_LT(side_done - side_start, milliseconds(150));
  EXPECT_LT(side_done + milliseconds(150), join_done);
}

// Lifetimes: a service destroyed while join epochs wait in their shuffle
// (frames parked for far longer than the test) must settle every pending
// epoch — its continuation answers kUnavailable into the closing bus —
// before any server goes away, without waiting out the shuffle deadline.
// At width 1 the four failed continuations queue on the single worker
// while the runtimes wait for their replies; at width 0 they run on the
// closing thread.  Run under ASan by tools/run_asan.sh.
TEST_F(JoinServiceTest, DestroyMidShuffleSettlesPendingEpochs) {
  for (const std::uint32_t threads : {0u, 1u, 4u}) {
    rpc::FaultInjector injector(parked_shuffle_plan(milliseconds(2000)));
    auto options = std::make_unique<query::ServiceOptions>();
    options->num_servers = 4;
    options->eval_threads = threads;
    options->fault_injector = &injector;
    options->join_shuffle_deadline_ms = 60000;
    options->retry.attempt_timeout = milliseconds(100);
    options->retry.max_attempts = 1;
    auto service = std::make_unique<query::QueryService>(*store_, *options);
    // Every server answers nothing within the attempt window, so the join
    // gives up while all four epochs still wait for parked frames.
    const auto result = service->join(spec(server::JoinStrategy::kZoneShuffle));
    EXPECT_FALSE(result.ok()) << "threads=" << threads;
    const auto t0 = Clock::now();
    service.reset();
    EXPECT_LT(Clock::now() - t0, milliseconds(1500)) << "threads=" << threads;
  }
}

// The same teardown racing the shuffle's completion: frames parked for
// about the client's attempt window, so when the join gives up and the
// service goes away, epochs are completing and queueing their stage 2 on
// the pool while the ports close.  Every interleaving must tear down
// cleanly (ASan and TSan run this binary).
TEST_F(JoinServiceTest, DestroyWhileEpochsSettle) {
  for (const std::uint32_t threads : {1u, 4u}) {
    for (const int delay_ms : {40, 55, 70}) {
      rpc::FaultInjector injector(
          parked_shuffle_plan(milliseconds(delay_ms)));
      query::ServiceOptions options;
      options.num_servers = 4;
      options.eval_threads = threads;
      options.fault_injector = &injector;
      options.join_shuffle_deadline_ms = 60000;
      options.retry.attempt_timeout = milliseconds(100);
      options.retry.max_attempts = 1;
      auto service = std::make_unique<query::QueryService>(*store_, options);
      const auto result =
          service->join(spec(server::JoinStrategy::kZoneShuffle));
      if (result.ok()) {
        EXPECT_EQ(result->pairs.size(),
                  testing::join_oracle(oracle_case_).size());
      }
      service.reset();
    }
  }
}

// Admission: a join is an ordinary admitted request.  A burst of
// concurrent joins against a queue limit of one is shed with a typed
// kOverloaded — never a wrong pair list, never another error — while a
// metadata tenant with four times the weighted-fair share keeps getting
// exact answers beside it.
TEST_F(JoinServiceTest, JoinsShedWithTypedOverloadBesideFairMetadata) {
  meta::MetaStore meta;
  workloads::BossMetaConfig meta_config;
  meta_config.num_objects = 2000;
  meta_config.objects_per_cell = 250;
  ASSERT_TRUE(workloads::generate_boss_metadata(meta, meta_config).ok());
  const std::vector<meta::MetaCondition> plate = {
      {"PLATE", QueryOp::kEQ, std::int64_t{3505},
       meta::MetaMatchKind::kValue}};
  const std::vector<ObjectId> want_meta = meta.query(plate);

  query::ServiceOptions options;
  options.num_servers = 4;
  options.eval_threads = 2;
  options.max_inflight = 1;
  options.queue_limit = 1;
  options.tenant_weights = {1.0, 4.0};
  options.metadata = &meta;
  // One attempt: a shed request surfaces as kOverloaded at once.
  options.retry.attempt_timeout = milliseconds(200);
  options.retry.max_attempts = 1;
  query::QueryService service(*store_, options);
  const std::size_t want_pairs = testing::join_oracle(oracle_case_).size();

  std::atomic<int> joins_ok{0};
  std::atomic<int> joins_shed{0};
  std::atomic<bool> go{false};
  std::atomic<bool> flooding{true};
  std::vector<std::thread> clients;
  for (int c = 0; c < 12; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      query::QueryOptions opts;
      opts.tenant = 0;
      for (int j = 0; j < 3; ++j) {
        const auto strategy = (c + j) % 2 == 0
                                  ? server::JoinStrategy::kZoneShuffle
                                  : server::JoinStrategy::kBroadcast;
        const auto got = service.join(spec(strategy), opts);
        if (got.ok()) {
          EXPECT_EQ(got->pairs.size(), want_pairs);
          ++joins_ok;
        } else {
          EXPECT_EQ(got.status().code(), StatusCode::kOverloaded)
              << got.status().ToString();
          ++joins_shed;
        }
      }
    });
  }
  int meta_ok = 0;
  int meta_calls = 0;
  std::thread metadata_client([&] {
    query::QueryOptions opts;
    opts.tenant = 1;
    while (!go.load()) std::this_thread::yield();
    while (flooding.load()) {
      const auto got = service.meta_query(plate, opts);
      ++meta_calls;
      if (got.ok()) {
        EXPECT_EQ(*got, want_meta);
        ++meta_ok;
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kOverloaded)
            << got.status().ToString();
      }
    }
  });
  go = true;
  for (std::thread& t : clients) t.join();
  flooding = false;
  metadata_client.join();

  const std::string tally =
      std::to_string(joins_ok.load()) + " joins answered, " +
      std::to_string(joins_shed.load()) + " shed; " +
      std::to_string(meta_ok) + " of " + std::to_string(meta_calls) +
      " metadata queries answered";
  EXPECT_GT(joins_shed.load(), 0) << tally;
  EXPECT_GE(2 * meta_ok, meta_calls) << tally;
  // Shedding left nothing behind: the next join gets its exact answer.
  const auto after = service.join(spec(server::JoinStrategy::kZoneShuffle));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->pairs.size(), want_pairs);
}

// import_boss_join_pair rejects nonsense configurations.
TEST(BossJoinWorkload, ConfigValidation) {
  const std::string root = ::testing::TempDir() + "/boss_join_cfg";
  std::filesystem::remove_all(root);
  pfs::PfsConfig cfg;
  cfg.root_dir = root;
  auto cluster = std::move(pfs::PfsCluster::Create(cfg)).value();
  obj::ObjectStore store(*cluster);

  workloads::BossJoinConfig config;
  config.num_a = 0;
  EXPECT_FALSE(workloads::import_boss_join_pair(store, config).ok());
  config = {};
  config.zone_height = 0.0;
  EXPECT_FALSE(workloads::import_boss_join_pair(store, config).ok());
  config = {};
  config.ra_max = config.ra_min;
  EXPECT_FALSE(workloads::import_boss_join_pair(store, config).ok());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace pdc
