// Concurrency battery for the intra-server execution pool (PR 3).
//
// Two layers of coverage:
//   1. ThreadPool / TaskGroup self-tests — stealing actually happens,
//      exceptions propagate out of wait(), shutdown drains queued work,
//      nested fork-join on a size-1 pool cannot deadlock.
//   2. A multi-client stress test: N client threads issue overlapping
//      queries / get-data / metadata ops against one pooled QueryService
//      and every result must be bit-identical to a serial baseline.
//
// The whole file runs under the `tsan` ctest label (tools/run_tsan.sh), so
// any data race in the pool, the RPC demux or the shared server state is a
// hard failure, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec_pool.h"
#include "common/rng.h"
#include "query/service.h"
#include "sortrep/sorted_replica.h"

namespace pdc {
namespace {

using exec::TaskGroup;
using exec::ThreadPool;

// ------------------------------------------------------------ pool basics

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> counts(kN);
  exec::parallel_for(&pool, kN, [&](std::size_t i) { counts[i]++; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);

  const exec::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, stats.executed);
  EXPECT_GE(stats.submitted, kN);
}

TEST(ThreadPoolTest, NullPoolParallelForRunsInline) {
  constexpr std::size_t kN = 64;
  std::vector<int> counts(kN, 0);
  const auto self = std::this_thread::get_id();
  exec::parallel_for(nullptr, kN, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    counts[i]++;
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i], 1);
}

TEST(ThreadPoolTest, WorkStealingMovesTasksAcrossWorkers) {
  ThreadPool pool(4);
  // A task spawned from inside a pool worker lands on that worker's own
  // deque; the only way another thread runs it is a steal.  Spawn a burst
  // of sleepy children from one parent task and repeat until the steal
  // counter moves (scheduling is nondeterministic; the loop keeps the test
  // robust on a loaded single-core CI box).
  std::set<std::thread::id> seen;
  std::mutex seen_mu;
  for (int round = 0; round < 20 && pool.stats().steals == 0; ++round) {
    TaskGroup group(&pool);
    group.spawn([&] {
      TaskGroup children(&pool);
      for (int i = 0; i < 64; ++i) {
        children.spawn([&] {
          {
            std::lock_guard lock(seen_mu);
            seen.insert(std::this_thread::get_id());
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
      }
      children.wait();
    });
    group.wait();
  }
  EXPECT_GT(pool.stats().steals, 0u);
  // The helping parent plus at least one thief.
  EXPECT_GT(seen.size(), 1u);
}

TEST(ThreadPoolTest, ExceptionPropagatesOutOfWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> survivors{0};
  group.spawn([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) group.spawn([&] { survivors++; });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // A throwing sibling must not cancel or wedge the rest of the group...
  EXPECT_EQ(survivors.load(), 8);
  // ...and the pool stays usable afterwards.
  std::atomic<bool> ran{false};
  TaskGroup after(&pool);
  after.spawn([&] { ran = true; });
  after.wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ShutdownWithQueuedWorkDrainsEverything) {
  std::atomic<std::uint64_t> executed{0};
  constexpr std::uint64_t kTasks = 200;
  {
    ThreadPool pool(2);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        executed++;
      });
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(ThreadPoolTest, NestedGroupsOnSizeOnePoolDoNotDeadlock) {
  // wait() helps (runs queued tasks on the waiting thread), so even a
  // single worker can execute a request task that itself fans out region
  // tasks — the exact shape ServerRuntime + QueryServer produce.
  ThreadPool pool(1);
  std::atomic<int> leaves{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 4; ++i) {
    outer.spawn([&] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) inner.spawn([&] { leaves++; });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 32);
}

TEST(ThreadPoolTest, RapidGroupTurnoverDoesNotRaceDestruction) {
  // Regression: the last task's completion callback used to decrement
  // outstanding_ outside mu_, so the waiter could observe 0 through the
  // atomic fast path, return, and destroy the stack-allocated group while
  // the worker was still locking the (now destroyed) mutex to notify.
  // Tiny short-lived groups destroyed immediately after wait() maximize
  // that window; under TSan a regression shows up as a destroyed-lock
  // report, without TSan as a crash/hang under load.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> ran{0};
  for (int round = 0; round < 2000; ++round) {
    exec::parallel_for(&pool, 2, [&](std::size_t) { ran++; });
  }
  EXPECT_EQ(ran.load(), 4000u);
}

TEST(ThreadPoolTest, HelpingWaitSkipsUnrelatedTasks) {
  // A region-level wait must not inline a whole unrelated task (e.g. a
  // full request ServerRuntime queued on the same pool): helping is
  // filtered to the waiting group's own tasks.
  std::atomic<bool> gate_entered{false};
  std::atomic<bool> gate_release{false};
  std::atomic<bool> unrelated_ran{false};
  std::atomic<bool> own_ran{false};
  {
    ThreadPool pool(1);
    pool.submit([&] {
      gate_entered = true;
      while (!gate_release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
    while (!gate_entered.load()) std::this_thread::yield();
    // The only worker is parked in the gate; both tasks below stay queued.
    pool.submit([&] { unrelated_ran = true; });
    TaskGroup group(&pool);
    group.spawn([&] { own_ran = true; });
    group.wait();  // helps: runs its own task, must skip the unrelated one
    EXPECT_TRUE(own_ran.load());
    EXPECT_FALSE(unrelated_ran.load());
    gate_release = true;
    // Pool destructor drains the still-queued unrelated task.
  }
  EXPECT_TRUE(unrelated_ran.load());
}

TEST(ThreadPoolTest, StatsCountersAreConsistent) {
  ThreadPool pool(3);
  exec::parallel_for(&pool, 100, [](std::size_t) {});
  const exec::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
  EXPECT_GE(stats.queue_peak, 1u);
}

TEST(ThreadPoolTest, QueuePeakNeverExceedsSubmittedUnderContention) {
  // Regression: submit() counted a task as queued only after pushing it,
  // so a worker could pop it and decrement first; with the queue near
  // empty the counter wrapped below zero and the peak read ~1.8e19.  Many
  // more submitters than cores get preempted inside that window, and the
  // busy work between submits keeps the workers ahead, so the queue stays
  // near empty.  Every task spawns a child onto its worker's own deque,
  // which idle peers steal.
  ThreadPool pool(4);
  constexpr int kSubmitters = 16;
  constexpr int kTasksEach = 10000;
  std::atomic<std::uint64_t> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&] {
      TaskGroup group(&pool);
      for (int i = 0; i < kTasksEach; ++i) {
        volatile int sink = 0;
        for (int k = 0; k < 1000; ++k) sink = sink + k;
        group.spawn([&] {
          if (ran.fetch_add(1) % 16 == 0) {
            TaskGroup child(&pool);
            child.spawn([&] { ran++; });
            child.wait();
          }
        });
      }
      group.wait();
    });
  }
  for (std::thread& t : submitters) t.join();
  const exec::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.submitted, ran.load());
  EXPECT_GE(stats.queue_peak, 1u);
  EXPECT_LE(stats.queue_peak, stats.submitted);
}

// -------------------------------------------------- multi-client stress

/// Small QueryEnv: two correlated float columns with regions, histograms,
/// bitmap indexes and a sorted replica over the key column.
class StressEnv {
 public:
  static constexpr std::uint64_t kN = 16384;

  explicit StressEnv(const std::string& root) : root_(root) {
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);

    Rng rng(0xC0C0);
    energy_.resize(kN);
    x_.resize(kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
      const bool tail = rng.next_double() < 0.01;
      energy_[i] = static_cast<float>(tail ? 2.0 + rng.exponential(4.0)
                                           : rng.uniform(0.0, 2.0));
      x_[i] = static_cast<float>(rng.uniform(0.0, 100.0));
    }

    obj::ImportOptions options;
    options.region_size_bytes = 2048;  // 512 floats per region
    const ObjectId container =
        std::move(store_->create_container("stress")).value();
    energy_id_ =
        std::move(store_->import_object<float>(
                      container, "Energy", std::span<const float>(energy_),
                      options))
            .value();
    x_id_ = std::move(store_->import_object<float>(
                          container, "x", std::span<const float>(x_), options))
                .value();
    for (const ObjectId id : {energy_id_, x_id_}) {
      auto s = store_->build_bitmap_index(id);
      if (!s.ok()) std::abort();
    }
    auto replica = sortrep::build_sorted_replica(*store_, energy_id_, options);
    if (!replica.ok()) std::abort();
  }

  ~StressEnv() { std::filesystem::remove_all(root_); }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  std::vector<float> energy_, x_;
  ObjectId energy_id_ = kInvalidObjectId;
  ObjectId x_id_ = kInvalidObjectId;
};

struct ExpectedResult {
  std::uint64_t num_hits = 0;
  std::vector<std::uint64_t> positions;
  std::vector<float> values;  ///< energy values at positions
};

class ConcurrencyStress
    : public ::testing::TestWithParam<server::Strategy> {};

TEST_P(ConcurrencyStress, OverlappingClientsMatchSerialBaseline) {
  StressEnv env(::testing::TempDir() + "/pdc_concurrency_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());

  // A spread of queries: selective tail, broad bulk, conjunction, empty.
  std::vector<query::QueryPtr> queries;
  queries.push_back(
      query::q_and(query::create(env.energy_id_, QueryOp::kGT, 2.5),
                   query::create(env.energy_id_, QueryOp::kLT, 4.0)));
  queries.push_back(query::create(env.energy_id_, QueryOp::kLT, 0.25));
  queries.push_back(
      query::q_and(query::create(env.energy_id_, QueryOp::kGT, 1.5),
                   query::create(env.x_id_, QueryOp::kLT, 20.0)));
  queries.push_back(query::create(env.energy_id_, QueryOp::kGT, 1e9));

  // Serial baseline: eval_threads = 0 (no pool at all).
  query::ServiceOptions serial_options;
  serial_options.strategy = GetParam();
  serial_options.num_servers = 3;
  serial_options.eval_threads = 0;

  std::vector<ExpectedResult> expected;
  {
    query::QueryService serial(*env.store_, serial_options);
    for (const auto& q : queries) {
      auto sel = serial.get_selection(q);
      ASSERT_TRUE(sel.ok()) << sel.status().ToString();
      ExpectedResult e;
      e.num_hits = sel->num_hits;
      e.positions = sel->positions;
      e.values.resize(sel->num_hits);
      if (sel->num_hits > 0) {
        auto s = serial.get_data<float>(env.energy_id_, *sel,
                                        std::span<float>(e.values),
                                        query::GetDataMode::kByPositions);
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
      expected.push_back(std::move(e));
    }
  }

  // Pooled service: 4 workers, 4 in-flight requests per server, hammered
  // by 4 client threads issuing the same queries in different orders.
  query::ServiceOptions pooled_options = serial_options;
  pooled_options.eval_threads = 4;
  pooled_options.max_inflight = 4;
  query::QueryService pooled(*env.store_, pooled_options);

  auto baseline_hist = pooled.get_histogram(env.energy_id_);
  ASSERT_TRUE(baseline_hist.ok());

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::string> failures;
  std::mutex failures_mu;
  auto fail = [&](std::string msg) {
    std::lock_guard lock(failures_mu);
    failures.push_back(std::move(msg));
  };

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < queries.size(); ++k) {
          // Different visiting order per client => overlapping mixes.
          const std::size_t qi =
              (k + static_cast<std::size_t>(c)) % queries.size();
          const ExpectedResult& want = expected[qi];

          auto nhits = pooled.get_num_hits(queries[qi]);
          if (!nhits.ok() || *nhits != want.num_hits) {
            fail("get_num_hits mismatch on query " + std::to_string(qi));
            return;
          }

          auto sel = pooled.get_selection(queries[qi]);
          if (!sel.ok() || sel->num_hits != want.num_hits ||
              sel->positions != want.positions) {
            fail("get_selection mismatch on query " + std::to_string(qi));
            return;
          }

          if (want.num_hits > 0) {
            std::vector<float> got(want.num_hits);
            auto s = pooled.get_data<float>(env.energy_id_, *sel,
                                            std::span<float>(got),
                                            query::GetDataMode::kByPositions);
            if (!s.ok() ||
                std::memcmp(got.data(), want.values.data(),
                            got.size() * sizeof(float)) != 0) {
              fail("get_data mismatch on query " + std::to_string(qi));
              return;
            }
          }

          // Metadata op interleaved with the query traffic.
          auto hist = pooled.get_histogram(env.energy_id_);
          if (!hist.ok()) {
            fail("get_histogram failed under concurrency");
            return;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  for (const auto& f : failures) ADD_FAILURE() << f;
  EXPECT_TRUE(failures.empty());

  // The pool actually ran: stats from the last completed op carry the
  // worker count.
  const query::OpStats stats = pooled.last_stats();
  EXPECT_EQ(stats.pool_threads, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, ConcurrencyStress,
    ::testing::Values(server::Strategy::kFullScan,
                      server::Strategy::kHistogram,
                      server::Strategy::kHistogramIndex,
                      server::Strategy::kSortedHistogram,
                      server::Strategy::kAdaptive),
    [](const ::testing::TestParamInfo<server::Strategy>& info) {
      switch (info.param) {
        case server::Strategy::kFullScan: return std::string("FullScan");
        case server::Strategy::kHistogram: return std::string("Histogram");
        case server::Strategy::kHistogramIndex:
          return std::string("HistogramIndex");
        case server::Strategy::kSortedHistogram:
          return std::string("SortedHistogram");
        case server::Strategy::kAdaptive: return std::string("Adaptive");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace pdc
