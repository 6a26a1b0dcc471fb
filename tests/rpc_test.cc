// Tests for the message bus, server runtime threads and client aggregation.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "rpc/message_bus.h"
#include "rpc/server_runtime.h"

namespace pdc::rpc {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}
std::string string_of(const std::vector<std::uint8_t>& b) {
  return {b.begin(), b.end()};
}

/// The same payload once to every server, in server-id order.
std::vector<std::pair<ServerId, std::vector<std::uint8_t>>> to_all(
    const MessageBus& bus, const std::vector<std::uint8_t>& payload) {
  std::vector<std::pair<ServerId, std::vector<std::uint8_t>>> requests;
  for (ServerId s = 0; s < bus.num_servers(); ++s) {
    requests.emplace_back(s, payload);
  }
  return requests;
}

TEST(Mailbox, PushPopFifo) {
  Mailbox box;
  ASSERT_TRUE(box.push({0, bytes_of("a")}));
  ASSERT_TRUE(box.push({1, bytes_of("b")}));
  EXPECT_EQ(box.pending(), 2u);
  auto m1 = box.pop();
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(string_of(m1->payload), "a");
  auto m2 = box.pop();
  EXPECT_EQ(string_of(m2->payload), "b");
}

TEST(Mailbox, CloseWakesBlockedPopper) {
  Mailbox box;
  std::atomic<bool> returned{false};
  std::thread popper([&] {
    auto m = box.pop();
    EXPECT_FALSE(m.has_value());
    returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  box.close();
  popper.join();
  EXPECT_TRUE(returned);
  EXPECT_FALSE(box.push({0, {}}));  // pushes after close dropped
}

TEST(Mailbox, DrainsQueuedMessagesAfterClose) {
  Mailbox box;
  ASSERT_TRUE(box.push({0, bytes_of("x")}));
  box.close();
  auto m = box.pop();
  ASSERT_TRUE(m.has_value());  // queued message still delivered
  EXPECT_FALSE(box.pop().has_value());
}

TEST(MessageBus, BroadcastReachesAllServers) {
  MessageBus bus(4);
  bus.broadcast(bytes_of("hello"));
  for (ServerId s = 0; s < 4; ++s) {
    EXPECT_EQ(bus.server_mailbox(s).pending(), 1u);
  }
  EXPECT_EQ(bus.messages_sent(), 4u);
  EXPECT_EQ(bus.bytes_transferred(), 20u);
}

TEST(ServerRuntime, EchoRoundTrip) {
  MessageBus bus(3);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 3; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [s](std::span<const std::uint8_t> req) {
          std::string reply = "server" + std::to_string(s) + ":" +
                              std::string(req.begin(), req.end());
          return bytes_of(reply);
        }));
  }
  Client client(bus);
  auto result = client.gather(to_all(bus, bytes_of("ping")));
  ASSERT_TRUE(result.complete());
  // Responses line up with the requests, which are in server-id order.
  for (ServerId s = 0; s < 3; ++s) {
    EXPECT_EQ(result.responses[s]->sender, s);
    EXPECT_EQ(string_of(result.responses[s]->payload),
              "server" + std::to_string(s) + ":ping");
  }
  servers.clear();
  bus.shutdown();
}

TEST(ServerRuntime, ScatterToSubset) {
  MessageBus bus(4);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 4; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [](std::span<const std::uint8_t> req) {
          return std::vector<std::uint8_t>(req.begin(), req.end());
        }));
  }
  Client client(bus);
  std::vector<std::pair<ServerId, std::vector<std::uint8_t>>> requests;
  requests.emplace_back(1, bytes_of("one"));
  requests.emplace_back(3, bytes_of("three"));
  auto result = client.gather(requests);
  ASSERT_TRUE(result.complete());
  ASSERT_EQ(result.responses.size(), 2u);
  EXPECT_EQ(result.responses[0]->sender, 1u);
  EXPECT_EQ(string_of(result.responses[0]->payload), "one");
  EXPECT_EQ(result.responses[1]->sender, 3u);
  EXPECT_EQ(string_of(result.responses[1]->payload), "three");
  servers.clear();
  bus.shutdown();
}

TEST(ServerRuntime, AsyncCollectOverlapsClientWork) {
  MessageBus bus(2);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 2; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [](std::span<const std::uint8_t>) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          return bytes_of("done");
        }));
  }
  Client client(bus);
  auto future = std::async(std::launch::async, [&] {
    return client.gather(to_all(bus, bytes_of("work")));
  });
  // The client thread is free while servers process.
  int side_work = 0;
  for (int i = 0; i < 1000; ++i) side_work += i;
  EXPECT_EQ(side_work, 499500);
  EXPECT_TRUE(future.get().complete());
  servers.clear();
  bus.shutdown();
}

TEST(Mailbox, PopUntilTimesOutThenDelivers) {
  Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  auto none = box.pop_until(t0 + std::chrono::milliseconds(30));
  EXPECT_FALSE(none.has_value());
  EXPECT_FALSE(box.closed());  // timed out, not closed
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(30));
  ASSERT_TRUE(box.push({0, bytes_of("late")}));
  auto m = box.pop_until(std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(30));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(string_of(m->payload), "late");
}

TEST(MessageBus, PushAfterCloseNotDeliveredNotAccounted) {
  MessageBus bus(2);
  bus.broadcast(bytes_of("pre"));
  const auto bytes_before = bus.bytes_transferred();
  const auto messages_before = bus.messages_sent();
  bus.server_mailbox(1).close();
  // In-flight send during shutdown: refused, and stats unchanged.
  EXPECT_FALSE(bus.send_to_server(1, bytes_of("during-shutdown")));
  EXPECT_EQ(bus.bytes_transferred(), bytes_before);
  EXPECT_EQ(bus.messages_sent(), messages_before);
  // The open mailbox still accepts and accounts.
  EXPECT_TRUE(bus.send_to_server(0, bytes_of("ok")));
  EXPECT_EQ(bus.messages_sent(), messages_before + 1);
  bus.shutdown();
  EXPECT_FALSE(bus.send_to_client(0, bytes_of("reply")));
}

TEST(Envelope, WrapUnwrapRoundTrip) {
  Envelope header;
  header.request_id = 77;
  header.attempt = 3;
  header.deadline_us = steady_now_us() + 1000000;
  const auto payload = bytes_of("payload bytes");
  const auto frame = envelope_wrap(header, payload);
  Envelope parsed;
  std::span<const std::uint8_t> body;
  ASSERT_TRUE(envelope_unwrap(frame, parsed, body));
  EXPECT_EQ(parsed.request_id, 77u);
  EXPECT_EQ(parsed.attempt, 3u);
  EXPECT_EQ(parsed.deadline_us, header.deadline_us);
  EXPECT_EQ(std::string(body.begin(), body.end()), "payload bytes");
}

TEST(Envelope, CorruptionDetectedAtEveryByte) {
  Envelope header;
  header.request_id = 1;
  const auto frame = envelope_wrap(header, bytes_of("abc"));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x5A;
    Envelope parsed;
    std::span<const std::uint8_t> body;
    // A flipped byte either breaks the magic/lengths or the checksum; a
    // frame that still parses must at least have an intact payload.
    if (envelope_unwrap(bad, parsed, body)) {
      EXPECT_EQ(std::string(body.begin(), body.end()), "abc") << "byte " << i;
    }
  }
  // Truncated frames never parse.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<std::uint8_t> prefix(frame.begin(),
                                     frame.begin() + static_cast<long>(cut));
    Envelope parsed;
    std::span<const std::uint8_t> body;
    EXPECT_FALSE(envelope_unwrap(prefix, parsed, body)) << "cut " << cut;
  }
}

// The checksum covers every frame byte but itself: the header fields
// (request id, attempt, tenant, flags, deadline, trace ids) included.  A
// single flipped byte anywhere — the FaultInjector's 0xA5, a low bit, a
// high bit — must lose the frame, never parse into a different header
// (a flipped flags byte must not turn a reply into a shed).
TEST(Envelope, EveryFlippedByteIsRejected) {
  Envelope header;
  header.request_id = 0x0102030405060708ull;
  header.attempt = 2;
  header.tenant = 1;
  header.deadline_us = 123456789;
  header.trace_id = 11;
  header.parent_span = 12;
  std::vector<std::uint8_t> payload;
  std::size_t checked = 0;
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::vector<std::uint8_t> baggage(len % 3 == 0 ? 0 : len % 7, 0x5C);
    const auto frame = envelope_wrap(header, payload, baggage);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (const std::uint8_t flip : {0xA5, 0x01, 0x80}) {
        auto bad = frame;
        bad[i] ^= flip;
        Envelope parsed;
        std::span<const std::uint8_t> body;
        ASSERT_FALSE(envelope_unwrap(bad, parsed, body))
            << "payload " << len << " byte " << i << " flip " << int{flip};
        ++checked;
      }
    }
    payload.push_back(static_cast<std::uint8_t>(len * 37 + 11));
  }
  EXPECT_GT(checked, 100000u);
}

// Pin the hash: the checksum is part of the wire format, so a change to it
// must be deliberate.
TEST(Envelope, ChecksumGoldenValues) {
  std::vector<std::uint8_t> bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  EXPECT_EQ(payload_checksum({}), 0x5281910C2E425911ull);
  EXPECT_EQ(payload_checksum(bytes), 0x9222E124AD99D98Cull);
  EXPECT_EQ(payload_checksum(std::span(bytes).first(13), 42),
            0xC5E238091559B964ull);
}

TEST(ClientGather, RetriesRecoverFromDrops) {
  MessageBus bus(2);
  FaultPlan plan;
  plan.seed = 17;
  plan.drop_rate = 0.3;
  FaultInjector injector(plan);
  bus.set_fault_injector(&injector);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 2; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [](std::span<const std::uint8_t> req) {
          return std::vector<std::uint8_t>(req.begin(), req.end());
        }));
  }
  RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(50);
  policy.max_attempts = 10;  // 30% loss per direction: retries must win
  Client client(bus, policy);
  bool saw_retry = false;
  for (int round = 0; round < 5; ++round) {
    auto result = client.gather({{0, bytes_of("a")}, {1, bytes_of("b")}});
    ASSERT_TRUE(result.complete()) << "round " << round;
    EXPECT_EQ(string_of(result.responses[0]->payload), "a");
    EXPECT_EQ(result.responses[1]->payload, bytes_of("b"));
    saw_retry |= result.stats.retries > 0;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_GT(injector.counters().dropped, 0u);
  servers.clear();
  bus.shutdown();
}

TEST(ClientGather, KilledServerReportedAsMissing) {
  MessageBus bus(2);
  FaultPlan plan;
  plan.server_faults.push_back({/*server=*/1, /*after_requests=*/0,
                                ServerFate::kKilled});
  FaultInjector injector(plan);
  bus.set_fault_injector(&injector);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 2; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [](std::span<const std::uint8_t> req) {
          return std::vector<std::uint8_t>(req.begin(), req.end());
        }));
  }
  RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(40);
  policy.max_attempts = 2;
  Client client(bus, policy);
  const auto t0 = std::chrono::steady_clock::now();
  auto result = client.gather({{0, bytes_of("x")}, {1, bytes_of("y")}});
  // Bounded: two attempts of 40ms plus backoff, not a hang.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_FALSE(result.complete());
  ASSERT_TRUE(result.responses[0].has_value());
  EXPECT_EQ(string_of(result.responses[0]->payload), "x");
  EXPECT_FALSE(result.responses[1].has_value());
  EXPECT_GT(result.stats.timeouts, 0u);
  EXPECT_GT(result.stats.retries, 0u);
  servers.clear();
  bus.shutdown();
}

TEST(ClientGather, DuplicatedResponsesDiscardedBySequenceId) {
  MessageBus bus(1);
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate_rate = 1.0;  // every message sent twice
  FaultInjector injector(plan);
  bus.set_fault_injector(&injector);
  ServerRuntime server(bus, 0, [](std::span<const std::uint8_t> req) {
    return std::vector<std::uint8_t>(req.begin(), req.end());
  });
  Client client(bus);
  for (std::uint8_t i = 0; i < 4; ++i) {
    auto result = client.gather({{0, {i}}});
    ASSERT_TRUE(result.complete());
    EXPECT_EQ(result.responses[0]->payload, (std::vector<std::uint8_t>{i}));
  }
  EXPECT_GT(injector.counters().duplicated, 0u);
}

// Regression: a gather issued while another thread's gather is still
// outstanding shares the single client mailbox.  Without serialization the
// two poppers consume and discard each other's responses as stale, causing
// spurious timeouts; both must complete with their own responses intact.
TEST(ClientGather, ConcurrentBroadcastAndGatherDoNotStealResponses) {
  MessageBus bus(2);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 2; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s, [](std::span<const std::uint8_t> req) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          return std::vector<std::uint8_t>(req.begin(), req.end());
        }));
  }
  Client client(bus);
  for (int round = 0; round < 10; ++round) {
    auto future = std::async(std::launch::async, [&] {
      return client.gather(to_all(bus, bytes_of("bg")));
    });
    auto result = client.gather({{0, bytes_of("fg0")}, {1, bytes_of("fg1")}});
    ASSERT_TRUE(result.complete()) << "round " << round;
    EXPECT_EQ(string_of(result.responses[0]->payload), "fg0");
    EXPECT_EQ(string_of(result.responses[1]->payload), "fg1");
    EXPECT_EQ(result.stats.timeouts, 0u);
    auto bg = future.get();
    ASSERT_TRUE(bg.complete()) << "round " << round;
    for (const auto& m : bg.responses) EXPECT_EQ(string_of(m->payload), "bg");
  }
  servers.clear();
  bus.shutdown();
}

TEST(Mailbox, BoundedOfferRejectsAtCapacity) {
  Mailbox box;
  box.set_capacity(2);
  EXPECT_EQ(box.capacity(), 2u);
  EXPECT_EQ(box.offer({0, bytes_of("a")}), PushOutcome::kAccepted);
  EXPECT_EQ(box.offer({1, bytes_of("b")}), PushOutcome::kAccepted);
  EXPECT_EQ(box.offer({2, bytes_of("c")}), PushOutcome::kRejectedFull);
  EXPECT_EQ(box.rejected_full(), 1u);
  EXPECT_EQ(box.peak(), 2u);
  // Draining frees capacity again.
  ASSERT_TRUE(box.pop().has_value());
  EXPECT_EQ(box.offer({3, bytes_of("d")}), PushOutcome::kAccepted);
  box.close();
  EXPECT_EQ(box.offer({4, bytes_of("e")}), PushOutcome::kClosed);
}

// Regression for the overload scenario the capacity exists for: a burst
// far past the bound must not grow the queue (memory) beyond it — extra
// messages are rejected at the door, visibly counted.
TEST(Mailbox, BurstCannotGrowMemoryPastCapacity) {
  Mailbox box;
  box.set_capacity(8);
  constexpr std::size_t kBurst = 10000;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < kBurst; ++i) {
    if (box.offer({static_cast<std::uint32_t>(i), bytes_of("x")}) ==
        PushOutcome::kAccepted) {
      ++accepted;
    }
    ASSERT_LE(box.pending(), 8u) << "message " << i;
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(box.peak(), 8u);
  EXPECT_EQ(box.rejected_full(), kBurst - 8u);
}

TEST(WeightedFairQueue, SingleTenantIsFifo) {
  WeightedFairQueue<int> queue;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.push(0, i).accepted);
  }
  for (int i = 0; i < 5; ++i) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(item->first, 0u);
    EXPECT_EQ(item->second, i);
  }
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_EQ(queue.peak(), 5u);
  EXPECT_EQ(queue.sheds(), 0u);
}

TEST(WeightedFairQueue, WeightsSplitServiceThreeToOne) {
  // Both tenants stay backlogged; weight-3 tenant must receive ~3 of
  // every 4 service slots under virtual-time WFQ.
  WeightedFairQueue<int> queue(0, ShedPolicy::kRejectNew, {3.0, 1.0});
  for (int i = 0; i < 40; ++i) {
    queue.push(0, i);
    queue.push(1, i);
  }
  int heavy_in_first_20 = 0;
  for (int i = 0; i < 20; ++i) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    if (item->first == 0) ++heavy_in_first_20;
  }
  EXPECT_EQ(heavy_in_first_20, 15);  // exactly 3:1 while both backlogged
}

TEST(WeightedFairQueue, PopOrderIsDeterministic) {
  const auto run = [] {
    WeightedFairQueue<int> queue(0, ShedPolicy::kRejectNew, {2.0, 1.0, 1.0});
    int next = 0;
    for (int round = 0; round < 10; ++round) {
      for (std::uint32_t t = 0; t < 3; ++t) queue.push(t, next++);
    }
    std::vector<std::pair<std::uint32_t, int>> order;
    while (auto item = queue.pop()) order.push_back(*item);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(WeightedFairQueue, RejectNewShedsTheArrival) {
  WeightedFairQueue<int> queue(2, ShedPolicy::kRejectNew);
  EXPECT_TRUE(queue.push(0, 1).accepted);
  EXPECT_TRUE(queue.push(0, 2).accepted);
  auto result = queue.push(7, 3);
  EXPECT_FALSE(result.accepted);
  ASSERT_TRUE(result.victim.has_value());
  EXPECT_EQ(result.victim->tenant, 7u);
  EXPECT_EQ(result.victim->item, 3);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.sheds(), 1u);
  // The queue itself is untouched: 1 then 2 still come out.
  EXPECT_EQ(queue.pop()->second, 1);
  EXPECT_EQ(queue.pop()->second, 2);
}

TEST(WeightedFairQueue, DropOldestEvictsLongestWaiting) {
  WeightedFairQueue<int> queue(2, ShedPolicy::kDropOldest);
  EXPECT_TRUE(queue.push(3, 1).accepted);
  EXPECT_TRUE(queue.push(0, 2).accepted);
  auto result = queue.push(0, 3);
  EXPECT_TRUE(result.accepted);  // the arrival got in...
  ASSERT_TRUE(result.victim.has_value());
  EXPECT_EQ(result.victim->item, 1);  // ...at the oldest entry's expense
  EXPECT_EQ(result.victim->tenant, 3u);
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop()->second, 2);
  EXPECT_EQ(queue.pop()->second, 3);
}

// Overload end-to-end: a server with one slot and a one-deep wait queue
// receives a burst of concurrent gathers.  Excess requests are shed with
// kFlagShed (visible in server sheds() and client RpcStats), the shed
// clients' retries honour the retry-after hint, and with generous retry
// budgets every request eventually completes — overload degrades to
// queueing delay, not to lost or wrongly-answered requests.
TEST(ServerRuntime, ShedsPastQueueLimitAndRetriesRecover) {
  MessageBus bus(1);
  exec::ThreadPool pool(2);
  ServerRuntimeOptions options;
  options.pool = &pool;
  options.max_inflight = 1;
  options.queue_limit = 1;
  options.shed_retry_after_us = 500;
  ServerRuntime server(bus, 0, [](std::span<const std::uint8_t> req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return std::vector<std::uint8_t>(req.begin(), req.end());
  }, options);
  RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(250);
  policy.max_attempts = 30;
  policy.backoff_jitter = 0.5;
  Client client(bus, policy);

  constexpr int kClients = 8;
  std::atomic<std::uint64_t> total_sheds{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto result = client.gather({{0, {static_cast<std::uint8_t>(c)}}});
      if (result.complete() &&
          result.responses[0]->payload ==
              std::vector<std::uint8_t>{static_cast<std::uint8_t>(c)}) {
        ++completed;
      }
      total_sheds += result.stats.sheds;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(completed.load(), kClients);
  // 8 concurrent requests vs 1 running + 1 queued: someone was shed.
  EXPECT_GT(server.sheds(), 0u);
  EXPECT_GT(total_sheds.load(), 0u);
  EXPECT_LE(server.queue_peak(), 1u);
  bus.shutdown();
}

// A request that is only ever shed must be reported as shed (server
// overloaded, alive) rather than as a timeout (server dead) — the signal
// the query layer uses to return kOverloaded instead of degrading.
TEST(ClientGather, ShedMarkedDistinctFromTimeout) {
  MessageBus bus(1);
  exec::ThreadPool pool(1);
  ServerRuntimeOptions options;
  options.pool = &pool;
  options.max_inflight = 1;
  options.queue_limit = 1;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ServerRuntime server(bus, 0,
                       [released](std::span<const std::uint8_t> req) {
                         released.wait();
                         return std::vector<std::uint8_t>(req.begin(),
                                                          req.end());
                       },
                       options);
  RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(500);
  policy.max_attempts = 2;
  Client client(bus, policy);
  // Occupy the single slot, then the single queue entry.
  auto slot = std::async(std::launch::async, [&] {
    return client.gather({{0, bytes_of("slot")}});
  });
  auto queued = std::async(std::launch::async, [&] {
    return client.gather({{0, bytes_of("wait")}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // This one finds slot + queue full: shed on every attempt.
  const auto t0 = std::chrono::steady_clock::now();
  auto result = client.gather({{0, bytes_of("extra")}});
  // Shed replies wake the gather early — it must not sit out full
  // attempt windows.
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(900));
  EXPECT_FALSE(result.complete());
  ASSERT_EQ(result.shed.size(), 1u);
  EXPECT_TRUE(result.shed[0]);
  EXPECT_GT(result.stats.sheds, 0u);
  EXPECT_EQ(result.stats.timeouts, 0u);
  release.set_value();
  EXPECT_TRUE(slot.get().complete());
  EXPECT_TRUE(queued.get().complete());
  bus.shutdown();
}

TEST(ServerRuntime, SequentialRequestsProcessedInOrder) {
  MessageBus bus(1);
  std::vector<int> seen;
  ServerRuntime server(bus, 0, [&seen](std::span<const std::uint8_t> req) {
    seen.push_back(req[0]);
    return std::vector<std::uint8_t>{req[0]};
  });
  Client client(bus);
  for (std::uint8_t i = 0; i < 5; ++i) {
    auto result = client.gather({{0, {i}}});
    ASSERT_TRUE(result.complete());
    EXPECT_EQ(result.responses[0]->payload[0], i);
  }
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
}

// A deferred reply: the handler parks its Reply and returns, which frees
// the request's only inflight slot at once — a second request is served
// while the first is still unanswered — and the parked Reply, sent later
// from another thread, answers the first request's id.
TEST(ServerRuntime, DeferredReplyFreesSlotAndAnswersLater) {
  MessageBus bus(1);
  exec::ThreadPool pool(1);
  ServerRuntimeOptions options;
  options.pool = &pool;
  options.max_inflight = 1;
  std::mutex mu;
  std::optional<Reply> parked;
  ServerRuntime server(
      bus, 0,
      ServerRuntime::AsyncHandler([&](std::span<const std::uint8_t> req,
                                      const obs::TraceContext&, Reply reply) {
        if (req[0] == 'p') {
          std::lock_guard lock(mu);
          parked = std::move(reply);
          return;
        }
        std::move(reply).send(bytes_of("served"));
      }),
      options);
  Client client(bus);
  auto parked_call = std::async(std::launch::async, [&] {
    return client.gather({{0, bytes_of("park")}});
  });
  for (bool waiting = true; waiting; std::this_thread::yield()) {
    std::lock_guard lock(mu);
    waiting = !parked.has_value();
  }
  const auto served = client.gather({{0, bytes_of("serve")}});
  ASSERT_TRUE(served.complete());
  EXPECT_EQ(string_of(served.responses[0]->payload), "served");
  std::thread([&] {
    std::lock_guard lock(mu);
    std::move(*parked).send(bytes_of("parked reply"));
  }).join();
  const auto answered = parked_call.get();
  ASSERT_TRUE(answered.complete());
  EXPECT_EQ(string_of(answered.responses[0]->payload), "parked reply");
  EXPECT_EQ(answered.stats.retries, 0u);
}

TEST(ClientGather, RequestSpanEndsAtItsOwnReply) {
  // Server 2 takes 20 ms; the other two answer at once.  Their request
  // spans must close at their own replies, not when the gather returns.
  MessageBus bus(3);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  for (ServerId s = 0; s < 3; ++s) {
    servers.push_back(std::make_unique<ServerRuntime>(
        bus, s,
        ServerRuntime::TracedHandler(
            [s](std::span<const std::uint8_t> req, const obs::TraceContext&) {
              if (s == 2) {
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
              }
              return std::vector<std::uint8_t>(req.begin(), req.end());
            })));
  }
  Client client(bus);
  obs::Tracer tracer(obs::next_id());
  const obs::SpanId root = tracer.begin(0, "client.query", "client");
  const GatherResult result =
      client.gather(to_all(bus, bytes_of("q")),
                    obs::TraceContext{&tracer, tracer.trace_id(), root});
  tracer.end(root);
  ASSERT_TRUE(result.complete());
  const obs::Trace trace = tracer.take();
  // Server spans still nest inside their (now earlier-closing) requests.
  const Status valid = obs::validate_trace(trace);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  std::vector<const obs::Span*> requests(3, nullptr);
  for (const obs::Span& span : trace.spans) {
    if (span.name == "rpc.request") {
      requests[static_cast<std::size_t>(span.arg("server"))] = &span;
    }
  }
  const obs::Span* slow_handle = nullptr;
  for (const obs::Span& span : trace.spans) {
    if (span.name == "server.handle" && span.parent == requests[2]->id) {
      slow_handle = &span;
    }
  }
  ASSERT_NE(slow_handle, nullptr);
  for (ServerId s = 0; s < 3; ++s) {
    ASSERT_NE(requests[s], nullptr);
    EXPECT_EQ(requests[s]->arg("responded"), 1.0);
  }
  EXPECT_LT(requests[0]->end_us, slow_handle->end_us);
  EXPECT_LT(requests[1]->end_us, slow_handle->end_us);
  EXPECT_GE(requests[2]->end_us, slow_handle->end_us);
  servers.clear();
  bus.shutdown();
}

TEST(ClientGather, UnansweredRequestSpanEndsAtGatherReturn) {
  // Server 1 never answers: its request span closes when the gather gives
  // up, marked unanswered.
  MessageBus bus(2);
  std::vector<std::unique_ptr<ServerRuntime>> servers;
  servers.push_back(std::make_unique<ServerRuntime>(
      bus, 0, [](std::span<const std::uint8_t> req) {
        return std::vector<std::uint8_t>(req.begin(), req.end());
      }));
  RetryPolicy policy;
  policy.attempt_timeout = std::chrono::milliseconds(20);
  policy.max_attempts = 1;
  Client client(bus, policy);
  obs::Tracer tracer(obs::next_id());
  const obs::SpanId root = tracer.begin(0, "client.query", "client");
  const GatherResult result =
      client.gather(to_all(bus, bytes_of("q")),
                    obs::TraceContext{&tracer, tracer.trace_id(), root});
  tracer.end(root);
  EXPECT_TRUE(result.responses[0].has_value());
  EXPECT_FALSE(result.responses[1].has_value());
  const obs::Trace trace = tracer.take();
  EXPECT_TRUE(obs::validate_trace(trace).ok());
  for (const obs::Span& span : trace.spans) {
    if (span.name != "rpc.request") continue;
    EXPECT_EQ(span.arg("responded"), span.arg("server") == 0.0 ? 1.0 : 0.0);
  }
  servers.clear();
  bus.shutdown();
}

}  // namespace
}  // namespace pdc::rpc
