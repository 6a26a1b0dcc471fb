// Deterministic fault injection for the in-process RPC transport.
//
// The paper's deployment runs one PDC server per node on 64-512 Cori nodes,
// where slow and failed servers are a fact of life.  A FaultInjector is the
// in-process analogue: a seedable plan that drops, delays, duplicates or
// corrupts messages as they cross the MessageBus, and kills or stalls a
// server's request loop mid-run.  The query service must return exactly the
// fault-free answer under any plan (only slower), which the chaos tests
// assert.
//
// Determinism: all probabilistic draws come from one seeded xoshiro256**
// stream guarded by a mutex.  A fixed seed fixes the fault pattern for a
// fixed message order; thread interleaving may permute which message draws
// which fault, but the *rate* and the scripted server kills are exact.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace pdc::rpc {

/// Which way a message is travelling across the bus.
enum class Direction : std::uint8_t {
  kClientToServer = 0,
  kServerToClient = 1,
  kServerToServer = 2,  ///< exchange-operator shuffle traffic
};

/// What happens to a server's request loop when it reaches its scripted
/// fault point.
enum class ServerFate : std::uint8_t {
  kAlive = 0,   ///< keep serving
  kKilled,      ///< request loop exits; mailbox drains into the void
  kStalled,     ///< thread wedges (holds until shutdown) without replying
};

/// Declarative, seedable description of the faults to inject.
struct FaultPlan {
  std::uint64_t seed = 1;

  // Per-message probabilities, applied independently on every send.
  double drop_rate = 0.0;       ///< message silently lost
  double delay_rate = 0.0;      ///< delivery postponed by a random delay
  double duplicate_rate = 0.0;  ///< message delivered twice
  double corrupt_rate = 0.0;    ///< one payload byte flipped in transit

  /// Uniform delay range for delayed messages.
  std::chrono::milliseconds min_delay{1};
  std::chrono::milliseconds max_delay{20};

  /// Apply the per-message faults above only to messages travelling this
  /// way (e.g. only the exchange lane); empty = every direction.
  std::optional<Direction> only_direction;

  /// Scripted whole-server failures (node crash / wedged daemon analogue).
  struct ServerFault {
    ServerId server = 0;
    /// The loop dies before handling its Nth request (0 = never comes up).
    std::uint64_t after_requests = 0;
    ServerFate fate = ServerFate::kKilled;
  };
  std::vector<ServerFault> server_faults;
};

/// Counters for observing what the injector actually did.
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t servers_failed = 0;
};

/// Per-send verdict returned to the MessageBus.
struct SendDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  std::chrono::milliseconds delay{0};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Consulted by the bus on every send.  Thread-safe.
  SendDecision on_send(Direction direction, ServerId server,
                       std::span<const std::uint8_t> payload);

  /// Flip one deterministic byte of `payload` (no-op when empty).
  void corrupt(std::vector<std::uint8_t>& payload);

  /// Consulted by a ServerRuntime before handling each request; the
  /// injector tracks per-server request counts internally.  Thread-safe
  /// (each server calls from its own thread).
  ServerFate on_server_request(ServerId server);

  [[nodiscard]] FaultCounters counters() const;

 private:
  FaultPlan plan_;
  mutable std::mutex mu_;
  Rng rng_;
  FaultCounters counters_;
  /// Requests handled so far, per server id (grown on demand).
  std::vector<std::uint64_t> handled_;
  std::vector<bool> failed_;
};

}  // namespace pdc::rpc
