// In-process message transport between one client and N PDC servers.
//
// Each server owns a mailbox (thread-safe queue of byte-buffer messages);
// the client owns one too.  Everything that crosses a mailbox is a
// serialized byte vector — no pointers are shared — which enforces the same
// data-movement discipline as the real system's Mercury RPC transport and
// lets the query layer meter network bytes for the cost model.
//
// Fault model: the bus optionally consults a FaultInjector on every send,
// which may drop, delay, duplicate or corrupt the message in transit —
// the in-process analogue of a lossy interconnect.  Reliability on top of
// this lossy substrate comes from the request envelopes below plus the
// deadline/retry logic in rpc::Client.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/types.h"
#include "rpc/fault.h"

namespace pdc::rpc {

/// Sender id used for messages originating at the client.
inline constexpr std::uint32_t kClientSender = 0xFFFFFFFFu;

struct Message {
  std::uint32_t sender = kClientSender;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------- envelope

/// Transport header wrapped around every request/response payload.  Carries
/// the request id (stable across retries, so stale/duplicate responses can
/// be discarded), the attempt number, the absolute deadline after which the
/// receiver may drop the message unprocessed, the trace id + parent span id
/// of the issuing operation (zero when untraced), and a checksum over every
/// other frame byte so in-transit corruption is detected at the transport layer
/// (the lost message is then recovered by the client's retry, exactly like
/// a drop).
struct Envelope {
  std::uint64_t request_id = 0;
  std::uint32_t attempt = 0;
  /// Requesting tenant (fairness identity for the server-side weighted-fair
  /// scheduler; 0 = the default tenant).
  std::uint32_t tenant = 0;
  /// Transport flags (kFlagShed on a load-shed reply).
  std::uint32_t flags = 0;
  /// Microseconds since the steady-clock epoch; 0 = no deadline.
  std::uint64_t deadline_us = 0;
  /// Trace propagation (obs::Tracer): 0 = this request is not traced.
  std::uint64_t trace_id = 0;
  /// Client-side span that server-side spans attach under.
  std::uint64_t parent_span = 0;
};

/// Envelope::flags bit: this frame is a load-shed rejection, not a real
/// response.  Its payload is the serialized retry-after hint
/// (std::uint64_t microseconds) from the shedding server.
inline constexpr std::uint32_t kFlagShed = 1u << 0;

/// Current steady-clock time in the Envelope::deadline_us unit.
[[nodiscard]] std::uint64_t steady_now_us() noexcept;

/// Word-wise 64-bit transport checksum of `data`, chained from `seed`: four
/// 64-bit lanes over 8-byte words.  Two inputs of the same length that
/// differ within one 8-byte word never collide.  An envelope's checksum is
/// payload_checksum(body, payload_checksum(header)): it covers every frame
/// byte except the checksum field itself.
[[nodiscard]] std::uint64_t payload_checksum(std::span<const std::uint8_t> data,
                                             std::uint64_t seed = 0) noexcept;

/// Serialize `header` + `payload` into one wire frame.  `trace_blob` is
/// transport baggage appended after the payload (serialized obs spans on a
/// response to a traced request); it travels under the same checksum but
/// is invisible to the wire protocol above the transport.
[[nodiscard]] std::vector<std::uint8_t> envelope_wrap(
    const Envelope& header, std::span<const std::uint8_t> payload,
    std::span<const std::uint8_t> trace_blob = {});

/// Parse a wire frame.  Returns false (and leaves outputs untouched) when
/// the frame is malformed or fails its checksum — the caller must treat the
/// message as lost.  On success `payload` borrows from `frame`.
[[nodiscard]] bool envelope_unwrap(std::span<const std::uint8_t> frame,
                                   Envelope& header,
                                   std::span<const std::uint8_t>& payload);

/// As above, also exposing the trailing trace baggage (empty when none).
[[nodiscard]] bool envelope_unwrap(std::span<const std::uint8_t> frame,
                                   Envelope& header,
                                   std::span<const std::uint8_t>& payload,
                                   std::span<const std::uint8_t>& trace_blob);

// ----------------------------------------------------------------- mailbox

/// Outcome of a Mailbox::offer.  kClosed and kRejectedFull both mean "never
/// delivered", but callers that implement backpressure need to tell the
/// transient full condition (retryable) apart from shutdown (terminal).
enum class PushOutcome : std::uint8_t {
  kAccepted = 0,
  kClosed,        ///< mailbox closed; message dropped
  kRejectedFull,  ///< bounded mailbox at capacity; message dropped
};

/// MPSC queue with blocking pop, close semantics, and an optional capacity
/// bound (the transport-level backstop beneath admission control: a burst
/// past capacity is rejected at the door instead of growing memory without
/// bound).
///
/// Shutdown contract: after close(), push() returns false and the message
/// is NOT delivered; messages queued before close() still drain through
/// pop().  Callers must treat a false push as "never sent" — in particular
/// the MessageBus only accounts bytes/messages for pushes that succeeded.
class Mailbox {
 public:
  /// Enqueue with a distinguishable outcome; kAccepted means delivered.
  PushOutcome offer(Message message);

  /// Enqueue; returns false if the mailbox is closed or full (dropped).
  bool push(Message message) {
    return offer(std::move(message)) == PushOutcome::kAccepted;
  }

  /// Bound the queue to `capacity` messages (0 = unbounded, the default).
  /// Applies to subsequent offers; already queued messages are kept.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const;

  /// Block until a message arrives or the mailbox is closed & drained;
  /// nullopt means closed.
  std::optional<Message> pop();

  /// Non-blocking pop; nullopt when the queue is currently empty.
  std::optional<Message> try_pop();

  /// Like pop(), but give up at `deadline`.  nullopt means timed out or
  /// closed & drained — distinguish with closed().
  std::optional<Message> pop_until(std::chrono::steady_clock::time_point deadline);

  /// Wake all poppers; subsequent pushes are dropped.
  void close();

  /// Block until close() has been called (ignores queued messages).  Used
  /// to model a wedged server thread that only "exits" at shutdown.
  void wait_closed();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t pending() const;
  /// Alias of pending() under the metrics-facing name.
  [[nodiscard]] std::size_t size() const { return pending(); }
  /// High-water mark of the queue depth over the mailbox lifetime.
  [[nodiscard]] std::size_t peak() const;
  /// Messages rejected because the mailbox was at capacity (not closed).
  [[nodiscard]] std::uint64_t rejected_full() const noexcept {
    return rejected_full_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  bool closed_ = false;
  std::size_t capacity_ = 0;  ///< 0 = unbounded
  std::size_t peak_ = 0;
  std::atomic<std::uint64_t> rejected_full_{0};
};

// ---------------------------------------------------------------------- bus

/// One client + N server mailboxes (plus one exchange mailbox per server
/// for server-to-server shuffle traffic), and transfer statistics.
///
/// bytes_transferred()/messages_sent() count only messages actually
/// delivered into a mailbox: sends that were refused (mailbox closed) or
/// dropped by the fault injector are not accounted.
class MessageBus {
 public:
  explicit MessageBus(std::uint32_t num_servers)
      : servers_(num_servers), exchange_(num_servers) {}
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  [[nodiscard]] std::uint32_t num_servers() const noexcept {
    return static_cast<std::uint32_t>(servers_.size());
  }

  /// Install a fault injector consulted on every send (nullptr = none).
  /// Must outlive the bus; set before traffic starts.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept {
    return injector_;
  }

  /// Client -> one server.  Returns false only if the mailbox refused the
  /// message (closed); fault-injected drops still return true, because a
  /// real sender cannot observe a lost packet.
  bool send_to_server(ServerId server, std::vector<std::uint8_t> payload);

  /// Client -> every server (payload copied per server).
  void broadcast(std::span<const std::uint8_t> payload);

  /// Server -> client.
  bool send_to_client(ServerId server, std::vector<std::uint8_t> payload);

  /// Server `from` -> server `to`, onto the destination's *exchange*
  /// mailbox (a separate lane from client RPC so shuffle traffic can never
  /// deadlock against request handling).  Same fault model as every other
  /// send: the injector may drop/delay/duplicate/corrupt the frame, and
  /// reliability comes from the ExchangePort's ack/retransmit layer.
  bool send_to_exchange(ServerId from, ServerId to,
                        std::vector<std::uint8_t> payload);

  [[nodiscard]] Mailbox& server_mailbox(ServerId server) {
    return servers_[server];
  }
  [[nodiscard]] Mailbox& exchange_mailbox(ServerId server) {
    return exchange_[server];
  }
  [[nodiscard]] Mailbox& client_mailbox() { return client_; }

  /// Bound every server mailbox to `capacity` messages (0 = unbounded).
  /// The transport backstop beneath admission control: offers past the
  /// bound are rejected and the sender's retry recovers, exactly like a
  /// fault-injected drop.
  void set_server_mailbox_capacity(std::size_t capacity) {
    for (Mailbox& m : servers_) m.set_capacity(capacity);
  }
  /// Highest queue depth any server mailbox ever reached.
  [[nodiscard]] std::size_t peak_server_mailbox_depth() const {
    std::size_t peak = 0;
    for (const Mailbox& m : servers_) peak = std::max(peak, m.peak());
    return peak;
  }
  /// Total messages refused by full server mailboxes.
  [[nodiscard]] std::uint64_t mailbox_rejects() const noexcept {
    std::uint64_t total = 0;
    for (const Mailbox& m : servers_) total += m.rejected_full();
    return total;
  }

  /// Close every mailbox (shutdown).  Pending delayed messages are
  /// discarded.
  void shutdown();

  /// Total payload bytes delivered across the bus so far.
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept;
  [[nodiscard]] std::uint64_t messages_sent() const noexcept;

 private:
  /// Route one message to `box`, applying the fault plan.  Returns false
  /// only when the mailbox refused delivery.
  bool deliver(Mailbox& box, Direction direction, ServerId server,
               Message message);
  bool push_and_account(Mailbox& box, Message message);
  /// Hand a message to the delay line for delivery at `when`.
  void deliver_later(Mailbox& box, Message message,
                     std::chrono::steady_clock::time_point when);
  void delay_loop();

  std::vector<Mailbox> servers_;
  std::vector<Mailbox> exchange_;
  Mailbox client_;
  FaultInjector* injector_ = nullptr;

  // Atomic: bumped from sender threads and the delayed-delivery thread
  // while readers poll without coordination.
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> messages_{0};

  // Delayed-delivery line (started lazily on the first delayed message).
  struct Delayed {
    std::chrono::steady_clock::time_point when;
    Mailbox* box;
    Message message;
  };
  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::vector<Delayed> delayed_;
  std::thread delay_thread_;
  bool delay_stop_ = false;
};

}  // namespace pdc::rpc
