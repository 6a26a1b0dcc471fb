// Server event loop and client-side broadcast/gather helpers.
//
// Each PDC server is a dedicated thread draining its mailbox.  With a
// thread pool attached (ServerRuntimeOptions::pool) the mailbox thread
// becomes a dispatcher: it admits up to `max_inflight` requests at a time
// and hands each to the pool, so one server overlaps the CPU phases of
// several requests — the intra-server parallelism of paper §III-C ("each
// PDC server [uses] multiple threads to process the query in parallel").
// Without a pool every request is handled inline, one at a time, in
// arrival order.  Every request type takes the same path: admission,
// shedding and weighted-fair queueing apply to all of them.
//
// Deferred replies: a handler answers through the request's Reply, either
// before it returns or later, from any thread.  A request whose answer
// depends on other servers (a join epoch waiting for its shuffle) returns
// at once and leaves the Reply to a continuation, so no handler ever
// blocks on a peer and the request's inflight slot is free as soon as the
// handler returns.  The runtime outlives every Reply it handed out: its
// destructor waits for the last one.
//
// The client's broadcast-gather runs on a background thread (paper §III-C:
// "the client has a background thread that aggregates the results received
// from all servers"), so the application thread may continue working and
// only block when it actually needs the result.
//
// Reliability: requests and responses travel inside Envelopes (request id,
// attempt, deadline, checksum).  The client's gather() enforces a per
// attempt deadline with bounded exponential backoff between retries,
// discards stale/duplicate/corrupt responses by request id, and reports
// the servers that never answered so the query layer can enter degraded
// mode.  Servers drop corrupt frames and requests whose deadline already
// passed (the client has stopped listening for them).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/exec_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/admission.h"
#include "rpc/message_bus.h"

namespace pdc::rpc {

/// Execution options for one server runtime.
struct ServerRuntimeOptions {
  /// Pool the handler runs on (shared across servers; must outlive the
  /// runtime).  Null = handle requests inline on the mailbox thread.
  exec::ThreadPool* pool = nullptr;
  /// With a pool: how many requests one server may process concurrently.
  /// Admission is bounded so a burst cannot swamp the shared pool.
  std::uint32_t max_inflight = 4;
  /// Requests allowed to *wait* for a processing slot, beyond the
  /// max_inflight already running.  When the wait queue is full the server
  /// sheds per `shed_policy`: the victim gets an immediate kFlagShed reply
  /// carrying a retry-after hint instead of queueing unboundedly.
  /// 0 = unbounded (legacy behaviour: never sheds).
  std::uint32_t queue_limit = 0;
  /// Which request to shed when the wait queue is full.
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Base retry-after hint carried in shed replies; the actual hint scales
  /// up to 2x with queue fullness.
  std::uint64_t shed_retry_after_us = 2000;
  /// Weighted-fair scheduler shares, indexed by Envelope::tenant (missing
  /// or non-positive = weight 1).  With the default empty vector every
  /// tenant weighs 1 and the wait queue degenerates to FIFO.
  std::vector<double> tenant_weights;
  /// Deployment metrics (null = unmetered).  The runtime registers
  /// "rpc.server<id>.requests", ".shed", ".expired", a ".handle_seconds"
  /// wall latency histogram, and queue/mailbox depth gauges.  Must outlive
  /// the runtime.
  obs::MetricsRegistry* metrics = nullptr;
};

class ServerRuntime;

/// The answer channel of one request.  Move-only: the handler answers with
/// std::move(reply).send(bytes) before it returns, or moves the Reply into
/// a continuation that answers later from any thread.  A Reply dropped
/// unsent answers nothing (a duplicate whose original is still running).
/// A send made before the handler returned goes out when it returns, after
/// its "server.handle" span closed.
class Reply {
 public:
  Reply() = default;
  Reply(Reply&&) noexcept = default;
  Reply& operator=(Reply&&) noexcept = default;
  Reply(const Reply&) = delete;
  Reply& operator=(const Reply&) = delete;

  /// Parent context for a later stage's spans, parented like the
  /// runtime's "server.handle" span (disabled when the request is
  /// untraced or the Reply is empty).  Spans recorded through it travel
  /// back with the reply.
  [[nodiscard]] obs::TraceContext trace() const noexcept;

  /// Answer the request (no-op on an empty Reply).
  void send(std::vector<std::uint8_t> response) &&;

 private:
  friend class ServerRuntime;
  struct State;
  explicit Reply(std::shared_ptr<State> state) : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// Runs one server's request loop on a dedicated thread.
class ServerRuntime {
 public:
  /// Handler: (request payload) -> response payload.  Without a pool it is
  /// invoked on the server thread, one request at a time.  With a pool it
  /// runs on pool workers with up to `max_inflight` invocations in flight
  /// concurrently — the handler must be thread-safe.
  using Handler =
      std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;
  /// Trace-aware handler: for traced requests (Envelope::trace_id != 0)
  /// the context is enabled and rooted at this runtime's "server.handle"
  /// span; the handler's spans travel back in the response frame.
  using TracedHandler = std::function<std::vector<std::uint8_t>(
      std::span<const std::uint8_t>, const obs::TraceContext&)>;
  /// Deferring handler: as TracedHandler, but it answers through the
  /// request's Reply — now or from a continuation (see Reply).
  using AsyncHandler = std::function<void(
      std::span<const std::uint8_t>, const obs::TraceContext&, Reply)>;

  ServerRuntime(MessageBus& bus, ServerId id, AsyncHandler handler,
                ServerRuntimeOptions options = {});
  ServerRuntime(MessageBus& bus, ServerId id, TracedHandler handler,
                ServerRuntimeOptions options = {})
      : ServerRuntime(bus, id,
                      AsyncHandler([handler = std::move(handler)](
                                       std::span<const std::uint8_t> payload,
                                       const obs::TraceContext& trace,
                                       Reply reply) {
                        std::move(reply).send(handler(payload, trace));
                      }),
                      options) {}
  /// Convenience: wrap a trace-unaware handler (tests, simple servers).
  ServerRuntime(MessageBus& bus, ServerId id, Handler handler,
                ServerRuntimeOptions options = {})
      : ServerRuntime(bus, id,
                      TracedHandler([handler = std::move(handler)](
                                        std::span<const std::uint8_t> payload,
                                        const obs::TraceContext&) {
                        return handler(payload);
                      }),
                      options) {}

  /// Closes the mailbox, joins the thread, and waits for in-flight pooled
  /// requests to finish and for every outstanding Reply to be sent or
  /// dropped (their replies may still be delivered).
  ~ServerRuntime();

  ServerRuntime(const ServerRuntime&) = delete;
  ServerRuntime& operator=(const ServerRuntime&) = delete;

  [[nodiscard]] ServerId id() const noexcept { return id_; }

  /// Requests shed by this runtime's admission control so far.
  [[nodiscard]] std::uint64_t sheds() const;
  /// High-water mark of the admission wait queue.
  [[nodiscard]] std::size_t queue_peak() const;

 private:
  friend class Reply;

  /// One admitted-but-not-yet-running request parked in the wait queue.
  /// The frame owns the bytes; it is re-unwrapped at dispatch (cheap:
  /// header check + checksum).
  struct Pending {
    Envelope envelope;
    std::vector<std::uint8_t> frame;
    std::uint64_t dequeued_us = 0;
  };

  void loop();
  /// Admission decision for one arrived request: start it, queue it, or
  /// shed (per policy).  Inline runtimes only queue/shed here; serving
  /// happens in loop().
  void admit(Pending pending);
  /// Submit `pending` to the pool; its completion dispatches the next
  /// queued request, keeping exactly `inflight_` tasks running.
  void dispatch_to_pool(Pending pending);
  /// Run one pooled request, then chain into the next queued one (or
  /// release the inflight slot).
  void run_pooled(Pending pending);
  /// Reply kFlagShed with a retry-after hint scaled by queue fullness.
  void send_shed(const Envelope& envelope);
  [[nodiscard]] bool expired(const Envelope& envelope) const noexcept {
    return envelope.deadline_us != 0 && steady_now_us() > envelope.deadline_us;
  }
  /// Run the handler for one unwrapped request, opening server-side spans
  /// when the envelope carries a trace id; the reply goes out when the
  /// handler sends it (at once, or from a continuation).  `dequeued_us`
  /// timestamps when the request left the mailbox (the "server.queue"
  /// span covers dequeue -> handler start, i.e. admission wait plus pool
  /// queueing).
  void handle_request(const Envelope& envelope,
                      std::span<const std::uint8_t> request,
                      std::uint64_t dequeued_us);
  /// Wrap and send one reply (Reply's delivery step).
  void deliver(Reply::State& state, std::vector<std::uint8_t> response);
  /// Count a Reply::State in and out; the destructor waits for the last.
  void acquire_reply();
  void release_reply();

  MessageBus& bus_;
  ServerId id_;
  AsyncHandler handler_;
  ServerRuntimeOptions options_;
  obs::Counter* requests_metric_ = nullptr;
  obs::Counter* shed_metric_ = nullptr;
  obs::Counter* expired_metric_ = nullptr;
  obs::LatencyHistogram* handle_seconds_metric_ = nullptr;
  /// Guards inflight_, replies_, queue_, and stopping_ (admission state).
  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::uint32_t inflight_ = 0;
  /// Reply::States alive (handled requests whose answer has not left yet).
  std::uint32_t replies_ = 0;
  WeightedFairQueue<Pending> queue_;
  /// Set when the mailbox loop exits (shutdown, kill or stall fate):
  /// queued requests are dropped and completions stop chaining.
  bool stopping_ = false;
  std::thread thread_;
};

/// Client-side timeout/retry configuration.
struct RetryPolicy {
  /// How long one attempt waits for all outstanding responses.
  std::chrono::milliseconds attempt_timeout{250};
  /// Total attempts per request (first try + retries).
  std::uint32_t max_attempts = 4;
  /// Exponential backoff between attempts: base * 2^attempt, capped.
  std::chrono::milliseconds backoff_base{2};
  std::chrono::milliseconds backoff_cap{50};
  /// Multiplicative backoff jitter in [0, jitter): each backoff sleep is
  /// scaled by (1 + jitter * u) with u drawn deterministically from the
  /// gather's first request id, so retry storms decorrelate across
  /// clients while a given run stays reproducible.  0 = no jitter.
  double backoff_jitter = 0.0;
};

/// Transport-level counters accumulated by one gather().
struct RpcStats {
  std::uint64_t retries = 0;   ///< requests re-sent after a timeout
  std::uint64_t timeouts = 0;  ///< attempt windows that expired
  /// kFlagShed replies received: the server was alive but shed the
  /// request under overload; the retry honoured its retry-after hint.
  std::uint64_t sheds = 0;
  /// Extra responses to this gather's own request ids (an earlier attempt
  /// answered already), dropped.  Corrupt frames and responses to already
  /// finished gathers carry no attributable id — see
  /// Client::corrupt_discarded() / Client::stray_discarded().
  std::uint64_t duplicates_discarded = 0;
};

/// Outcome of one gather: responses[i] answers requests[i] (nullopt after
/// retries were exhausted, or the bus shut down mid-collect).
struct GatherResult {
  std::vector<std::optional<Message>> responses;
  /// shed[i]: requests[i] went unanswered but the server explicitly shed
  /// it at least once — the server is overloaded, NOT dead.  Callers must
  /// surface kOverloaded instead of entering degraded mode.
  std::vector<bool> shed;
  RpcStats stats;
  bool bus_closed = false;

  [[nodiscard]] bool complete() const {
    for (const auto& r : responses) {
      if (!r.has_value()) return false;
    }
    return true;
  }
};

/// Client endpoint: broadcast a request and gather one response per server.
///
/// A dedicated receiver thread owns the single client mailbox and
/// demultiplexes responses to the issuing gather by request id, so any
/// number of gathers on any number of threads may run concurrently
/// without consuming each other's responses.  Responses whose request id
/// matches no outstanding gather are discarded as duplicate/stale.  One
/// Client per bus: the receiver is the mailbox's only consumer.
class Client {
 public:
  explicit Client(MessageBus& bus, RetryPolicy policy = {});

  /// Closes the client mailbox and joins the receiver thread.  Safe to
  /// destroy the Client before or after MessageBus::shutdown().
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send each (server, payload) request and gather the responses, with
  /// per-attempt deadlines and bounded-backoff retries.  Message payloads
  /// in the result are the bare inner payloads (envelopes stripped);
  /// sender is the responding server.  Never blocks past
  /// max_attempts * (attempt_timeout + backoff).  Thread-safe; concurrent
  /// gathers proceed independently.
  GatherResult gather(
      const std::vector<std::pair<ServerId, std::vector<std::uint8_t>>>&
          requests) {
    return gather(requests, obs::TraceContext{});
  }

  /// Traced gather: opens an "rpc.gather" span with one "rpc.request" child
  /// per request (the envelope's parent span, stable across retries, closed
  /// when that request's reply arrives) and an "rpc.attempt" child per
  /// retry round; span blobs returned by servers
  /// are adopted into the issuing trace.  A disabled context makes this
  /// identical to the untraced overload.
  /// `tenant` stamps every request envelope with the issuing tenant's
  /// fairness identity for the server-side weighted-fair scheduler.
  GatherResult gather(
      const std::vector<std::pair<ServerId, std::vector<std::uint8_t>>>&
          requests,
      const obs::TraceContext& trace, std::uint32_t tenant = 0);

  [[nodiscard]] const RetryPolicy& policy() const noexcept { return policy_; }

  /// Client-wide count of frames dropped for a failed checksum.  A corrupt
  /// frame has no readable request id, so it cannot be attributed to any
  /// particular gather (monotone, process lifetime).
  [[nodiscard]] std::uint64_t corrupt_discarded() const noexcept {
    return corrupt_responses_.load(std::memory_order_relaxed);
  }
  /// Client-wide count of responses whose request id matched no live
  /// gather (the issuing gather already returned and withdrew its ids).
  [[nodiscard]] std::uint64_t stray_discarded() const noexcept {
    return stray_responses_.load(std::memory_order_relaxed);
  }

 private:
  /// One in-progress gather waiting for its responses.
  struct Waiter {
    std::vector<std::optional<Message>>* responses = nullptr;
    /// Per-request shed marks (points into the GatherResult).
    std::vector<bool>* shed = nullptr;
    std::condition_variable cv;
    std::size_t remaining = 0;
    /// Dup/stale responses to this gather's ids (guarded by mu_).
    std::uint64_t duplicates = 0;
    /// Total kFlagShed replies received across all attempts.
    std::uint64_t sheds = 0;
    /// Shed replies since the current attempt started; when it reaches
    /// `remaining` every outstanding request was shed and the gather wakes
    /// early to retry after the hint.
    std::size_t sheds_this_attempt = 0;
    /// Largest retry-after hint seen this attempt (microseconds).
    std::uint64_t retry_after_us = 0;
    /// Destination for span blobs carried by this gather's responses
    /// (null = untraced).  The receiver adopts a blob exactly once per
    /// request id (duplicates are dropped before their spans).
    obs::Tracer* tracer = nullptr;
    /// Per-request "rpc.request" spans (with a tracer); the receiver ends
    /// each one when it accepts that request's reply.
    const std::vector<obs::SpanId>* request_spans = nullptr;
  };
  /// pending_ value: where a response with that request id belongs.
  struct Slot {
    Waiter* waiter = nullptr;
    std::size_t index = 0;
  };

  void receive_loop();

  MessageBus& bus_;
  RetryPolicy policy_;
  std::atomic<std::uint64_t> next_request_id_{1};

  /// Guards pending_, closed_, and every Waiter (receiver fills slots and
  /// decrements `remaining` under this lock; gathers wait on their cv
  /// with it).
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Slot> pending_;
  bool closed_ = false;

  /// Client-wide discard counters for frames no gather can own: corrupt
  /// frames (unreadable id) and responses to already withdrawn ids.
  /// Duplicates addressed to a live gather are attributed to its Waiter
  /// instead, so concurrent gathers never see each other's discards.
  std::atomic<std::uint64_t> corrupt_responses_{0};
  std::atomic<std::uint64_t> stray_responses_{0};

  std::thread receiver_;
};

}  // namespace pdc::rpc
