#include "rpc/server_runtime.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace pdc::rpc {

namespace {

/// splitmix64: deterministic per-gather jitter stream seeded from the first
/// request id, so backoff jitter is reproducible run-to-run yet
/// decorrelated across concurrent gathers.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double unit_uniform(std::uint64_t& state) noexcept {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

/// One handled request's answer channel, shared by the runtime (until the
/// handler returns) and the Reply (until it is sent or dropped).
struct Reply::State {
  State(ServerRuntime& rt, const Envelope& env, std::uint64_t start)
      : runtime(rt), envelope(env), start_us(start) {
    runtime.acquire_reply();
    if (env.trace_id != 0) tracer = std::make_unique<obs::Tracer>(env.trace_id);
  }
  ~State() { runtime.release_reply(); }
  State(const State&) = delete;
  State& operator=(const State&) = delete;

  /// Context parented at the client's request span (like "server.handle").
  [[nodiscard]] obs::TraceContext root() const noexcept {
    if (tracer == nullptr) return {};
    return {tracer.get(), envelope.trace_id, envelope.parent_span};
  }

  ServerRuntime& runtime;
  const Envelope envelope;
  const std::uint64_t start_us;
  /// Collects this request's server-side spans (traced requests only).
  std::unique_ptr<obs::Tracer> tracer;
  std::mutex mu;
  /// Set once the handler returned and its "server.handle" span closed.
  bool handler_returned = false;
  /// A reply sent before the handler returned, delivered when it does.
  std::optional<std::vector<std::uint8_t>> early;
};

obs::TraceContext Reply::trace() const noexcept {
  return state_ != nullptr ? state_->root() : obs::TraceContext{};
}

void Reply::send(std::vector<std::uint8_t> response) && {
  const std::shared_ptr<State> state = std::move(state_);
  if (state == nullptr) return;
  {
    std::lock_guard lock(state->mu);
    if (!state->handler_returned) {
      state->early = std::move(response);
      return;
    }
  }
  state->runtime.deliver(*state, std::move(response));
}

ServerRuntime::ServerRuntime(MessageBus& bus, ServerId id,
                             AsyncHandler handler,
                             ServerRuntimeOptions options)
    : bus_(bus), id_(id), handler_(std::move(handler)), options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;
  queue_ = WeightedFairQueue<Pending>(options_.queue_limit,
                                      options_.shed_policy,
                                      options_.tenant_weights);
  if (options_.metrics != nullptr) {
    const std::string prefix = "rpc.server" + std::to_string(id_);
    requests_metric_ = &options_.metrics->counter(prefix + ".requests");
    shed_metric_ = &options_.metrics->counter(prefix + ".shed");
    expired_metric_ = &options_.metrics->counter(prefix + ".expired");
    handle_seconds_metric_ =
        &options_.metrics->histogram(prefix + ".handle_seconds");
    options_.metrics->gauge_fn(prefix + ".queue_depth", [this] {
      std::lock_guard lock(inflight_mu_);
      return static_cast<double>(queue_.size());
    });
    options_.metrics->gauge_fn(prefix + ".queue_peak", [this] {
      std::lock_guard lock(inflight_mu_);
      return static_cast<double>(queue_.peak());
    });
    options_.metrics->gauge_fn(prefix + ".mailbox_depth", [this, &bus, id] {
      return static_cast<double>(bus.server_mailbox(id).size());
    });
    options_.metrics->gauge_fn(prefix + ".mailbox_peak", [this, &bus, id] {
      return static_cast<double>(bus.server_mailbox(id).peak());
    });
  }
  thread_ = std::thread([this] { loop(); });
}

ServerRuntime::~ServerRuntime() {
  bus_.server_mailbox(id_).close();
  if (thread_.joinable()) thread_.join();
  // Pooled requests and outstanding Replies point at `this`; wait until the
  // last one has finished before the members they use go away.
  std::unique_lock lock(inflight_mu_);
  stopping_ = true;
  queue_.clear();
  inflight_cv_.wait(lock, [this] { return inflight_ == 0 && replies_ == 0; });
}

void ServerRuntime::acquire_reply() {
  std::lock_guard lock(inflight_mu_);
  ++replies_;
}

void ServerRuntime::release_reply() {
  std::lock_guard lock(inflight_mu_);
  --replies_;
  // Notify under the lock, as in run_pooled: the destructor may destroy
  // the cv as soon as its wait observes the last release.
  inflight_cv_.notify_all();
}

std::uint64_t ServerRuntime::sheds() const {
  std::lock_guard lock(inflight_mu_);
  return queue_.sheds();
}

std::size_t ServerRuntime::queue_peak() const {
  std::lock_guard lock(inflight_mu_);
  return queue_.peak();
}

void ServerRuntime::loop() {
  Mailbox& inbox = bus_.server_mailbox(id_);
  FaultInjector* injector = bus_.fault_injector();
  // Inline runtimes with a queue limit run a drain-then-serve loop: park
  // every waiting arrival in the fair queue first (shedding past the
  // limit), then serve the scheduler's pick.  This keeps shedding and
  // weighted fairness working with no pool attached.  Unbounded inline
  // runtimes keep the legacy serve-in-arrival-order path.
  const bool inline_bounded =
      options_.pool == nullptr && options_.queue_limit != 0;
  const auto stop_admission = [this] {
    std::lock_guard lock(inflight_mu_);
    stopping_ = true;
    queue_.clear();
  };
  while (true) {
    std::optional<Message> message;
    if (inline_bounded) {
      message = inbox.try_pop();
      if (!message.has_value()) {
        std::optional<std::pair<std::uint32_t, Pending>> next;
        {
          std::lock_guard lock(inflight_mu_);
          next = queue_.pop();
        }
        if (next.has_value()) {
          Pending pending = std::move(next->second);
          if (expired(pending.envelope)) {
            if (expired_metric_ != nullptr) expired_metric_->add();
            continue;
          }
          Envelope env;
          std::span<const std::uint8_t> req;
          if (envelope_unwrap(pending.frame, env, req)) {
            handle_request(env, req, pending.dequeued_us);
          }
          continue;
        }
        message = inbox.pop();
      }
    } else {
      message = inbox.pop();
    }
    if (!message.has_value()) break;
    if (injector != nullptr) {
      switch (injector->on_server_request(id_)) {
        case ServerFate::kAlive:
          break;
        case ServerFate::kKilled:
          stop_admission();
          return;  // node crash: loop exits, requests go unanswered
        case ServerFate::kStalled:
          stop_admission();
          inbox.wait_closed();  // wedged daemon: holds the thread until
          return;               // shutdown, never replies
      }
    }
    Envelope envelope;
    std::span<const std::uint8_t> request;
    if (!envelope_unwrap(message->payload, envelope, request)) {
      continue;  // corrupt in transit: treat as lost, client will retry
    }
    if (expired(envelope)) {
      // Client already gave up on this attempt.
      if (expired_metric_ != nullptr) expired_metric_->add();
      continue;
    }
    const std::uint64_t dequeued_us = obs::now_us();
    if (options_.pool == nullptr && !inline_bounded) {
      handle_request(envelope, request, dequeued_us);
      continue;
    }
    // `request` borrows from the frame, so Pending owns the whole frame and
    // re-parses at dispatch (cheap: header check + checksum).
    admit(Pending{envelope, std::move(message->payload), dequeued_us});
  }
  stop_admission();
}

void ServerRuntime::admit(Pending pending) {
  // Non-blocking admission: start immediately when a slot is free and
  // nothing is queued ahead; otherwise park in the fair queue, shedding
  // per policy when it is full.  The dispatcher thread never blocks, so
  // the mailbox keeps draining even when the pool is saturated — bursts
  // surface as explicit sheds, not as unbounded queue growth.
  const std::uint32_t tenant = pending.envelope.tenant;
  std::optional<Envelope> shed_victim;
  bool run_now = false;
  {
    std::lock_guard lock(inflight_mu_);
    if (stopping_) return;
    if (options_.pool != nullptr && inflight_ < options_.max_inflight &&
        queue_.empty()) {
      ++inflight_;
      run_now = true;
    } else {
      auto result = queue_.push(tenant, std::move(pending));
      if (result.victim.has_value()) {
        shed_victim = result.victim->item.envelope;
      }
    }
  }
  if (shed_victim.has_value()) send_shed(*shed_victim);
  if (run_now) dispatch_to_pool(std::move(pending));
}

void ServerRuntime::dispatch_to_pool(Pending pending) {
  options_.pool->submit([this, p = std::move(pending)]() mutable {
    run_pooled(std::move(p));
  });
}

void ServerRuntime::run_pooled(Pending pending) {
  // Serve this request, then keep the inflight slot and chain into the
  // next queued request until the queue is drained (or we are stopping).
  std::optional<Pending> current = std::move(pending);
  while (current.has_value()) {
    if (expired(current->envelope)) {
      if (expired_metric_ != nullptr) expired_metric_->add();
    } else {
      Envelope env;
      std::span<const std::uint8_t> req;
      if (envelope_unwrap(current->frame, env, req)) {
        handle_request(env, req, current->dequeued_us);
      }
    }
    current.reset();
    {
      std::lock_guard lock(inflight_mu_);
      if (!stopping_) {
        if (auto next = queue_.pop(); next.has_value()) {
          current = std::move(next->second);
        }
      }
      if (!current.has_value()) {
        --inflight_;
        // Notify under the lock: the destructor destroys this cv as soon
        // as its wait observes inflight_ == 0, so an unlocked notify could
        // still be inside pthread_cond_broadcast at that point.
        inflight_cv_.notify_all();
      }
    }
  }
}

void ServerRuntime::send_shed(const Envelope& request) {
  if (shed_metric_ != nullptr) shed_metric_->add();
  // Retry-after hint scales with fullness, up to 2x the base: the fuller
  // the queue, the longer shed clients should stay away.
  std::uint64_t hint_us = options_.shed_retry_after_us;
  if (options_.queue_limit != 0) {
    std::size_t depth;
    {
      std::lock_guard lock(inflight_mu_);
      depth = queue_.size();
    }
    hint_us += hint_us * std::min<std::size_t>(depth, options_.queue_limit) /
               options_.queue_limit;
  }
  Envelope reply = request;
  reply.flags |= kFlagShed;
  std::vector<std::uint8_t> payload(sizeof(hint_us));
  std::memcpy(payload.data(), &hint_us, sizeof(hint_us));
  if (request.trace_id == 0) {
    bus_.send_to_client(id_, envelope_wrap(reply, payload));
    return;
  }
  // Traced request: ship a zero-width "server.shed" span back as baggage so
  // the trace shows where (and how loaded) the shed happened.
  obs::Tracer tracer(request.trace_id);
  obs::Span span;
  span.id = obs::next_id();
  span.parent = request.parent_span;
  span.start_us = obs::now_us();
  span.end_us = span.start_us;
  span.name = "server.shed";
  span.actor = "server" + std::to_string(id_);
  span.args.emplace_back("retry_after_us", static_cast<double>(hint_us));
  tracer.record(std::move(span));
  bus_.send_to_client(
      id_,
      envelope_wrap(reply, payload, obs::serialize_spans(tracer.take().spans)));
}

void ServerRuntime::handle_request(const Envelope& envelope,
                                   std::span<const std::uint8_t> request,
                                   std::uint64_t dequeued_us) {
  if (requests_metric_ != nullptr) requests_metric_->add();
  const std::uint64_t start_us = obs::now_us();
  const auto state = std::make_shared<Reply::State>(*this, envelope, start_us);
  // Traced request: this request's server-side spans collect in the
  // state's tracer and ship back as response-frame baggage.  The queue span
  // covers dequeue -> handler start (admission wait + pool queueing).
  const std::string actor =
      state->tracer != nullptr ? "server" + std::to_string(id_) : "";
  if (state->tracer != nullptr) {
    obs::Span queue_span;
    queue_span.id = obs::next_id();
    queue_span.parent = envelope.parent_span;
    queue_span.start_us = dequeued_us;
    queue_span.end_us = std::max(start_us, dequeued_us);
    queue_span.name = "server.queue";
    queue_span.actor = actor;
    state->tracer->record(std::move(queue_span));
  }
  {
    obs::ScopedSpan handle(state->root(), "server.handle", actor);
    handle.arg("server", static_cast<double>(id_));
    handle.arg("attempt", static_cast<double>(envelope.attempt));
    handler_(request, handle.context(), Reply(state));
  }
  std::optional<std::vector<std::uint8_t>> early;
  {
    std::lock_guard lock(state->mu);
    state->handler_returned = true;
    early = std::move(state->early);
  }
  if (early.has_value()) deliver(*state, std::move(*early));
}

void ServerRuntime::deliver(Reply::State& state,
                            std::vector<std::uint8_t> response) {
  if (handle_seconds_metric_ != nullptr) {
    handle_seconds_metric_->observe(
        static_cast<double>(obs::now_us() - state.start_us) * 1e-6);
  }
  if (state.tracer == nullptr) {
    bus_.send_to_client(id_, envelope_wrap(state.envelope, response));
    return;
  }
  bus_.send_to_client(
      id_, envelope_wrap(state.envelope, response,
                         obs::serialize_spans(state.tracer->take().spans)));
}

Client::Client(MessageBus& bus, RetryPolicy policy)
    : bus_(bus), policy_(policy) {
  receiver_ = std::thread([this] { receive_loop(); });
}

Client::~Client() {
  // The receiver is the mailbox's only consumer, so close it here (it may
  // already be closed by MessageBus::shutdown(); close is idempotent).
  bus_.client_mailbox().close();
  if (receiver_.joinable()) receiver_.join();
}

void Client::receive_loop() {
  while (auto message = bus_.client_mailbox().pop()) {
    Envelope envelope;
    std::span<const std::uint8_t> payload;
    std::span<const std::uint8_t> trace_blob;
    if (!envelope_unwrap(message->payload, envelope, payload, trace_blob)) {
      corrupt_responses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::lock_guard lock(mu_);
    const auto it = pending_.find(envelope.request_id);
    if (it == pending_.end()) {
      // The issuing gather already returned and withdrew this id (or it
      // never existed) — unattributable, count client-wide.
      stray_responses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const Slot slot = it->second;
    auto& cell = (*slot.waiter->responses)[slot.index];
    if (cell.has_value()) {
      // An earlier attempt answered already; the id stays registered until
      // its gather withdraws it, so the duplicate is charged to the gather
      // it belongs to — not smeared across concurrent gathers.  Its span
      // blob is dropped with it: each request contributes spans once.
      ++slot.waiter->duplicates;
      continue;
    }
    if ((envelope.flags & kFlagShed) != 0) {
      // Load-shed rejection, not a real response: the server is alive but
      // overloaded.  Record the shed and its retry-after hint; wake the
      // gather early when every outstanding request has been shed this
      // attempt (waiting out the attempt window would be pure dead time).
      ++slot.waiter->sheds;
      (*slot.waiter->shed)[slot.index] = true;
      std::uint64_t hint_us = 0;
      if (payload.size() >= sizeof(hint_us)) {
        std::memcpy(&hint_us, payload.data(), sizeof(hint_us));
      }
      slot.waiter->retry_after_us =
          std::max(slot.waiter->retry_after_us, hint_us);
      if (slot.waiter->tracer != nullptr && !trace_blob.empty()) {
        std::vector<obs::Span> spans;
        if (obs::deserialize_spans(trace_blob, spans).ok()) {
          slot.waiter->tracer->adopt(std::move(spans));
        }
      }
      if (++slot.waiter->sheds_this_attempt >= slot.waiter->remaining) {
        slot.waiter->cv.notify_all();
      }
      continue;
    }
    cell = Message{message->sender,
                   std::vector<std::uint8_t>(payload.begin(), payload.end())};
    if (slot.waiter->tracer != nullptr) {
      if (!trace_blob.empty()) {
        std::vector<obs::Span> spans;
        if (obs::deserialize_spans(trace_blob, spans).ok()) {
          slot.waiter->tracer->adopt(std::move(spans));
        }
        // A malformed blob loses the server's spans, never the response.
      }
      // The request's span ends at its own reply, not when the slowest
      // server of the gather answers.
      const obs::SpanId span = (*slot.waiter->request_spans)[slot.index];
      slot.waiter->tracer->add_arg(span, "responded", 1.0);
      slot.waiter->tracer->end(span);
    }
    if (--slot.waiter->remaining == 0) slot.waiter->cv.notify_all();
  }
  // Mailbox closed: wake every in-progress gather so none blocks until its
  // full retry budget during shutdown.
  std::lock_guard lock(mu_);
  closed_ = true;
  for (auto& [id, slot] : pending_) slot.waiter->cv.notify_all();
}

GatherResult Client::gather(
    const std::vector<std::pair<ServerId, std::vector<std::uint8_t>>>&
        requests,
    const obs::TraceContext& trace, std::uint32_t tenant) {
  GatherResult result;
  result.responses.resize(requests.size());
  result.shed.assign(requests.size(), false);
  if (requests.empty()) return result;

  // Traced gathers get one "rpc.gather" span, one "rpc.request" span per
  // request (open from first send until that request's reply is accepted,
  // or until the gather returns for one never answered — server-side spans
  // parent under it, so their intervals nest), and one "rpc.attempt" span
  // per retry round.
  obs::ScopedSpan gather_span(trace, "rpc.gather", "client");
  std::vector<obs::SpanId> request_spans(requests.size(), 0);
  if (trace.enabled()) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      request_spans[i] =
          trace.tracer->begin(gather_span.id(), "rpc.request", "client");
      trace.tracer->add_arg(request_spans[i], "server",
                            static_cast<double>(requests[i].first));
      trace.tracer->add_arg(request_spans[i], "request_bytes",
                            static_cast<double>(requests[i].second.size()));
    }
  }

  // Request ids are stable across retries so a slow first-attempt response
  // still satisfies the request; ids are globally unique so responses to
  // *previous* operations are recognized as stale and discarded.
  Waiter waiter;
  waiter.responses = &result.responses;
  waiter.shed = &result.shed;
  waiter.remaining = requests.size();
  waiter.tracer = trace.tracer;
  waiter.request_spans = &request_spans;
  std::vector<std::uint64_t> ids(requests.size());
  {
    std::lock_guard lock(mu_);
    if (closed_) {
      result.bus_closed = true;
      return result;
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ids[i] = next_request_id_.fetch_add(1, std::memory_order_relaxed);
      pending_.emplace(ids[i], Slot{&waiter, i});
    }
  }
  std::uint64_t jitter_state = ids[0];

  // Retry-after carried over from the previous attempt's shed replies; the
  // next backoff honours max(backoff, hint).
  std::uint64_t retry_hint_us = 0;
  for (std::uint32_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    // Which of our requests are still unanswered?  (Filled slots keep
    // their pending_ entry until the withdraw below, so check the slot.)
    std::vector<std::size_t> todo;
    {
      std::lock_guard lock(mu_);
      waiter.sheds_this_attempt = 0;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (!result.responses[i].has_value()) todo.push_back(i);
      }
    }
    if (todo.empty()) break;
    if (attempt > 0) {
      result.stats.retries += todo.size();
      const auto backoff = std::min(
          policy_.backoff_cap,
          std::chrono::milliseconds(policy_.backoff_base.count()
                                    << std::min<std::uint32_t>(attempt - 1,
                                                               16)));
      // Honour the shedding server's retry-after hint, and jitter the sleep
      // so retry storms from many clients decorrelate instead of re-bursting
      // in lockstep.
      auto sleep_us = std::max<std::uint64_t>(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(backoff)
                  .count()),
          retry_hint_us);
      if (policy_.backoff_jitter > 0.0) {
        sleep_us += static_cast<std::uint64_t>(
            static_cast<double>(sleep_us) * policy_.backoff_jitter *
            unit_uniform(jitter_state));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      retry_hint_us = 0;
    }
    obs::ScopedSpan attempt_span(gather_span.context(), "rpc.attempt",
                                 "client");
    attempt_span.arg("attempt", static_cast<double>(attempt));
    attempt_span.arg("outstanding", static_cast<double>(todo.size()));
    const auto deadline =
        std::chrono::steady_clock::now() + policy_.attempt_timeout;
    const std::uint64_t deadline_us =
        steady_now_us() +
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                policy_.attempt_timeout)
                .count());
    for (const std::size_t i : todo) {
      bus_.send_to_server(
          requests[i].first,
          envelope_wrap({ids[i], attempt, tenant, 0, deadline_us,
                         trace.trace_id, request_spans[i]},
                        requests[i].second));
    }

    std::unique_lock lock(mu_);
    waiter.cv.wait_until(lock, deadline, [&] {
      return waiter.remaining == 0 || closed_ ||
             (waiter.sheds_this_attempt >= waiter.remaining);
    });
    if (waiter.remaining == 0) break;
    if (closed_) {
      result.bus_closed = true;
      break;
    }
    if (waiter.sheds_this_attempt >= waiter.remaining) {
      // Every outstanding request was explicitly shed: retry after the
      // server's hint instead of burning the rest of the attempt window.
      retry_hint_us = waiter.retry_after_us;
      waiter.retry_after_us = 0;
      continue;
    }
    ++result.stats.timeouts;  // attempt window truly expired
  }

  // Withdraw our ids before the stack-allocated waiter dies; late
  // responses then count as stray instead of touching freed memory.
  {
    std::lock_guard lock(mu_);
    for (const std::uint64_t id : ids) pending_.erase(id);
    result.stats.duplicates_discarded = waiter.duplicates;
    result.stats.sheds = waiter.sheds;
  }
  // shed[i] marks only requests that ended shed-and-unanswered; a request
  // shed on one attempt but answered on a later one completed normally.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (result.responses[i].has_value()) result.shed[i] = false;
  }
  if (trace.enabled()) {
    // Answered requests closed their span at the reply.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (result.responses[i].has_value()) continue;
      trace.tracer->add_arg(request_spans[i], "responded", 0.0);
      trace.tracer->end(request_spans[i]);
    }
    gather_span.arg("retries", static_cast<double>(result.stats.retries));
    gather_span.arg("timeouts", static_cast<double>(result.stats.timeouts));
    gather_span.arg("sheds", static_cast<double>(result.stats.sheds));
  }
  return result;
}

}  // namespace pdc::rpc
