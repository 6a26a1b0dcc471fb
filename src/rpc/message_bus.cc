#include "rpc/message_bus.h"

#include <algorithm>
#include <cstring>

#include "common/serial.h"

namespace pdc::rpc {

namespace {
/// Frame magic: detects envelope-less or badly torn frames cheaply.
constexpr std::uint32_t kEnvelopeMagic = 0x45434450u;  // "PDCE"
}  // namespace

std::uint64_t steady_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;

constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

/// One lane step.  It is a bijection in `acc` for a fixed `word` and in
/// `word` for a fixed `acc`, so a changed word always changes the lane and
/// every later step carries that change through to the result.
constexpr std::uint64_t mix(std::uint64_t acc, std::uint64_t word) noexcept {
  return rotl(acc + word * kPrime2, 31) * kPrime1;
}

std::uint64_t load_word(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Envelope fields before the checksum: magic, request_id, attempt,
/// tenant, flags, deadline_us, trace_id, parent_span.
constexpr std::size_t kChecksumOffset = 4 * sizeof(std::uint32_t) +
                                        4 * sizeof(std::uint64_t);

/// Checksum of a whole frame: every byte but the checksum field itself.
std::uint64_t frame_checksum(std::span<const std::uint8_t> frame) noexcept {
  return payload_checksum(
      frame.subspan(kChecksumOffset + sizeof(std::uint64_t)),
      payload_checksum(frame.first(kChecksumOffset)));
}

}  // namespace

std::uint64_t payload_checksum(std::span<const std::uint8_t> data,
                               std::uint64_t seed) noexcept {
  // Four independent 64-bit lanes over 32-byte stripes keep the multiplies
  // pipelined; the tail folds word by word, then the seed, then a
  // bijective avalanche.  Every step is injective in the word it consumes,
  // so two same-length inputs that differ within one 8-byte word (any
  // single flipped byte) always hash differently.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t v0 = kPrime1 + kPrime2;
  std::uint64_t v1 = kPrime2;
  std::uint64_t v2 = 0;
  std::uint64_t v3 = 0 - kPrime1;
  for (; n >= 32; p += 32, n -= 32) {
    v0 = mix(v0, load_word(p));
    v1 = mix(v1, load_word(p + 8));
    v2 = mix(v2, load_word(p + 16));
    v3 = mix(v3, load_word(p + 24));
  }
  std::uint64_t h = rotl(v0, 1) + rotl(v1, 7) + rotl(v2, 12) + rotl(v3, 18) +
                    data.size();
  for (; n >= 8; p += 8, n -= 8) h = mix(h, load_word(p));
  if (n > 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = mix(h, tail);
  }
  h = mix(h, seed);
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<std::uint8_t> envelope_wrap(const Envelope& header,
                                        std::span<const std::uint8_t> payload,
                                        std::span<const std::uint8_t> trace_blob) {
  // Frame: magic, request_id, attempt, tenant, flags, deadline_us,
  // trace_id, parent_span, checksum, payload_len, payload bytes, trace
  // baggage (remainder).  The checksum covers every byte but itself, so a
  // corrupted header field or trace blob drops the whole frame — retries
  // then recover header, trace and payload alike.
  SerialWriter w(4 * sizeof(std::uint32_t) + 7 * sizeof(std::uint64_t) +
                 payload.size() + trace_blob.size());
  w.put(kEnvelopeMagic);
  w.put(header.request_id);
  w.put(header.attempt);
  w.put(header.tenant);
  w.put(header.flags);
  w.put(header.deadline_us);
  w.put(header.trace_id);
  w.put(header.parent_span);
  w.put<std::uint64_t>(0);  // checksum backpatched below
  w.put<std::uint64_t>(payload.size());
  w.put_raw(payload);
  w.put_raw(trace_blob);
  std::vector<std::uint8_t> frame = w.take();
  const std::uint64_t checksum = frame_checksum(frame);
  std::memcpy(frame.data() + kChecksumOffset, &checksum, sizeof(checksum));
  return frame;
}

bool envelope_unwrap(std::span<const std::uint8_t> frame, Envelope& header,
                     std::span<const std::uint8_t>& payload,
                     std::span<const std::uint8_t>& trace_blob) {
  SerialReader r(frame);
  std::uint32_t magic = 0;
  Envelope parsed;
  std::uint64_t checksum = 0;
  std::uint64_t payload_len = 0;
  if (!r.get(magic).ok() || magic != kEnvelopeMagic) return false;
  if (!r.get(parsed.request_id).ok() || !r.get(parsed.attempt).ok() ||
      !r.get(parsed.tenant).ok() || !r.get(parsed.flags).ok() ||
      !r.get(parsed.deadline_us).ok() || !r.get(parsed.trace_id).ok() ||
      !r.get(parsed.parent_span).ok() || !r.get(checksum).ok()) {
    return false;
  }
  if (frame_checksum(frame) != checksum) return false;
  if (!r.get(payload_len).ok() || payload_len > r.remaining()) return false;
  header = parsed;
  payload = frame.subspan(frame.size() - r.remaining(),
                          static_cast<std::size_t>(payload_len));
  trace_blob = frame.subspan(frame.size() - r.remaining() +
                             static_cast<std::size_t>(payload_len));
  return true;
}

bool envelope_unwrap(std::span<const std::uint8_t> frame, Envelope& header,
                     std::span<const std::uint8_t>& payload) {
  std::span<const std::uint8_t> trace_blob;
  return envelope_unwrap(frame, header, payload, trace_blob);
}

// ----------------------------------------------------------------- mailbox

PushOutcome Mailbox::offer(Message message) {
  {
    std::lock_guard lock(mu_);
    if (closed_) return PushOutcome::kClosed;
    if (capacity_ != 0 && queue_.size() >= capacity_) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return PushOutcome::kRejectedFull;
    }
    queue_.push_back(std::move(message));
    peak_ = std::max(peak_, queue_.size());
  }
  cv_.notify_one();
  return PushOutcome::kAccepted;
}

void Mailbox::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mu_);
  capacity_ = capacity;
}

std::size_t Mailbox::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

std::size_t Mailbox::peak() const {
  std::lock_guard lock(mu_);
  return peak_;
}

std::optional<Message> Mailbox::pop() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Message m = std::move(queue_.front());
  queue_.pop_front();
  return m;
}

std::optional<Message> Mailbox::try_pop() {
  std::lock_guard lock(mu_);
  if (queue_.empty()) return std::nullopt;
  Message m = std::move(queue_.front());
  queue_.pop_front();
  return m;
}

std::optional<Message> Mailbox::pop_until(
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock lock(mu_);
  if (!cv_.wait_until(lock, deadline,
                      [this] { return closed_ || !queue_.empty(); })) {
    return std::nullopt;  // timed out
  }
  if (queue_.empty()) return std::nullopt;  // closed and drained
  Message m = std::move(queue_.front());
  queue_.pop_front();
  return m;
}

void Mailbox::close() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void Mailbox::wait_closed() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [this] { return closed_; });
}

bool Mailbox::closed() const {
  std::lock_guard lock(mu_);
  return closed_;
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

// ---------------------------------------------------------------------- bus

MessageBus::~MessageBus() {
  shutdown();
  if (delay_thread_.joinable()) delay_thread_.join();
}

bool MessageBus::push_and_account(Mailbox& box, Message message) {
  const std::size_t size = message.payload.size();
  if (!box.push(std::move(message))) return false;
  bytes_.fetch_add(size, std::memory_order_relaxed);
  messages_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool MessageBus::deliver(Mailbox& box, Direction direction, ServerId server,
                         Message message) {
  if (injector_ == nullptr) {
    return push_and_account(box, std::move(message));
  }
  const SendDecision decision =
      injector_->on_send(direction, server, message.payload);
  if (decision.drop) return true;  // lost in transit: sender can't tell
  if (decision.corrupt) injector_->corrupt(message.payload);
  Message copy;
  if (decision.duplicate) copy = message;
  bool accepted;
  if (decision.delay.count() > 0) {
    deliver_later(box, std::move(message),
                  std::chrono::steady_clock::now() + decision.delay);
    accepted = true;
  } else {
    accepted = push_and_account(box, std::move(message));
  }
  if (decision.duplicate) {
    // The duplicate arrives a little later, as real networks duplicate.
    deliver_later(box, std::move(copy),
                  std::chrono::steady_clock::now() +
                      std::max(decision.delay,
                               std::chrono::milliseconds(1)));
  }
  return accepted;
}

void MessageBus::deliver_later(Mailbox& box, Message message,
                               std::chrono::steady_clock::time_point when) {
  {
    std::lock_guard lock(delay_mu_);
    if (delay_stop_) return;
    delayed_.push_back({when, &box, std::move(message)});
    if (!delay_thread_.joinable()) {
      delay_thread_ = std::thread([this] { delay_loop(); });
    }
  }
  delay_cv_.notify_one();
}

void MessageBus::delay_loop() {
  std::unique_lock lock(delay_mu_);
  while (!delay_stop_) {
    if (delayed_.empty()) {
      delay_cv_.wait(lock,
                     [this] { return delay_stop_ || !delayed_.empty(); });
      continue;
    }
    auto next = std::min_element(delayed_.begin(), delayed_.end(),
                                 [](const Delayed& a, const Delayed& b) {
                                   return a.when < b.when;
                                 });
    const auto when = next->when;
    if (std::chrono::steady_clock::now() < when) {
      delay_cv_.wait_until(lock, when);
      continue;  // re-scan: stop flag or an earlier message may have arrived
    }
    Delayed item = std::move(*next);
    delayed_.erase(next);
    lock.unlock();
    push_and_account(*item.box, std::move(item.message));
    lock.lock();
  }
  delayed_.clear();
}

bool MessageBus::send_to_server(ServerId server,
                                std::vector<std::uint8_t> payload) {
  return deliver(servers_[server], Direction::kClientToServer, server,
                 {kClientSender, std::move(payload)});
}

void MessageBus::broadcast(std::span<const std::uint8_t> payload) {
  for (ServerId s = 0; s < num_servers(); ++s) {
    send_to_server(s, std::vector<std::uint8_t>(payload.begin(), payload.end()));
  }
}

bool MessageBus::send_to_client(ServerId server,
                                std::vector<std::uint8_t> payload) {
  return deliver(client_, Direction::kServerToClient, server,
                 {server, std::move(payload)});
}

bool MessageBus::send_to_exchange(ServerId from, ServerId to,
                                  std::vector<std::uint8_t> payload) {
  return deliver(exchange_[to], Direction::kServerToServer, to,
                 {from, std::move(payload)});
}

void MessageBus::shutdown() {
  {
    std::lock_guard lock(delay_mu_);
    delay_stop_ = true;
  }
  delay_cv_.notify_all();
  for (Mailbox& m : servers_) m.close();
  for (Mailbox& m : exchange_) m.close();
  client_.close();
}

std::uint64_t MessageBus::bytes_transferred() const noexcept {
  return bytes_.load(std::memory_order_relaxed);
}

std::uint64_t MessageBus::messages_sent() const noexcept {
  return messages_.load(std::memory_order_relaxed);
}

}  // namespace pdc::rpc
