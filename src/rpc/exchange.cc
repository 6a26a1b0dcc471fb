#include "rpc/exchange.h"

#include <algorithm>
#include <utility>

namespace pdc::rpc {

namespace {

std::uint64_t ack_key(std::uint32_t dest, std::uint32_t seq) noexcept {
  return (static_cast<std::uint64_t>(dest) << 32) | seq;
}

/// Keep at most this many unarmed buckets (frames that arrived before this
/// server's own start(), or for an epoch it never runs); beyond it the
/// oldest is pruned so a long-lived server cannot accumulate them.  Armed
/// buckets are never pruned: their deadline bounds them.
constexpr std::size_t kMaxUnarmedBuckets = 64;

/// Settled (join, epoch) keys remembered so their late frames are not
/// buffered again.
constexpr std::size_t kMaxRetiredKeys = 1024;

}  // namespace

// ------------------------------------------------------------------ frame

std::vector<std::uint8_t> ExchangeFrame::serialize() const {
  GatherWriter w;
  w.put(kExchangeFrameTag);
  w.put(static_cast<std::uint8_t>(kind));
  w.put(join_id);
  w.put(epoch);
  w.put(from);
  w.put(seq);
  switch (kind) {
    case ExchangeFrameKind::kBatch:
      w.put(side);
      // Borrowed span: the bulk tuple bytes are copied exactly once, at
      // wire assembly (PR 7 zero-copy discipline).
      w.put_vector_ref(tuples);
      break;
    case ExchangeFrameKind::kEos:
      w.put(batches_total);
      break;
    case ExchangeFrameKind::kAck:
      break;
  }
  return w.take();
}

Result<ExchangeFrame> ExchangeFrame::Deserialize(SerialReader& r) {
  std::uint8_t tag = 0;
  PDC_RETURN_IF_ERROR(r.get(tag));
  if (tag != kExchangeFrameTag) {
    return Status::Corruption("not an exchange frame");
  }
  ExchangeFrame f;
  std::uint8_t kind = 0;
  PDC_RETURN_IF_ERROR(r.get(kind));
  if (kind < static_cast<std::uint8_t>(ExchangeFrameKind::kBatch) ||
      kind > static_cast<std::uint8_t>(ExchangeFrameKind::kAck)) {
    return Status::Corruption("bad exchange frame kind");
  }
  f.kind = static_cast<ExchangeFrameKind>(kind);
  PDC_RETURN_IF_ERROR(r.get(f.join_id));
  PDC_RETURN_IF_ERROR(r.get(f.epoch));
  PDC_RETURN_IF_ERROR(r.get(f.from));
  PDC_RETURN_IF_ERROR(r.get(f.seq));
  switch (f.kind) {
    case ExchangeFrameKind::kBatch: {
      PDC_RETURN_IF_ERROR(r.get(f.side));
      if (f.side != kSideA && f.side != kSideB) {
        return Status::Corruption("bad exchange batch side");
      }
      PDC_RETURN_IF_ERROR(r.get_vector(f.tuple_storage));
      f.tuples = f.tuple_storage;
      break;
    }
    case ExchangeFrameKind::kEos:
      PDC_RETURN_IF_ERROR(r.get(f.batches_total));
      if (f.seq != kEosSeq) {
        return Status::Corruption("EOS frame with a batch seq");
      }
      break;
    case ExchangeFrameKind::kAck:
      break;
  }
  return f;
}

// ------------------------------------------------------------------- port

ExchangePort::ExchangePort(MessageBus& bus, ServerId id, Options options)
    : bus_(bus), id_(id), options_(options) {
  receiver_ = std::thread([this] { receive_loop(); });
}

ExchangePort::~ExchangePort() {
  close();
  if (receiver_.joinable()) receiver_.join();
}

void ExchangePort::close() {
  std::vector<Settled> settled;
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      const auto next = std::next(it);
      if (it->second.done) settle(it, /*complete=*/false, settled);
      it = next;
    }
    buckets_.clear();
  }
  bus_.exchange_mailbox(id_).close();
  fire(settled);
}

void ExchangePort::fire(std::vector<Settled>& settled) {
  for (Settled& s : settled) s.done(std::move(s.outcome));
  settled.clear();
}

void ExchangePort::send_frame(ServerId dest, std::uint32_t attempt,
                              std::span<const std::uint8_t> bytes) {
  bus_.send_to_exchange(
      id_, dest,
      envelope_wrap(Envelope{.request_id = next_frame_id_.fetch_add(
                                 1, std::memory_order_relaxed),
                             .attempt = attempt},
                    bytes));
}

void ExchangePort::settle(std::map<EpochKey, Bucket>::iterator it,
                          bool complete, std::vector<Settled>& settled) {
  Bucket& bucket = it->second;
  Settled s;
  s.done = std::move(bucket.done);
  s.outcome.complete = complete;
  s.outcome.stats = bucket.stats;
  if (complete) {
    s.outcome.tuples.a = std::move(bucket.a);
    s.outcome.tuples.b = std::move(bucket.b);
  }
  settled.push_back(std::move(s));
  if (retired_.insert(it->first).second) {
    retired_order_.push_back(it->first);
    if (retired_order_.size() > kMaxRetiredKeys) {
      retired_.erase(retired_order_.front());
      retired_order_.pop_front();
    }
  }
  buckets_.erase(it);
}

void ExchangePort::settle_if_complete(std::map<EpochKey, Bucket>::iterator it,
                                      std::vector<Settled>& settled) {
  const Bucket& bucket = it->second;
  if (!bucket.done || !bucket.unacked.empty()) return;
  for (const ServerId p : bucket.remote) {
    const auto stream = bucket.producers.find(p);
    if (stream == bucket.producers.end() || !stream->second.complete()) {
      return;
    }
  }
  settle(it, /*complete=*/true, settled);
}

void ExchangePort::start(std::uint64_t join_id, std::uint32_t epoch,
                         const std::vector<ServerId>& producers,
                         std::vector<OutboundFrame> frames,
                         Continuation done) {
  const EpochKey key{join_id, epoch};
  const auto shared =
      std::make_shared<const std::vector<OutboundFrame>>(std::move(frames));
  std::vector<Settled> settled;
  {
    std::lock_guard lock(mu_);
    if (closed_ || retired_.count(key) != 0) {
      // A closed port, or an epoch this server already settled: nothing
      // can complete it any more.
      settled.push_back({std::move(done), ShuffleOutcome{}});
    } else {
      // Arm before sending, so every ack finds the bucket it belongs to.
      const auto [it, inserted] = buckets_.try_emplace(key);
      Bucket& bucket = it->second;
      if (inserted) bucket.stamp = ++stamp_;
      bucket.done = std::move(done);
      for (const ServerId p : producers) {
        if (p != id_) bucket.remote.push_back(p);
      }
      bucket.frames = shared;
      for (const OutboundFrame& f : *shared) {
        bucket.unacked.insert(ack_key(f.dest, f.seq));
        bucket.stats.bytes_sent += f.bytes.size();
        ++bucket.stats.msgs_sent;
      }
      const auto now = Clock::now();
      bucket.deadline = now + options_.deadline;
      bucket.next_retransmit = now + options_.retransmit_interval;
      settle_if_complete(it, settled);
    }
  }
  if (settled.empty()) {
    for (const OutboundFrame& f : *shared) send_frame(f.dest, 0, f.bytes);
    // The receiver may sleep past this bucket's first timer: an empty
    // message (not a frame) wakes it to re-read its timers.
    bus_.exchange_mailbox(id_).push(Message{id_, {}});
  }
  fire(settled);
}

bool ExchangePort::on_frame(const ExchangeFrame& frame,
                            std::vector<Settled>& settled) {
  const EpochKey key{frame.join_id, frame.epoch};
  std::lock_guard lock(mu_);
  if (closed_) return false;
  if (frame.kind == ExchangeFrameKind::kAck) {
    const auto it = buckets_.find(key);
    if (it != buckets_.end() && it->second.done) {
      it->second.unacked.erase(ack_key(frame.from, frame.seq));
      settle_if_complete(it, settled);
    }
    return false;
  }
  // Batch or EOS: record it exactly once, ack it every time (the ack for an
  // earlier delivery may itself have been lost).  A retired epoch's late
  // frames are acked and dropped.
  if (retired_.count(key) != 0) return true;
  const auto [it, inserted] = buckets_.try_emplace(key);
  Bucket& bucket = it->second;
  if (inserted) bucket.stamp = ++stamp_;
  ProducerStream& stream = bucket.producers[frame.from];
  if (frame.kind == ExchangeFrameKind::kEos) {
    stream.total = frame.batches_total;
  } else if (stream.seqs.insert(frame.seq).second) {
    auto& out = frame.side == kSideA ? bucket.a : bucket.b;
    out.insert(out.end(), frame.tuples.begin(), frame.tuples.end());
  }
  settle_if_complete(it, settled);
  if (buckets_.size() > kMaxUnarmedBuckets) {
    std::size_t unarmed = 0;
    auto oldest = buckets_.end();
    for (auto b = buckets_.begin(); b != buckets_.end(); ++b) {
      if (b->second.done) continue;
      ++unarmed;
      if (oldest == buckets_.end() || b->second.stamp < oldest->second.stamp) {
        oldest = b;
      }
    }
    if (unarmed > kMaxUnarmedBuckets) buckets_.erase(oldest);
  }
  return true;
}

void ExchangePort::on_timers(Clock::time_point now,
                             std::vector<Resend>& resends,
                             std::vector<Settled>& settled) {
  std::lock_guard lock(mu_);
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    const auto next = std::next(it);
    Bucket& bucket = it->second;
    if (bucket.done) {
      if (now >= bucket.deadline) {
        settle(it, /*complete=*/false, settled);
      } else if (now >= bucket.next_retransmit && !bucket.unacked.empty()) {
        Resend resend{bucket.frames, {}, ++bucket.attempt};
        for (std::size_t i = 0; i < bucket.frames->size(); ++i) {
          const OutboundFrame& f = (*bucket.frames)[i];
          if (bucket.unacked.count(ack_key(f.dest, f.seq)) == 0) continue;
          resend.indices.push_back(i);
          bucket.stats.bytes_sent += f.bytes.size();
          ++bucket.stats.msgs_sent;
          ++bucket.stats.retransmits;
        }
        resends.push_back(std::move(resend));
        bucket.next_retransmit = now + options_.retransmit_interval;
      }
    }
    it = next;
  }
}

ExchangePort::Clock::time_point ExchangePort::next_wake() const {
  auto wake = Clock::now() + std::chrono::hours(1);
  std::lock_guard lock(mu_);
  for (const auto& [key, bucket] : buckets_) {
    if (!bucket.done) continue;
    wake = std::min(wake, bucket.deadline);
    if (!bucket.unacked.empty()) wake = std::min(wake, bucket.next_retransmit);
  }
  return wake;
}

void ExchangePort::receive_loop() {
  Mailbox& inbox = bus_.exchange_mailbox(id_);
  std::vector<Settled> settled;
  std::vector<Resend> resends;
  while (true) {
    std::optional<Message> message = inbox.pop_until(next_wake());
    if (message.has_value()) {
      Envelope envelope;
      std::span<const std::uint8_t> payload;
      // A checksum failure is corruption in transit: treated as loss (an
      // empty wake-up message from start() fails it too).
      if (envelope_unwrap(message->payload, envelope, payload)) {
        SerialReader reader(payload);
        auto frame = ExchangeFrame::Deserialize(reader);
        if (frame.ok() && on_frame(*frame, settled)) {
          ExchangeFrame ack;
          ack.kind = ExchangeFrameKind::kAck;
          ack.join_id = frame->join_id;
          ack.epoch = frame->epoch;
          ack.from = id_;
          ack.seq = frame->seq;
          send_frame(frame->from, 0, ack.serialize());
        }
      }
    } else if (inbox.closed()) {
      break;
    }
    on_timers(Clock::now(), resends, settled);
    for (const Resend& r : resends) {
      for (const std::size_t i : r.indices) {
        const OutboundFrame& f = (*r.frames)[i];
        send_frame(f.dest, r.attempt, f.bytes);
      }
    }
    resends.clear();
    fire(settled);
  }
  // Mailbox closed (bus shutdown or close()): fail whatever is still armed.
  close();
}

}  // namespace pdc::rpc
