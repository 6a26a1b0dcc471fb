// Exchange operator transport: reliable server-to-server tuple shuffle.
//
// Cross-object joins partition candidate tuples by zone id and ship each
// partition to the server that owns the zone (ParGRES-style exchange).  The
// MessageBus provides only a lossy, per-server exchange mailbox; this port
// layers exactly-once delivery on top of it with the same envelope
// machinery the client RPC path uses:
//
//   - every frame travels inside an Envelope (word-hash checksum), so
//     in-transit corruption is detected and treated as loss;
//   - the sender retransmits every unacked frame until the receiver acks
//     it or the shuffle deadline expires;
//   - the receiver dedups frames by (producer, seq) per (join_id, epoch)
//     and re-acks duplicates, so fault-injected duplication and sender
//     retransmits deliver each batch exactly once;
//   - an EOS frame per producer carries the total batch count, so the
//     consumer knows when a producer's stream is complete.
//
// Nothing waits on a peer.  start() sends an epoch's frames, arms its
// (join_id, epoch) bucket with a continuation and returns.  The port's
// receiver thread drains the exchange mailbox and runs the bucket's timers
// (Mailbox::pop_until): it retransmits unacked frames every
// retransmit_interval and fails the bucket once the deadline passes.  The
// bucket settles exactly once — complete when every remote producer's
// stream arrived and every frame this server sent was acked, failed on the
// deadline or on close() — and its continuation then runs on the thread
// that settled it.
//
// Epochs: the client re-runs a failed join round under a fresh epoch.
// Frames are keyed by (join_id, epoch).  A settled bucket's key is
// retired: its late frames are still acked but never buffered, so they
// cannot leak into the retry's bucket or pile up.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/serial.h"
#include "common/status.h"
#include "common/types.h"
#include "rpc/message_bus.h"

namespace pdc::rpc {

/// One join candidate flowing through the exchange.  `zone` is the TARGET
/// zone bucket (for band-expanded probe tuples this differs from the zone
/// the value itself falls in), `pos` the element's original-space position.
struct JoinTuple {
  std::int64_t zone = 0;
  double value = 0.0;
  std::uint64_t pos = 0;
};
static_assert(std::is_trivially_copyable_v<JoinTuple> &&
                  sizeof(JoinTuple) == 24,
              "JoinTuple is shipped as raw bytes");

/// Leading wire byte of every exchange frame.  Numerically equal to
/// server::RequestType::kExchange so peek_request_type classifies exchange
/// frames without the rpc layer depending on server wire headers.
inline constexpr std::uint8_t kExchangeFrameTag = 6;

enum class ExchangeFrameKind : std::uint8_t {
  kBatch = 1,  ///< one batch of tuples for one side
  kEos = 2,    ///< producer finished; carries its total batch count
  kAck = 3,    ///< receiver acknowledges (producer retransmits until seen)
};

/// Sequence number reserved for the EOS frame (batches use 0..n-1).
inline constexpr std::uint32_t kEosSeq = 0xFFFFFFFFu;

/// Which join side a batch belongs to (0 = build/A, 1 = probe/B).
inline constexpr std::uint8_t kSideA = 0;
inline constexpr std::uint8_t kSideB = 1;

struct ExchangeFrame {
  ExchangeFrameKind kind = ExchangeFrameKind::kBatch;
  std::uint64_t join_id = 0;
  std::uint32_t epoch = 0;
  /// kBatch/kEos: producing server.  kAck: the acking server.
  std::uint32_t from = 0;
  /// kBatch: batch index.  kEos: kEosSeq.  kAck: the seq being acked.
  std::uint32_t seq = 0;
  std::uint8_t side = kSideA;         ///< kBatch only
  std::uint32_t batches_total = 0;    ///< kEos only
  /// kBatch payload.  serialize() emits this as a borrowed GatherWriter
  /// span (the single bulk copy happens at wire assembly), so the span
  /// must stay alive until serialize() returns.
  std::span<const JoinTuple> tuples;
  /// Deserialize materializes the batch here and points `tuples` at it.
  std::vector<JoinTuple> tuple_storage;

  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static Result<ExchangeFrame> Deserialize(SerialReader& r);
};

/// What one epoch's shipment actually cost (feeds the MPC shuffle terms
/// of the cost model and the join response's observability fields).
struct ShuffleStats {
  std::uint64_t bytes_sent = 0;  ///< envelope payload bytes, incl. rexmits
  std::uint64_t msgs_sent = 0;
  std::uint64_t retransmits = 0;
};

/// Tuples collected from every remote producer of one (join_id, epoch).
struct CollectedTuples {
  std::vector<JoinTuple> a;
  std::vector<JoinTuple> b;
};

/// How one epoch's shuffle settled, handed to its continuation.
struct ShuffleOutcome {
  /// Every remote producer's stream arrived and every frame this server
  /// sent was acked.  False: the deadline passed or the port closed, and
  /// the epoch failed.
  bool complete = false;
  CollectedTuples tuples;  ///< remote tuples (complete only)
  ShuffleStats stats;      ///< incl. retransmits, either way
};

/// A serialized frame scheduled for reliable delivery.
struct OutboundFrame {
  ServerId dest = 0;
  std::uint32_t seq = 0;
  std::vector<std::uint8_t> bytes;  ///< ExchangeFrame::serialize() output
};

/// How long an epoch's bucket may stay unsettled (the join surfaces expiry
/// as kUnavailable and the client re-plans), and how often its unacked
/// frames are re-sent meanwhile.
struct ExchangeOptions {
  std::chrono::milliseconds deadline{500};
  std::chrono::milliseconds retransmit_interval{25};
};

/// Per-server endpoint of the exchange: owns a receiver thread that drains
/// the server's exchange mailbox, acks and buffers incoming batches,
/// records acks for this server's shipments, runs the retransmit and
/// deadline timers, and settles each epoch's bucket exactly once.
class ExchangePort {
 public:
  using Options = ExchangeOptions;
  /// An epoch's continuation; runs exactly once, never under the port's
  /// lock, on the thread that settled the bucket.
  using Continuation = std::function<void(ShuffleOutcome)>;

  ExchangePort(MessageBus& bus, ServerId id, Options options = {});
  ~ExchangePort();

  ExchangePort(const ExchangePort&) = delete;
  ExchangePort& operator=(const ExchangePort&) = delete;

  [[nodiscard]] ServerId id() const noexcept { return id_; }

  /// Start one epoch's shuffle and return without waiting: send `frames`
  /// (batches + one EOS per destination) once, then arm the (join_id,
  /// epoch) bucket.  `done` runs once every producer in `producers` other
  /// than this server delivered a complete stream and every frame is
  /// acked, or once the deadline passes or the port closes — on this
  /// port's receiver thread, or on the caller's thread when the bucket
  /// settles inside start() (a closed port, a retired epoch, nothing to
  /// wait for).
  void start(std::uint64_t join_id, std::uint32_t epoch,
             const std::vector<ServerId>& producers,
             std::vector<OutboundFrame> frames, Continuation done);

  /// Fail every armed bucket (each continuation runs on the calling
  /// thread), stop accepting frames and close the exchange mailbox.
  /// Idempotent.
  void close();

 private:
  using Clock = std::chrono::steady_clock;
  using EpochKey = std::pair<std::uint64_t, std::uint32_t>;

  struct ProducerStream {
    std::set<std::uint32_t> seqs;  ///< batch seqs received (deduped)
    std::optional<std::uint32_t> total;  ///< from EOS
    [[nodiscard]] bool complete() const noexcept {
      return total.has_value() && seqs.size() == *total;
    }
  };
  /// One (join_id, epoch): tuples from peers (buffered even before this
  /// server's start() arms it), and once armed, this server's shipment.
  struct Bucket {
    std::vector<JoinTuple> a;
    std::vector<JoinTuple> b;
    std::map<std::uint32_t, ProducerStream> producers;
    std::uint64_t stamp = 0;  ///< insertion order, for pruning
    // Set by start(); `done` empty = not armed yet.
    Continuation done;
    std::vector<ServerId> remote;  ///< producers to hear from
    /// Sent frames; shared so a send outside the lock outlives a settle.
    std::shared_ptr<const std::vector<OutboundFrame>> frames;
    std::set<std::uint64_t> unacked;  ///< (dest << 32 | seq) of frames
    ShuffleStats stats;
    Clock::time_point deadline;
    Clock::time_point next_retransmit;
    std::uint32_t attempt = 0;
  };
  /// A settled bucket's continuation and outcome, fired outside the lock.
  struct Settled {
    Continuation done;
    ShuffleOutcome outcome;
  };
  /// Frames one retransmit round re-sends (sent outside the lock).
  struct Resend {
    std::shared_ptr<const std::vector<OutboundFrame>> frames;
    std::vector<std::size_t> indices;
    std::uint32_t attempt = 0;
  };

  void receive_loop();
  /// Record one incoming frame; true when it must be acked (a batch or
  /// an EOS, duplicates and retired epochs' late frames included).
  bool on_frame(const ExchangeFrame& frame, std::vector<Settled>& settled);
  /// Fire due timers: collect retransmits, settle expired buckets.
  void on_timers(Clock::time_point now, std::vector<Resend>& resends,
                 std::vector<Settled>& settled);
  /// Earliest armed timer (an hour out when none is armed).
  [[nodiscard]] Clock::time_point next_wake() const;
  /// Settle `it` (complete or failed) into `settled`; retires its key.
  void settle(std::map<EpochKey, Bucket>::iterator it, bool complete,
              std::vector<Settled>& settled);
  /// Settle `it` as complete when it is armed and nothing is outstanding.
  void settle_if_complete(std::map<EpochKey, Bucket>::iterator it,
                          std::vector<Settled>& settled);
  void send_frame(ServerId dest, std::uint32_t attempt,
                  std::span<const std::uint8_t> bytes);
  static void fire(std::vector<Settled>& settled);

  MessageBus& bus_;
  const ServerId id_;
  const Options options_;
  std::atomic<std::uint64_t> next_frame_id_{1};

  mutable std::mutex mu_;
  bool closed_ = false;
  std::uint64_t stamp_ = 0;
  std::map<EpochKey, Bucket> buckets_;
  /// Settled keys (bounded FIFO): late frames are acked, not buffered.
  std::set<EpochKey> retired_;
  std::deque<EpochKey> retired_order_;

  std::thread receiver_;
};

}  // namespace pdc::rpc
