// QueryServer::join_eval — one epoch of a cross-object epsilon join
// (zones algorithm after Nieto-Santisteban et al.), in two stages that never
// wait on another server.
//
// Every participant runs stage 1 for the same (join_id, epoch), as an
// ordinary admitted request:
//
//   1. Candidate production: evaluate each side's value pre-filter with the
//      ordinary local pipeline (locations on), gather the matching values,
//      and turn them into (zone, value, pos) tuples.
//   2. Partition + ship: bucket the tuples per participant — kZoneShuffle
//      routes each tuple to the owner of its (band-expanded) zone,
//      kBroadcast ships both sides verbatim to every peer — and hand the
//      remote buckets to the exchange port, which sends them once and
//      arms the epoch's bucket with the stage-2 continuation.  Stage 1
//      then returns without replying.  Self-destined tuples stay local and
//      cost no bus bytes.
//
// Stage 2 runs once the port settles the bucket: every other participant's
// stream is complete (all batches + EOS) and every frame this server sent
// is acked, or the shuffle deadline passed (kUnavailable).  It hops to the
// pool (runs inline without one) and:
//
//   3. Zone join: groups the held tuples by owned zone and sort-merge joins
//      each zone (pool fan-out, per-task ledgers merged with the
//      work-stealing bound).  Pairs are emitted in the BUILD tuple's zone,
//      so each pair materializes on exactly one server.
//   4. Replies: caches the serialized answer for duplicates and sends it.
//
// Both strategies assemble identical per-zone candidate sets, so their
// results are byte-identical — kBroadcast is the trivially-correct
// baseline kZoneShuffle is differentially tested against.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "obj/type_dispatch.h"
#include "server/query_server.h"
#include "server/zone_join.h"

namespace pdc::server {
namespace {

/// Tuples per exchange batch frame.  Small enough that a corrupted or
/// dropped frame retransmits cheaply, large enough to amortize envelope
/// overhead.
constexpr std::size_t kExchangeBatchTuples = 512;

/// One owned zone's build/probe tuples awaiting the merge join.
struct ZoneInput {
  std::vector<rpc::JoinTuple> a;
  std::vector<rpc::JoinTuple> b;
};

/// Bound on cached join answers (FIFO).
constexpr std::size_t kJoinCacheEntries = 32;

}  // namespace

/// One join epoch between its stages: what stage 1 hands to stage 2.
struct QueryServer::PendingJoin {
  PendingJoin(const JoinEvalRequest& r, rpc::Reply rep)
      : request(r), reply(std::move(rep)) {}

  JoinEvalRequest request;
  rpc::Reply reply;
  JoinEvalResponse response;  ///< candidates so far; the answer at the end
  CostLedger ledger;
  /// Self-destined tuples (stage 2 appends the remote ones).
  std::vector<rpc::JoinTuple> have_a;
  std::vector<rpc::JoinTuple> have_b;
  /// Stage 1's "server.join_eval" span; stage 2 adds the shuffle args.
  obs::SpanId join_span = 0;
  /// When stage 1 handed the shipment to the port (exchange wait start).
  std::uint64_t shipped_us = 0;
};

Status QueryServer::produce_join_candidates(
    ObjectId object_id, const ValueInterval& filter, Strategy eval_strategy,
    const std::vector<ServerId>& identities, double zone_height,
    CostLedger& ledger, std::vector<rpc::JoinTuple>& out,
    const obs::TraceContext& trace) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* object,
                       store_.get(object_id));
  // Candidate production is an ordinary single-conjunct evaluation with
  // locations.  kSortedHistogram degrades to kHistogram: join production
  // needs original positions, which would force the replica permutation
  // read anyway — the histogram path gets them directly.
  EvalRequest shim;
  shim.strategy = eval_strategy == Strategy::kSortedHistogram
                      ? Strategy::kHistogram
                      : eval_strategy;
  shim.need_locations = true;
  AndTerm term;
  term.conjuncts.push_back({object_id, filter});
  shim.terms.push_back(term);

  const std::size_t elem = object->element_size();
  std::uint64_t regions_evaluated = 0;
  RegionChoiceCounts counts;
  for (const ServerId identity : identities) {
    std::vector<std::uint64_t> positions;
    std::vector<Extent1D> extents;
    PDC_RETURN_IF_ERROR(eval_term(term, shim, identity, ledger, positions,
                                  extents, regions_evaluated, counts, trace));
    std::vector<std::uint8_t> raw(positions.size() * elem);
    PDC_RETURN_IF_ERROR(gather_values(*object, positions, raw, ledger, trace));
    out.reserve(out.size() + positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const double v = obj::dispatch_type(object->type, [&](auto tag) {
        using T = decltype(tag);
        T x;
        std::memcpy(&x, raw.data() + i * elem, sizeof(T));
        return static_cast<double>(x);
      });
      // Non-finite values can never satisfy |va - vb| <= eps (NaN fails
      // every comparison; an infinity's distance to anything is infinite
      // or NaN) — exactly as in the element-wise oracle, so skipping them
      // before zoning changes nothing but the shuffle volume.
      if (!std::isfinite(v)) continue;
      out.push_back({zone_of(v, zone_height), v, positions[i]});
    }
  }
  return Status::Ok();
}

void QueryServer::join_eval(const JoinEvalRequest& request,
                            const obs::TraceContext& trace,
                            rpc::Reply reply) {
  const JoinKey key{request.join_id, request.epoch};
  std::optional<std::vector<std::uint8_t>> cached;
  bool duplicate = false;
  {
    std::lock_guard lock(join_cache_mu_);
    for (const auto& [k, bytes] : join_cache_) {
      if (k == key) cached = bytes;
    }
    // A duplicate (bus duplication or client retry) of an epoch still in
    // flight is dropped: the original's reply answers the stable request
    // id, and re-running stage 1 would consume the bucket twice.
    duplicate =
        cached.has_value() || !joins_in_flight_.insert(key).second;
  }
  if (duplicate) {
    if (join_duplicates_metric_ != nullptr) join_duplicates_metric_->add();
    if (cached.has_value()) std::move(reply).send(std::move(*cached));
    return;
  }
  if (join_requests_metric_ != nullptr) join_requests_metric_->add();
  const auto join = std::make_shared<PendingJoin>(request, std::move(reply));
  JoinEvalResponse& response = join->response;
  const std::vector<ServerId>& participants = request.participants;
  const bool multi = participants.size() > 1;
  std::vector<rpc::OutboundFrame> frames;
  {
    obs::ScopedSpan span(trace, "server.join_eval", actor_);
    join->join_span = span.id();
    response.status = validate_join_params(request.epsilon,
                                           request.zone_height);
    if (response.status.ok() &&
        std::find(participants.begin(), participants.end(), options_.id) ==
            participants.end()) {
      response.status = Status::InvalidArgument(
          "server is not a participant of this join epoch");
    }
    if (response.status.ok() && multi && options_.exchange == nullptr) {
      response.status = Status::FailedPrecondition(
          "multi-server join on a deployment without an exchange port");
    }
    if (!response.status.ok()) {
      reply_join(*join);
      return;
    }

    const CostModel& cost = store_.cluster().config().cost;
    CostLedger& ledger = join->ledger;
    std::vector<ServerId> identities = request.act_as;
    if (identities.empty()) identities.push_back(options_.id);

    // --- 1. Candidate production. ---
    std::vector<rpc::JoinTuple> local_a;
    std::vector<rpc::JoinTuple> local_b;
    Status s = produce_join_candidates(request.object_a, request.filter_a,
                                       request.eval_strategy, identities,
                                       request.zone_height, ledger, local_a,
                                       span.context());
    if (s.ok()) {
      s = produce_join_candidates(request.object_b, request.filter_b,
                                  request.eval_strategy, identities,
                                  request.zone_height, ledger, local_b,
                                  span.context());
    }
    if (!s.ok()) {
      response.status = s;
      reply_join(*join);
      return;
    }
    response.candidates_a = local_a.size();
    response.candidates_b = local_b.size();
    span.arg("candidates_a", static_cast<double>(response.candidates_a));
    span.arg("candidates_b", static_cast<double>(response.candidates_b));

    // --- 2. Partition into per-participant outboxes. ---
    //
    // kZoneShuffle: a build tuple goes to the owner of its zone; a probe
    // tuple is duplicated into every zone of its epsilon band (its `zone`
    // field carries the TARGET zone) and routed to that zone's owner.
    // kBroadcast: both sides go verbatim to every participant; the
    // receiver band-expands locally and keeps only its owned zones.
    const std::size_t p = participants.size();
    std::unordered_map<ServerId, std::size_t> slot;
    for (std::size_t i = 0; i < p; ++i) slot.emplace(participants[i], i);
    std::vector<std::vector<rpc::JoinTuple>> out_a(p);
    std::vector<std::vector<rpc::JoinTuple>> out_b(p);
    if (request.strategy == JoinStrategy::kZoneShuffle) {
      for (const rpc::JoinTuple& t : local_a) {
        out_a[slot.at(zone_owner(t.zone, participants))].push_back(t);
      }
      for (const rpc::JoinTuple& t : local_b) {
        const auto [first, last] =
            zone_band(t.value, request.epsilon, request.zone_height);
        for (std::int64_t z = first; z <= last; ++z) {
          out_b[slot.at(zone_owner(z, participants))].push_back(
              {z, t.value, t.pos});
        }
      }
    } else {
      for (std::size_t i = 0; i < p; ++i) {
        out_a[i] = local_a;
        out_b[i] = local_b;
      }
    }
    std::uint64_t moved = 0;
    for (std::size_t i = 0; i < p; ++i) {
      moved += (out_a[i].size() + out_b[i].size()) * sizeof(rpc::JoinTuple);
    }
    ledger.add_cpu(static_cast<double>(moved) / cost.memcpy_bandwidth_bps,
                   CpuStage::kMerge);

    // --- Frame the remote buckets for the exactly-once shipment. ---
    const std::size_t self_slot = slot.at(options_.id);
    for (std::size_t i = 0; multi && i < p; ++i) {
      if (i == self_slot) continue;
      std::uint32_t seq = 0;
      const auto batch_side = [&](const std::vector<rpc::JoinTuple>& tuples,
                                  std::uint8_t side) {
        for (std::size_t off = 0; off < tuples.size();
             off += kExchangeBatchTuples) {
          const std::size_t n =
              std::min(kExchangeBatchTuples, tuples.size() - off);
          rpc::ExchangeFrame f;
          f.kind = rpc::ExchangeFrameKind::kBatch;
          f.join_id = request.join_id;
          f.epoch = request.epoch;
          f.from = options_.id;
          f.seq = seq++;
          f.side = side;
          f.tuples = std::span<const rpc::JoinTuple>(tuples.data() + off, n);
          frames.push_back({participants[i], f.seq, f.serialize()});
        }
      };
      batch_side(out_a[i], rpc::kSideA);
      batch_side(out_b[i], rpc::kSideB);
      rpc::ExchangeFrame eos;
      eos.kind = rpc::ExchangeFrameKind::kEos;
      eos.join_id = request.join_id;
      eos.epoch = request.epoch;
      eos.from = options_.id;
      eos.seq = rpc::kEosSeq;
      eos.batches_total = seq;
      frames.push_back({participants[i], eos.seq, eos.serialize()});
    }
    join->have_a = std::move(out_a[self_slot]);
    join->have_b = std::move(out_b[self_slot]);
  }
  if (!multi) {
    rpc::ShuffleOutcome local;
    local.complete = true;
    finish_join(*join, std::move(local));
    return;
  }
  join->shipped_us = obs::now_us();
  options_.exchange->start(
      request.join_id, request.epoch, participants, std::move(frames),
      [this, join](rpc::ShuffleOutcome outcome) {
        continue_join(join, std::move(outcome));
      });
}

void QueryServer::continue_join(std::shared_ptr<PendingJoin> join,
                                rpc::ShuffleOutcome outcome) {
  if (options_.pool == nullptr) {
    finish_join(*join, std::move(outcome));
    return;
  }
  options_.pool->submit(
      [this, join = std::move(join), outcome = std::move(outcome)]() mutable {
        finish_join(*join, std::move(outcome));
      });
}

void QueryServer::finish_join(PendingJoin& join, rpc::ShuffleOutcome outcome) {
  const obs::TraceContext root = join.reply.trace();
  const bool multi = join.request.participants.size() > 1;
  if (root.enabled() && multi) {
    // The exchange wait: from the shipment to this continuation's start.
    obs::Span wait;
    wait.id = obs::next_id();
    wait.parent = root.parent;
    wait.start_us = join.shipped_us;
    wait.end_us = std::max(obs::now_us(), join.shipped_us);
    wait.name = "server.exchange_wait";
    wait.actor = actor_;
    root.tracer->record(std::move(wait));
  }
  obs::ScopedSpan span(root, "server.join_merge", actor_);
  const JoinEvalRequest& request = join.request;
  JoinEvalResponse& response = join.response;
  const rpc::ShuffleStats& stats = outcome.stats;
  if (multi) {
    response.shuffle_bytes_sent = stats.bytes_sent;
    response.shuffle_msgs_sent = stats.msgs_sent;
    response.shuffle_retransmits = stats.retransmits;
    response.shuffle_rounds = 1;
  }
  if (root.enabled()) {
    root.tracer->add_arg(join.join_span, "shuffle_bytes",
                         static_cast<double>(stats.bytes_sent));
    root.tracer->add_arg(join.join_span, "shuffle_msgs",
                         static_cast<double>(stats.msgs_sent));
    root.tracer->add_arg(join.join_span, "retransmits",
                         static_cast<double>(stats.retransmits));
  }
  if (!outcome.complete) {
    response.status = Status::Unavailable(
        "join shuffle did not complete before its deadline");
    span.close();
    reply_join(join);
    return;
  }
  std::vector<rpc::JoinTuple>& have_a = join.have_a;
  std::vector<rpc::JoinTuple>& have_b = join.have_b;
  have_a.insert(have_a.end(), outcome.tuples.a.begin(),
                outcome.tuples.a.end());
  have_b.insert(have_b.end(), outcome.tuples.b.begin(),
                outcome.tuples.b.end());

  // --- 3. Group the held tuples by owned zone and join each zone. ---
  //
  // Ownership is re-checked on every tuple: a mis-routed or stale frame can
  // only be dropped here, never double-counted.  Under kBroadcast we hold
  // the full global streams, so this filter IS the partitioning step.
  const std::vector<ServerId>& participants = request.participants;
  std::map<std::int64_t, ZoneInput> zones;
  for (const rpc::JoinTuple& t : have_a) {
    if (zone_owner(t.zone, participants) != options_.id) continue;
    zones[t.zone].a.push_back(t);
  }
  if (request.strategy == JoinStrategy::kZoneShuffle) {
    for (const rpc::JoinTuple& t : have_b) {
      if (zone_owner(t.zone, participants) != options_.id) continue;
      zones[t.zone].b.push_back(t);
    }
  } else {
    for (const rpc::JoinTuple& t : have_b) {
      const auto [first, last] =
          zone_band(t.value, request.epsilon, request.zone_height);
      for (std::int64_t z = first; z <= last; ++z) {
        if (zone_owner(z, participants) != options_.id) continue;
        zones[z].b.push_back({z, t.value, t.pos});
      }
    }
  }

  const CostModel& cost = store_.cluster().config().cost;
  std::vector<std::int64_t> zone_ids;
  std::vector<ZoneInput*> inputs;
  zone_ids.reserve(zones.size());
  inputs.reserve(zones.size());
  for (auto& [z, in] : zones) {
    zone_ids.push_back(z);
    inputs.push_back(&in);
  }
  std::vector<std::vector<JoinPairWire>> pair_lists(zone_ids.size());
  std::vector<CostLedger> task_ledgers(zone_ids.size());
  exec::parallel_for(options_.pool, zone_ids.size(), [&](std::size_t i) {
    ZoneInput& in = *inputs[i];
    // Sort + band merge over the zone's tuples, then the pair write-out.
    task_ledgers[i].add_cpu(
        cost.scan_cost((in.a.size() + in.b.size()) * sizeof(rpc::JoinTuple)),
        CpuStage::kMerge);
    pair_lists[i] =
        zone_merge_join(std::move(in.a), std::move(in.b), request.epsilon);
    task_ledgers[i].add_cpu(
        static_cast<double>(pair_lists[i].size() * sizeof(JoinPairWire)) /
            cost.memcpy_bandwidth_bps,
        CpuStage::kMerge);
  });
  join.ledger.merge_parallel(
      task_ledgers, options_.pool != nullptr ? options_.pool->size() : 1);

  std::uint64_t total_pairs = 0;
  for (std::size_t i = 0; i < zone_ids.size(); ++i) {
    // Empty zones are elided: both strategies compute identical per-zone
    // pair sets, so the surviving zone list is strategy-independent too.
    if (pair_lists[i].empty()) continue;
    total_pairs += pair_lists[i].size();
    response.zones.push_back({zone_ids[i], std::move(pair_lists[i])});
  }
  response.ledger = LedgerSummary::from(join.ledger);
  response.status = Status::Ok();
  if (root.enabled()) {
    root.tracer->add_arg(join.join_span, "zones",
                         static_cast<double>(response.zones.size()));
    root.tracer->add_arg(join.join_span, "pairs",
                         static_cast<double>(total_pairs));
    root.tracer->add_arg(join.join_span, "elapsed_s",
                         response.ledger.elapsed());
  }
  span.close();
  reply_join(join);
}

void QueryServer::reply_join(PendingJoin& join) {
  std::vector<std::uint8_t> bytes = join.response.serialize();
  {
    std::lock_guard lock(join_cache_mu_);
    const JoinKey key{join.request.join_id, join.request.epoch};
    if (join_cache_.size() >= kJoinCacheEntries) {
      join_cache_.erase(join_cache_.begin());
    }
    join_cache_.emplace_back(key, bytes);
    joins_in_flight_.erase(key);
  }
  // Last touch of the PendingJoin's Reply: once sent, the runtime (and
  // then this server) may be torn down.
  std::move(join.reply).send(std::move(bytes));
}

}  // namespace pdc::server
