// QueryServer::join_eval — one epoch of a cross-object epsilon join
// (ROADMAP item 4; zones algorithm after Nieto-Santisteban et al.).
//
// Every participant runs this handler for the same (join_id, epoch):
//
//   1. Candidate production: evaluate each side's value pre-filter with the
//      ordinary local pipeline (locations on), gather the matching values,
//      and turn them into (zone, value, pos) tuples.
//   2. Partition + ship: bucket the tuples per participant — kZoneShuffle
//      routes each tuple to the owner of its (band-expanded) zone,
//      kBroadcast ships both sides verbatim to every peer — and deliver
//      the remote buckets exactly-once over the exchange lane.
//      Self-destined tuples stay local and cost no bus bytes.
//   3. Collect: block until every other participant's stream is complete
//      (all batches + EOS), bounded by the exchange deadline.
//   4. Zone join: group the held tuples by owned zone and sort-merge join
//      each zone (pool fan-out, per-task ledgers merged with the
//      work-stealing bound).  Pairs are emitted in the BUILD tuple's zone,
//      so each pair materializes on exactly one server.
//
// Both strategies assemble identical per-zone candidate sets, so their
// results are byte-identical — kBroadcast is the trivially-correct
// baseline kZoneShuffle is differentially tested against.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
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

}  // namespace

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

JoinEvalResponse QueryServer::join_eval(const JoinEvalRequest& request,
                                        const obs::TraceContext& trace) {
  obs::ScopedSpan span(trace, "server.join_eval", actor_);
  JoinEvalResponse response;
  if (const Status s =
          validate_join_params(request.epsilon, request.zone_height);
      !s.ok()) {
    response.status = s;
    return response;
  }
  const std::vector<ServerId>& participants = request.participants;
  if (std::find(participants.begin(), participants.end(), options_.id) ==
      participants.end()) {
    response.status = Status::InvalidArgument(
        "server is not a participant of this join epoch");
    return response;
  }
  const bool multi = participants.size() > 1;
  if (multi && options_.exchange == nullptr) {
    response.status = Status::FailedPrecondition(
        "multi-server join on a deployment without an exchange port");
    return response;
  }

  const CostModel& cost = store_.cluster().config().cost;
  CostLedger ledger;
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
    return response;
  }
  response.candidates_a = local_a.size();
  response.candidates_b = local_b.size();

  // --- 2. Partition into per-participant outboxes. ---
  //
  // kZoneShuffle: a build tuple goes to the owner of its zone; a probe
  // tuple is duplicated into every zone of its epsilon band (its `zone`
  // field carries the TARGET zone) and routed to that zone's owner.
  // kBroadcast: both sides go verbatim to every participant; the receiver
  // band-expands locally and keeps only its owned zones.
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

  // --- Ship the remote buckets (exactly-once), then collect. ---
  const std::size_t self_slot = slot.at(options_.id);
  rpc::ShuffleStats stats;
  if (multi) {
    std::vector<rpc::OutboundFrame> frames;
    for (std::size_t i = 0; i < p; ++i) {
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
    const bool shipped = options_.exchange->ship(request.join_id,
                                                 request.epoch, frames, stats);
    response.shuffle_bytes_sent = stats.bytes_sent;
    response.shuffle_msgs_sent = stats.msgs_sent;
    response.shuffle_retransmits = stats.retransmits;
    response.shuffle_rounds = 1;
    if (!shipped) {
      options_.exchange->forget(request.join_id);
      response.status =
          Status::Unavailable("join shuffle was not acknowledged in time");
      return response;
    }
  }

  std::vector<rpc::JoinTuple> have_a = std::move(out_a[self_slot]);
  std::vector<rpc::JoinTuple> have_b = std::move(out_b[self_slot]);
  if (multi) {
    auto collected = options_.exchange->collect(request.join_id,
                                                request.epoch, participants);
    if (!collected.has_value()) {
      options_.exchange->forget(request.join_id);
      response.status =
          Status::Unavailable("join shuffle collect timed out");
      return response;
    }
    have_a.insert(have_a.end(), collected->a.begin(), collected->a.end());
    have_b.insert(have_b.end(), collected->b.begin(), collected->b.end());
  }

  // --- 4. Group the held tuples by owned zone and join each zone. ---
  //
  // Ownership is re-checked on every tuple: a mis-routed or stale frame can
  // only be dropped here, never double-counted.  Under kBroadcast we hold
  // the full global streams, so this filter IS the partitioning step.
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
  ledger.merge_parallel(task_ledgers,
                        options_.pool != nullptr ? options_.pool->size() : 1);

  std::uint64_t total_pairs = 0;
  for (std::size_t i = 0; i < zone_ids.size(); ++i) {
    // Empty zones are elided: both strategies compute identical per-zone
    // pair sets, so the surviving zone list is strategy-independent too.
    if (pair_lists[i].empty()) continue;
    total_pairs += pair_lists[i].size();
    response.zones.push_back({zone_ids[i], std::move(pair_lists[i])});
  }
  response.ledger = LedgerSummary::from(ledger);
  response.status = Status::Ok();
  if (multi) options_.exchange->forget(request.join_id);
  if (trace.enabled()) {
    span.arg("candidates_a", static_cast<double>(response.candidates_a));
    span.arg("candidates_b", static_cast<double>(response.candidates_b));
    span.arg("zones", static_cast<double>(response.zones.size()));
    span.arg("pairs", static_cast<double>(total_pairs));
    span.arg("shuffle_bytes", static_cast<double>(stats.bytes_sent));
    span.arg("shuffle_msgs", static_cast<double>(stats.msgs_sent));
    span.arg("retransmits", static_cast<double>(stats.retransmits));
    span.arg("elapsed_s", response.ledger.elapsed());
  }
  return response;
}

}  // namespace pdc::server
