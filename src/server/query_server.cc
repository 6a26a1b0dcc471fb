#include "server/query_server.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/interval.h"
#include "common/log.h"
#include "obj/type_dispatch.h"
#include "server/region_assignment.h"
#include "sortrep/sorted_replica.h"

namespace pdc::server {
namespace {

/// Decode one raw element (a sorted-delta log entry) to double.
double delta_value(PdcType type, std::span<const std::uint8_t> bytes) {
  return obj::dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    T v;
    std::memcpy(&v, bytes.data(), sizeof(T));
    return static_cast<double>(v);
  });
}

}  // namespace

void QueryServer::handle(std::span<const std::uint8_t> payload,
                         const obs::TraceContext& trace, rpc::Reply reply) {
  const auto type = peek_request_type(payload);
  if (type.ok() && *type == RequestType::kJoinEval) {
    SerialReader reader(payload);
    auto request = JoinEvalRequest::Deserialize(reader);
    if (request.ok()) {
      join_eval(*request, trace, std::move(reply));
      return;
    }
    JoinEvalResponse resp;
    resp.status = request.status();
    std::move(reply).send(resp.serialize());
    return;
  }
  std::move(reply).send(respond(payload, trace));
}

std::vector<std::uint8_t> QueryServer::respond(
    std::span<const std::uint8_t> payload, const obs::TraceContext& trace) {
  const auto type = peek_request_type(payload);
  if (!type.ok()) {
    EvalResponse resp;
    resp.status = type.status();
    return resp.serialize();
  }
  SerialReader reader(payload);
  if (*type == RequestType::kEvalQuery) {
    auto request = EvalRequest::Deserialize(reader);
    if (!request.ok()) {
      EvalResponse resp;
      resp.status = request.status();
      return resp.serialize();
    }
    return eval(*request, trace).serialize();
  }
  if (*type == RequestType::kMetrics) {
    return metrics_snapshot().serialize();
  }
  if (*type == RequestType::kTransferWrite) {
    auto request = TransferWriteRequest::Deserialize(reader);
    if (!request.ok()) {
      TransferWriteResponse resp;
      resp.status = request.status();
      return resp.serialize();
    }
    return transfer_write(*request, trace).serialize();
  }
  if (*type == RequestType::kMetaQuery) {
    auto request = MetaQueryRequest::Deserialize(reader);
    if (!request.ok()) {
      MetaQueryResponse resp;
      resp.status = request.status();
      return resp.serialize();
    }
    return meta_query(*request, trace).serialize();
  }
  if (*type == RequestType::kMetaUpdate) {
    auto request = MetaUpdateRequest::Deserialize(reader);
    if (!request.ok()) {
      MetaUpdateResponse resp;
      resp.status = request.status();
      return resp.serialize();
    }
    return meta_update(*request, trace).serialize();
  }
  auto request = GetDataRequest::Deserialize(reader);
  if (!request.ok()) {
    GetDataResponse resp;
    resp.status = request.status();
    return resp.serialize();
  }
  return get_data(*request, trace).serialize();
}

MetaQueryResponse QueryServer::meta_query(const MetaQueryRequest& request,
                                          const obs::TraceContext& trace) {
  MetaQueryResponse response;
  if (meta_query_requests_metric_ != nullptr) {
    meta_query_requests_metric_->add(1);
  }
  if (options_.meta_shard == nullptr) {
    response.status = Status::FailedPrecondition(
        "server has no metadata shard");
    return response;
  }
  obs::ScopedSpan span(trace, "server.meta_query", actor_);
  CostLedger ledger;
  response.postings.resize(request.conditions.size());

  // Numeric range conjuncts on the same attribute all route to that
  // attribute's single numeric vnode, so they arrive here together.  Fuse
  // each such group into one interval and evaluate it with a single
  // both-sided ordered-map walk: `3502 <= PLATE <= 3504` costs O(output),
  // not one half-open posting-list materialization per conjunct.  Every
  // member slot gets the fused (intersected) list — a subset of that
  // conjunct's matches, so the client's cross-condition intersection is
  // unchanged.
  struct FusedGroup {
    ValueInterval interval;
    std::vector<std::size_t> members;
  };
  std::map<std::pair<std::string, std::vector<std::uint32_t>>, FusedGroup>
      fused;
  for (std::size_t i = 0; i < request.conditions.size(); ++i) {
    const meta::MetaCondition& c = request.conditions[i];
    if (c.kind != meta::MetaMatchKind::kValue) continue;
    const auto folded = meta::meta_numeric_fold(c.value);
    if (!folded) continue;
    auto [it, inserted] = fused.try_emplace(
        std::make_pair(c.attribute, request.vnodes[i]));
    const ValueInterval one = ValueInterval::from_op(c.op, *folded);
    it->second.interval =
        inserted ? one : it->second.interval.intersect(one);
    it->second.members.push_back(i);
  }
  std::vector<bool> handled(request.conditions.size(), false);
  for (const auto& [key, group] : fused) {
    if (group.members.size() < 2) continue;
    std::vector<ObjectId> shared;
    const Status status = options_.meta_shard->query_interval(
        key.first, group.interval, key.second, shared, response.epochs,
        ledger, response.probes);
    if (!status.ok()) {
      response.status = status;
      response.postings.clear();
      response.epochs.clear();
      return response;
    }
    for (const std::size_t i : group.members) {
      response.postings[i] = shared;
      handled[i] = true;
    }
  }

  for (std::size_t i = 0; i < request.conditions.size(); ++i) {
    if (handled[i]) continue;
    const Status status = options_.meta_shard->query(
        request.conditions[i], request.vnodes[i], response.postings[i],
        response.epochs, ledger, response.probes);
    if (!status.ok()) {
      response.status = status;
      response.postings.clear();
      response.epochs.clear();
      return response;
    }
  }
  if (meta_probes_metric_ != nullptr) {
    meta_probes_metric_->add(response.probes);
  }
  response.ledger = LedgerSummary::from(ledger);
  span.arg("probes", static_cast<double>(response.probes));
  return response;
}

MetaUpdateResponse QueryServer::meta_update(const MetaUpdateRequest& request,
                                            const obs::TraceContext& trace) {
  MetaUpdateResponse response;
  if (meta_update_requests_metric_ != nullptr) {
    meta_update_requests_metric_->add(1);
  }
  if (options_.meta_shard == nullptr) {
    response.status = Status::FailedPrecondition(
        "server has no metadata shard");
    return response;
  }
  obs::ScopedSpan span(trace, "server.meta_update", actor_);
  std::vector<meta::MetaShard::UpdateOp> ops;
  ops.reserve(request.ops.size());
  for (const MetaUpdateOpWire& op : request.ops) {
    meta::MetaShard::UpdateOp out;
    out.object = op.object;
    out.attribute = op.attribute;
    if (op.has_old) out.old_value = op.old_value;
    out.new_value = op.new_value;
    ops.push_back(std::move(out));
  }
  bool applied = false;
  const auto epoch =
      options_.meta_shard->apply(request.vnode, request.seq, ops, applied);
  if (!epoch.ok()) {
    response.status = epoch.status();
    return response;
  }
  response.epoch = *epoch;
  response.duplicate = !applied;
  CostLedger ledger;
  ledger.add_cpu(static_cast<double>(request.ops.size() + 1) *
                     meta::kMetaProbeSeconds,
                 CpuStage::kMerge);
  response.ledger = LedgerSummary::from(ledger);
  return response;
}

void QueryServer::register_metrics() {
  if (options_.metrics == nullptr) return;
  eval_requests_metric_ = &options_.metrics->counter(actor_ + ".eval_requests");
  getdata_requests_metric_ =
      &options_.metrics->counter(actor_ + ".getdata_requests");
  bytes_read_metric_ = &options_.metrics->counter(actor_ + ".bytes_read");
  read_ops_metric_ = &options_.metrics->counter(actor_ + ".read_ops");
  eval_latency_metric_ =
      &options_.metrics->histogram(actor_ + ".eval_seconds");
  join_requests_metric_ = &options_.metrics->counter(actor_ + ".join_requests");
  join_duplicates_metric_ =
      &options_.metrics->counter(actor_ + ".join_duplicates");
  if (options_.meta_shard != nullptr) {
    meta_query_requests_metric_ =
        &options_.metrics->counter(actor_ + ".meta_query_requests");
    meta_update_requests_metric_ =
        &options_.metrics->counter(actor_ + ".meta_update_requests");
    meta_probes_metric_ = &options_.metrics->counter(actor_ + ".meta_probes");
  }
  if (options_.mutable_store != nullptr) {
    write_requests_metric_ =
        &options_.metrics->counter(actor_ + ".write_requests");
    write_bytes_metric_ = &options_.metrics->counter(actor_ + ".write_bytes");
    compactions_metric_ = &options_.metrics->counter(actor_ + ".compactions");
    replica_rebuilds_metric_ =
        &options_.metrics->counter(actor_ + ".replica_rebuilds");
  }
  options_.metrics->gauge_fn(actor_ + ".cache_bytes", [this] {
    return static_cast<double>(cache_.bytes());
  });
  options_.metrics->gauge_fn(actor_ + ".cache_entries", [this] {
    return static_cast<double>(cache_.entries());
  });
  options_.metrics->gauge_fn(actor_ + ".cache_hits", [this] {
    return static_cast<double>(cache_.hits());
  });
  options_.metrics->gauge_fn(actor_ + ".index_cache_bytes", [this] {
    return static_cast<double>(index_cache_.bytes());
  });
}

MetricsResponse QueryServer::metrics_snapshot() const {
  MetricsResponse response;
  if (options_.metrics == nullptr) {
    response.status =
        Status::FailedPrecondition("server has no metrics registry");
    return response;
  }
  response.snapshot = options_.metrics->snapshot();
  response.status = Status::Ok();
  return response;
}

EvalResponse QueryServer::eval(const EvalRequest& request,
                               const obs::TraceContext& trace) {
  if (eval_requests_metric_ != nullptr) eval_requests_metric_->add();
  obs::ScopedSpan eval_span(trace, "server.eval", actor_);
  EvalResponse response;
  CostLedger ledger;
  std::uint64_t regions_evaluated = 0;
  RegionChoiceCounts counts;
  // The identities whose region shares we evaluate: normally just our own;
  // in degraded mode the client adds dead servers' identities (re-planned
  // region assignment — see region_assignment.h::plan_reassignment).
  std::vector<ServerId> identities = request.act_as;
  if (identities.empty()) identities.push_back(options_.id);
  std::vector<std::uint64_t> all_positions;
  bool first_term = true;
  for (const AndTerm& term : request.terms) {
    std::vector<std::vector<std::uint64_t>> identity_positions(
        identities.size());
    std::vector<Extent1D> term_extents;
    for (std::size_t k = 0; k < identities.size(); ++k) {
      const Status s =
          eval_term(term, request, identities[k], ledger,
                    identity_positions[k], term_extents, regions_evaluated,
                    counts, eval_span.context());
      if (!s.ok()) {
        response.status = s;
        return response;
      }
    }
    std::vector<std::uint64_t> term_positions;
    if (identities.size() == 1) {
      term_positions = std::move(identity_positions.front());
    } else {
      // Per-identity sublists are each ascending and disjoint.
      const std::vector<std::span<const std::uint64_t>> runs(
          identity_positions.begin(), identity_positions.end());
      const Status s =
          pipeline_.collect(runs, term_positions, eval_span.context());
      if (!s.ok()) {
        response.status = s;
        return response;
      }
    }
    if (first_term) {
      all_positions = std::move(term_positions);
      response.sorted_extents = std::move(term_extents);
      first_term = false;
    } else {
      // OR across terms: merge + dedupe (paper: merge sort on results).
      ledger.add_cpu(store_.cluster().config().cost.scan_cost(
                         (all_positions.size() + term_positions.size()) *
                         sizeof(std::uint64_t)),
                     CpuStage::kMerge);
      const std::span<const std::uint64_t> runs[] = {all_positions,
                                                     term_positions};
      std::vector<std::uint64_t> merged;
      const Status s = pipeline_.collect(runs, merged, eval_span.context());
      if (!s.ok()) {
        response.status = s;
        return response;
      }
      all_positions = std::move(merged);
      response.sorted_extents.clear();  // extents only valid single-term
    }
  }

  // Sorted single-conjunct fast path: hits are counted from extents and
  // positions may not have been materialized.
  if (!response.sorted_extents.empty() && all_positions.empty()) {
    for (const Extent1D& e : response.sorted_extents) {
      response.num_hits += e.count;
    }
    if (!request.terms.empty()) {
      response.replica_id = request.terms.front().driver_replica;
    }
  } else {
    response.num_hits = all_positions.size();
  }
  if (request.need_locations) {
    response.has_positions = true;
    response.positions = std::move(all_positions);
  }
  response.ledger = LedgerSummary::from(ledger);
  response.regions_scanned = counts.scanned;
  response.regions_indexed = counts.indexed;
  response.regions_allhit = counts.allhit;
  response.regions_stale = counts.stale;
  // Epoch 1 is the never-written baseline; reporting it as 0 keeps
  // read-only responses in the pre-write wire format byte-for-byte.
  response.max_data_epoch =
      counts.max_data_epoch > 1 ? counts.max_data_epoch : 0;
  response.status = Status::Ok();
  if (bytes_read_metric_ != nullptr) {
    bytes_read_metric_->add(response.ledger.bytes_read);
    read_ops_metric_->add(response.ledger.read_ops);
    // Simulated per-request latency: the same modeled elapsed time the
    // client folds into OpStats, so snapshots are deterministic.
    eval_latency_metric_->observe(response.ledger.elapsed());
  }
  if (trace.enabled()) {
    // The span carries the FINAL ledger split (post merge_parallel
    // rescaling), so span-summed stage times reconcile with the response
    // summary the client folds into OpStats.
    eval_span.arg("io_s", response.ledger.io_seconds);
    eval_span.arg("cpu_s", response.ledger.cpu_seconds);
    eval_span.arg("scan_s", response.ledger.scan_seconds);
    eval_span.arg("decode_s", response.ledger.decode_seconds);
    eval_span.arg("merge_s", response.ledger.merge_seconds);
    eval_span.arg("elapsed_s", response.ledger.elapsed());
    eval_span.arg("bytes", static_cast<double>(response.ledger.bytes_read));
    eval_span.arg("ops", static_cast<double>(response.ledger.read_ops));
    eval_span.arg("regions_evaluated",
                  static_cast<double>(regions_evaluated));
    eval_span.arg("identities", static_cast<double>(identities.size()));
    eval_span.arg("num_hits", static_cast<double>(response.num_hits));
    eval_span.arg("regions_scanned", static_cast<double>(counts.scanned));
    eval_span.arg("regions_indexed", static_cast<double>(counts.indexed));
    eval_span.arg("regions_allhit", static_cast<double>(counts.allhit));
    eval_span.arg("regions_stale", static_cast<double>(counts.stale));
  }
  return response;
}

Status QueryServer::eval_term(const AndTerm& term, const EvalRequest& request,
                              ServerId identity, CostLedger& ledger,
                              std::vector<std::uint64_t>& out_positions,
                              std::vector<Extent1D>& out_extents,
                              std::uint64_t& regions_evaluated,
                              RegionChoiceCounts& counts,
                              const obs::TraceContext& trace) {
  if (term.conjuncts.empty()) {
    return Status::InvalidArgument("AND-term with no conjuncts");
  }
  // Work on identity-local lists; the internal logic relies on ascending
  // order, which only holds within one identity's region share.
  std::vector<std::uint64_t> positions;
  std::vector<Extent1D> sorted_extents;
  const Conjunct& driver = term.conjuncts.front();
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* driver_obj,
                       store_.get(driver.object));

  const bool sorted_driver =
      request.strategy == Strategy::kSortedHistogram &&
      term.driver_replica != kInvalidObjectId;

  if (sorted_driver) {
    PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* replica,
                         store_.get(term.driver_replica));
    regions_evaluated +=
        regions_of_server(*replica, identity, options_.num_servers).size();
    std::vector<Extent1D> extents;
    PDC_RETURN_IF_ERROR(pipeline_.run(
        *replica, driver.interval, /*constraint=*/{}, identity,
        pipeline_config(request.strategy, /*sorted_driver=*/true), ledger,
        positions, extents, counts, trace));

    // A non-empty delta log means the replica's data lags the source:
    // base results must be merged with the log element-wise, which needs
    // materialized positions (and makes extent fast-path hits stale).
    const bool delta_active = !driver_obj->sorted_delta.empty();
    // Extents-only results are valid ONLY for a single-term request: the
    // OR merge in eval() operates on positions and discards extents, so a
    // multi-term query must materialize the driver hits or the whole first
    // term would vanish from the union.
    const bool need_positions = request.need_locations ||
                                term.conjuncts.size() > 1 ||
                                request.terms.size() > 1 ||
                                request.region_constraint.count > 0 ||
                                delta_active;
    if (!need_positions) {
      out_extents.insert(out_extents.end(), extents.begin(), extents.end());
      return Status::Ok();
    }
    // Map replica-space extents to original positions (contiguous
    // permutation reads), then sort ascending.
    for (const Extent1D& e : extents) {
      PDC_ASSIGN_OR_RETURN(
          std::vector<std::uint64_t> original,
          sortrep::map_to_source_positions(store_, *replica, e,
                                           read_ctx(ledger, trace)));
      positions.insert(positions.end(), original.begin(), original.end());
    }
    if (delta_active) {
      // Log-structured merge: positions overwritten (or appended) since
      // the replica was built answer from the log's CURRENT value; the
      // base result's stale hits for those positions are dropped.  Log
      // entries are partitioned by source-region owner so that across
      // identities each entry is decided exactly once.
      std::erase_if(positions, [&](std::uint64_t p) {
        return driver_obj->sorted_delta.contains(p);
      });
      for (const auto& [pos, raw] : driver_obj->sorted_delta) {
        if (owner_of_region(*driver_obj,
                            region_of_position(*driver_obj, pos),
                            options_.num_servers) != identity) {
          continue;
        }
        if (driver.interval.contains(delta_value(driver_obj->type, raw))) {
          positions.push_back(pos);
        }
      }
      ledger.add_cpu(store_.cluster().config().cost.scan_cost(
                         driver_obj->sorted_delta.size() *
                         driver_obj->element_size()),
                     CpuStage::kScan);
    }
    ledger.add_cpu(store_.cluster().config().cost.scan_cost(
                       positions.size() * sizeof(std::uint64_t)),
                   CpuStage::kMerge);
    std::sort(positions.begin(), positions.end());
    if (request.region_constraint.count > 0) {
      std::erase_if(positions, [&](std::uint64_t p) {
        return !request.region_constraint.contains(p);
      });
      // The extents describe the UNCONSTRAINED sorted hit range; after the
      // position filter they no longer match the result and must not be
      // reported — eval() counts hits from extents whenever positions are
      // empty, so a server whose share was filtered out entirely would
      // otherwise report phantom hits.
    } else if (!delta_active) {
      // Delta-merged results must never advertise replica extents: the
      // extent fast path serves raw replica bytes, which lag the log.
      sorted_extents = std::move(extents);
    }
  } else {
    regions_evaluated +=
        regions_of_server(*driver_obj, identity, options_.num_servers).size();
    PDC_RETURN_IF_ERROR(pipeline_.run(
        *driver_obj, driver.interval, request.region_constraint, identity,
        pipeline_config(request.strategy, /*sorted_driver=*/false), ledger,
        positions, sorted_extents, counts, trace));
  }

  log_debug("server ", options_.id, " as ", identity, " driver done: positions=",
            positions.size(), " extents=", sorted_extents.size(),
            " io=", ledger.io_seconds(), " ops=", ledger.read_ops());
  // AND short-circuit: evaluate remaining conjuncts only at the selected
  // locations; stop early if nothing is left (paper §III-C).
  for (std::size_t c = 1; c < term.conjuncts.size() && !positions.empty();
       ++c) {
    PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* object,
                         store_.get(term.conjuncts[c].object));
    if (object->num_elements != driver_obj->num_elements) {
      return Status::InvalidArgument(
          "multi-object query requires identical dimensions");
    }
    PDC_RETURN_IF_ERROR(pipeline_.restrict(
        *object, term.conjuncts[c].interval,
        request.strategy == Strategy::kFullScan, ledger, positions, trace));
  }
  if (term.conjuncts.size() > 1) sorted_extents.clear();
  out_positions.insert(out_positions.end(), positions.begin(),
                       positions.end());
  out_extents.insert(out_extents.end(), sorted_extents.begin(),
                     sorted_extents.end());
  return Status::Ok();
}

Status QueryServer::gather_values(const obj::ObjectDescriptor& object,
                                  std::span<const std::uint64_t> positions,
                                  std::span<std::uint8_t> out,
                                  CostLedger& ledger,
                                  const obs::TraceContext& trace) {
  const CostModel& cost = store_.cluster().config().cost;
  const std::size_t elem_size = object.element_size();
  if (out.size() != positions.size() * elem_size) {
    return Status::InvalidArgument("gather output size mismatch");
  }
  std::size_t i = 0;
  while (i < positions.size()) {
    const RegionIndex r = region_of_position(object, positions[i]);
    std::size_t j = i;
    while (j < positions.size() &&
           region_of_position(object, positions[j]) == r) {
      ++j;
    }
    const std::span<const std::uint64_t> group(&positions[i], j - i);
    std::span<std::uint8_t> dest =
        out.subspan(i * elem_size, group.size() * elem_size);
    i = j;
    const obj::RegionDescriptor& region = object.regions[r];

    obs::ScopedSpan group_span(trace, "read_group", actor_);
    group_span.arg("region", static_cast<double>(r));
    group_span.arg("positions", static_cast<double>(group.size()));
    RegionCache::Buffer buffer = cache_.get({object.id, r}, region.data_epoch);
    const bool dense = static_cast<double>(group.size()) >
                       options_.dense_read_threshold *
                           static_cast<double>(region.extent.count);
    if (buffer == nullptr && dense) {
      PDC_ASSIGN_OR_RETURN(
          buffer, pipeline_.fetch_region(object, r, ledger,
                                         /*cacheable=*/true,
                                         group_span.context()));
    }
    if (buffer != nullptr) {
      group_span.arg("cached", 1.0);
      ledger.add_cpu(static_cast<double>(dest.size()) /
                         cost.memcpy_bandwidth_bps,
                     CpuStage::kMerge);
      for (std::size_t k = 0; k < group.size(); ++k) {
        const std::uint64_t local = group[k] - region.extent.offset;
        std::copy_n(buffer->data() + local * elem_size, elem_size,
                    dest.data() + k * elem_size);
      }
    } else {
      PDC_RETURN_IF_ERROR(
          store_.read_values_at(object, group, dest, options_.aggregation,
                                read_ctx(ledger, group_span.context())));
    }
  }
  return Status::Ok();
}

TransferWriteResponse QueryServer::transfer_write(
    const TransferWriteRequest& request, const obs::TraceContext& trace) {
  obs::ScopedSpan span(trace, "server.transfer_write", actor_);
  TransferWriteResponse response;
  if (options_.mutable_store == nullptr) {
    response.status =
        Status::FailedPrecondition("server deployed without a write path");
    return response;
  }
  if (write_requests_metric_ != nullptr) {
    write_requests_metric_->add();
    write_bytes_metric_->add(request.payload.size());
  }
  CostLedger ledger;
  obj::WriteOptions write_options;
  write_options.compact_threshold = options_.compact_threshold;
  write_options.pool = options_.pool;
  write_options.ledger = &ledger;
  const auto result = options_.mutable_store->apply_write(
      request.object,
      request.kind == WriteKind::kOverwrite ? obj::WriteKind::kOverwrite
                                            : obj::WriteKind::kAppend,
      request.extent, request.payload, request.write_seq, write_options);
  if (!result.ok()) {
    response.status = result.status();
    return response;
  }
  response.data_epoch = result->data_epoch;
  response.regions_touched = result->regions_touched;
  response.duplicate = result->duplicate;
  response.compacted = result->compacted;
  if (result->compacted && compactions_metric_ != nullptr) {
    compactions_metric_->add();
  }
  // Delta log past its threshold: merge it into the sorted replica.
  // A fold can legitimately fail (writes introduced NaN) — the delta log
  // is kept and merged reads continue, so the write still succeeds.
  std::uint64_t fold_entries = 0;
  if (!result->duplicate && result->replica_id != kInvalidObjectId &&
      options_.replica_rebuild_threshold > 0 &&
      result->sorted_delta_entries >= options_.replica_rebuild_threshold) {
    const Status rebuilt = sortrep::rebuild_sorted_replica(
        *options_.mutable_store, request.object, options_.pool);
    if (rebuilt.ok()) {
      fold_entries = result->sorted_delta_entries;
      if (replica_rebuilds_metric_ != nullptr) replica_rebuilds_metric_->add();
    }
    span.arg("replica_rebuilt", rebuilt.ok() ? 1.0 : 0.0);
  }
  response.ledger = LedgerSummary::from(ledger);
  response.status = Status::Ok();
  if (trace.enabled()) {
    span.arg("object", static_cast<double>(request.object));
    span.arg("bytes", static_cast<double>(request.payload.size()));
    span.arg("epoch", static_cast<double>(response.data_epoch));
    span.arg("regions_touched",
             static_cast<double>(response.regions_touched));
    span.arg("duplicate", response.duplicate ? 1.0 : 0.0);
    span.arg("compacted", response.compacted ? 1.0 : 0.0);
    span.arg("regions_reindexed",
             static_cast<double>(result->regions_reindexed));
    span.arg("fold_entries", static_cast<double>(fold_entries));
  }
  return response;
}

GetDataResponse QueryServer::get_data(const GetDataRequest& request,
                                      const obs::TraceContext& trace) {
  if (getdata_requests_metric_ != nullptr) getdata_requests_metric_->add();
  obs::ScopedSpan span(trace, "server.get_data", actor_);
  GetDataResponse response;
  CostLedger ledger;
  const auto object = store_.get(request.object);
  if (!object.ok()) {
    response.status = object.status();
    return response;
  }
  const std::size_t elem_size = (*object)->element_size();

  if (request.from_replica) {
    // Sorted-selection fast path: contiguous replica-space extents, served
    // zero-copy.  Cached region chunks are emitted as borrowed spans into
    // the response (the cache buffer is pinned alongside); cold chunks are
    // read into pinned staging buffers.  Either way the bulk bytes are
    // copied exactly once — at wire assembly in serialize().  The modeled
    // memcpy charge stays where the legacy copy was, so simulated time is
    // unchanged.
    const CostModel& cost = store_.cluster().config().cost;
    for (const Extent1D& e : request.extents) {
      std::uint64_t pos = e.offset;
      while (pos < e.end()) {
        const RegionIndex r = region_of_position(**object, pos);
        const obj::RegionDescriptor& region = (*object)->regions[r];
        const std::uint64_t take = std::min(e.end(), region.extent.end()) - pos;
        const std::size_t nbytes = static_cast<std::size_t>(take * elem_size);
        if (RegionCache::Buffer buffer =
                cache_.get({(*object)->id, r}, region.data_epoch)) {
          response.value_parts.emplace_back(
              buffer->data() + (pos - region.extent.offset) * elem_size,
              nbytes);
          response.pins.push_back(std::move(buffer));
          ledger.add_cpu(static_cast<double>(nbytes) /
                             cost.memcpy_bandwidth_bps,
                         CpuStage::kMerge);
        } else {
          auto staging = std::make_shared<std::vector<std::uint8_t>>(nbytes);
          const Status s =
              store_.read_elements(**object, {pos, take}, *staging,
                                   read_ctx(ledger, span.context()));
          if (!s.ok()) {
            response.status = s;
            return response;
          }
          response.value_parts.emplace_back(staging->data(), nbytes);
          response.pins.push_back(std::move(staging));
        }
        pos += take;
      }
    }
  } else {
    response.values.resize(request.positions.size() * elem_size);
    const Status s = gather_values(**object, request.positions,
                                   response.values, ledger, span.context());
    if (!s.ok()) {
      response.status = s;
      return response;
    }
  }
  response.ledger = LedgerSummary::from(ledger);
  response.status = Status::Ok();
  if (bytes_read_metric_ != nullptr) {
    bytes_read_metric_->add(response.ledger.bytes_read);
    read_ops_metric_->add(response.ledger.read_ops);
  }
  if (trace.enabled()) {
    span.arg("io_s", response.ledger.io_seconds);
    span.arg("cpu_s", response.ledger.cpu_seconds);
    span.arg("merge_s", response.ledger.merge_seconds);
    span.arg("elapsed_s", response.ledger.elapsed());
    span.arg("bytes", static_cast<double>(response.ledger.bytes_read));
    span.arg("ops", static_cast<double>(response.ledger.read_ops));
    span.arg("values_bytes", static_cast<double>(response.values_size()));
  }
  return response;
}

}  // namespace pdc::server
