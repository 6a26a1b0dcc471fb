// Distributed metadata service — the client side (ROADMAP item 2).
//
// The authoritative MetaStore stays where it always was; what moves to the
// servers is the INDEX.  Each QueryServer hosts a MetaShard: the affix-trie
// postings of every vnode whose rendezvous replica set contains it
// (meta_shard.h).  meta_query() routes each conjunct to the vnodes that
// can own it — exact string lookups to one prefix bucket, numeric
// equality/ranges to the attribute's numeric vnode, affix walks to the
// first/last-byte bucket — so the fan-out touches the owning servers only,
// never a broadcast.  Replica selection is load-aware: among the alive
// replicas of a vnode, the one with the least accumulated simulated shard
// time answers.  Posting lists come back per condition, are unioned across
// vnodes and intersected across conditions client-side, and the final
// ascending ObjectId list is byte-identical to MetaStore::query on the
// authoritative copy (pinned by the MetaCheck differential battery).
//
// Updates (meta_set_attribute and the write-path hook) go to EVERY alive
// replica of each affected vnode under a client-assigned per-vnode
// sequence number: a retried or rerouted kMetaUpdate applies exactly once
// per replica (MetaShard::apply's high-water dedup), and every
// application bumps the vnode epoch that queries report back.
//
// Degraded mode mirrors the data path: a replica that exhausts its
// retries is marked dead and its (condition, vnode) work re-routes to the
// surviving replicas; only a vnode with NO replica left surfaces
// kUnavailable — a truncated posting list is never an answer.
#include <algorithm>
#include <limits>
#include <utility>

#include "common/log.h"
#include "query/dispatch.h"

namespace pdc::query {

void QueryService::build_meta_shards() {
  if (options_.metadata == nullptr) return;
  meta_ring_.vnodes = std::max<std::uint32_t>(1, options_.meta_vnodes);
  meta_ring_.num_servers = options_.num_servers;
  meta_ring_.replicas =
      std::min(std::max<std::uint32_t>(1, options_.meta_replicas),
               options_.num_servers);
  // Reflect the effective geometry back into options() for observability.
  options_.meta_vnodes = meta_ring_.vnodes;
  options_.meta_replicas = meta_ring_.replicas;
  meta_shards_.reserve(options_.num_servers);
  for (ServerId s = 0; s < options_.num_servers; ++s) {
    meta_shards_.push_back(std::make_unique<meta::MetaShard>(meta_ring_, s));
  }
  // Each server walks the authoritative store once and keeps only the
  // postings of the vnodes it replicates; servers build in parallel.
  exec::parallel_for(pool_.get(), options_.num_servers, [&](std::size_t s) {
    meta::MetaShard& shard = *meta_shards_[s];
    options_.metadata->for_each(
        [&](ObjectId id, const std::map<std::string, meta::MetaValue>& attrs) {
          for (const auto& [name, value] : attrs) {
            shard.index_attribute(id, name, value);
          }
        });
  });
  meta_load_.assign(options_.num_servers, 0.0);
}

Result<std::vector<ObjectId>> QueryService::meta_query(
    std::span<const meta::MetaCondition> conditions, const QueryOptions& opts) {
  OpScope op(*this, opts, "client.meta_query");
  if (meta_shards_.empty()) {
    return Status::FailedPrecondition(
        "no metadata service in this deployment; set "
        "ServiceOptions::metadata");
  }
  std::vector<ObjectId> result;
  if (conditions.empty()) {
    return result;  // mirrors MetaStore::query on an empty conjunction
  }

  // Route every conjunct to the vnodes that can own it.  An empty route
  // means the condition provably matches nothing — the whole conjunction
  // is empty without a single RPC.
  const std::size_t num_conditions = conditions.size();
  std::vector<std::vector<std::uint32_t>> routes(num_conditions);
  for (std::size_t i = 0; i < num_conditions; ++i) {
    routes[i] = meta::vnodes_of_condition(conditions[i], meta_ring_);
    if (routes[i].empty()) return result;
  }

  struct Pending {
    std::size_t cond;
    std::uint32_t vnode;
  };
  std::vector<Pending> pending;
  for (std::size_t i = 0; i < num_conditions; ++i) {
    for (const std::uint32_t v : routes[i]) pending.push_back({i, v});
  }
  std::vector<std::vector<ObjectId>> postings(num_conditions);

  while (!pending.empty()) {
    // Load-aware replica selection: the alive replica with the least
    // accumulated shard time answers; ties break toward the lowest id so
    // the choice is deterministic.
    const std::vector<bool> dead = dead_snapshot();
    std::vector<double> load;
    {
      std::lock_guard lock(state_mu_);
      load = meta_load_;
    }
    std::map<ServerId, std::vector<Pending>> assignment;
    for (const Pending& p : pending) {
      const std::vector<ServerId> replicas =
          meta::replicas_of(p.vnode, meta_ring_);
      ServerId best = 0;
      double best_load = std::numeric_limits<double>::infinity();
      bool found = false;
      for (const ServerId r : replicas) {
        if (dead[r]) continue;
        if (!found || load[r] < best_load) {
          best = r;
          best_load = load[r];
          found = true;
        }
      }
      if (!found) {
        return Status::Unavailable("metadata vnode " +
                                   std::to_string(p.vnode) +
                                   " lost all replicas");
      }
      assignment[best].push_back(p);
    }

    // One kMetaQuery per chosen server, carrying only the conditions (and
    // vnodes) assigned to it; remember the global condition index of every
    // request slot for the merge.
    Requests requests;
    std::vector<std::vector<std::size_t>> slot_cond;
    std::vector<std::vector<Pending>> request_pending;
    for (auto& [target, assigned] : assignment) {
      std::map<std::size_t, std::vector<std::uint32_t>> by_condition;
      for (const Pending& p : assigned) by_condition[p.cond].push_back(p.vnode);
      server::MetaQueryRequest request;
      std::vector<std::size_t> mapping;
      for (auto& [cond, vnodes] : by_condition) {
        request.conditions.push_back(conditions[cond]);
        request.vnodes.push_back(std::move(vnodes));
        mapping.push_back(cond);
      }
      requests.emplace_back(target, request.serialize());
      slot_cond.push_back(std::move(mapping));
      request_pending.push_back(std::move(assigned));
    }

    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::MetaQueryResponse>(
            op.trace(), requests,
            [&](std::size_t i, server::MetaQueryResponse& response) -> Status {
              PDC_RETURN_IF_ERROR(response.status);
              if (response.postings.size() != slot_cond[i].size()) {
                return Status::Corruption(
                    "meta query response misaligned with its request");
              }
              for (std::size_t j = 0; j < slot_cond[i].size(); ++j) {
                std::vector<ObjectId>& sink = postings[slot_cond[i][j]];
                sink.insert(sink.end(), response.postings[j].begin(),
                            response.postings[j].end());
              }
              op.stats.meta_probes += response.probes;
              op.stats.meta_vnodes_queried += response.epochs.size();
              for (const auto& [vnode, epoch] : response.epochs) {
                (void)vnode;
                op.stats.meta_max_epoch =
                    std::max(op.stats.meta_max_epoch, epoch);
              }
              std::lock_guard lock(state_mu_);
              meta_load_[requests[i].first] += response.ledger.elapsed();
              return Status::Ok();
            }));
    // A dead replica's (condition, vnode) work re-routes to the surviving
    // replicas next round.
    std::vector<Pending> requeued;
    for (const std::size_t i : lost) {
      requeued.insert(requeued.end(), request_pending[i].begin(),
                      request_pending[i].end());
    }
    if (!requeued.empty()) {
      log_warn("meta query degraded: ", requeued.size(),
               " vnode consultations re-routed to surviving replicas");
    }
    pending = std::move(requeued);
  }

  op.charge_responses();

  // Client-side merge: union each condition's per-vnode lists, then
  // intersect across conditions smallest-first.
  obs::ScopedSpan merge_span(op.trace(), "client.meta_merge", "client");
  std::uint64_t merged_elements = 0;
  for (std::vector<ObjectId>& list : postings) {
    merged_elements += list.size();
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::sort(postings.begin(), postings.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  result = std::move(postings.front());
  std::vector<ObjectId> scratch;
  for (std::size_t i = 1; i < postings.size() && !result.empty(); ++i) {
    scratch.clear();
    std::set_intersection(result.begin(), result.end(), postings[i].begin(),
                          postings[i].end(), std::back_inserter(scratch));
    result.swap(scratch);
  }
  op.stats.client_cpu_seconds +=
      2.0 * op.cost.scan_cost(merged_elements * sizeof(ObjectId));
  merge_span.arg("postings", static_cast<double>(merged_elements));
  merge_span.close();
  op.arg("num_hits", static_cast<double>(result.size()));
  return result;
}

Status QueryService::meta_apply_update(OpScope& op, ObjectId object,
                                       std::string_view attribute,
                                       meta::MetaValue value) {
  if (meta_shards_.empty()) {
    return Status::FailedPrecondition(
        "no metadata service in this deployment; set "
        "ServiceOptions::metadata");
  }
  const std::optional<meta::MetaValue> old_value =
      options_.metadata->get_attribute(object, attribute);
  // Affected vnodes: wherever the new value will be indexed, plus wherever
  // the old value must be removed from.
  std::vector<std::uint32_t> vnodes =
      meta::vnodes_of_value(attribute, value, meta_ring_);
  if (old_value.has_value()) {
    const std::vector<std::uint32_t> stale =
        meta::vnodes_of_value(attribute, *old_value, meta_ring_);
    vnodes.insert(vnodes.end(), stale.begin(), stale.end());
    std::sort(vnodes.begin(), vnodes.end());
    vnodes.erase(std::unique(vnodes.begin(), vnodes.end()), vnodes.end());
  }

  server::MetaUpdateOpWire update;
  update.object = object;
  update.attribute = std::string(attribute);
  update.has_old = old_value.has_value();
  if (old_value.has_value()) update.old_value = *old_value;
  update.new_value = value;

  for (const std::uint32_t vnode : vnodes) {
    // Client-assigned per-vnode sequence: every replica sees the same seq,
    // so a retried or bus-duplicated request applies exactly once each.
    std::uint64_t seq = 0;
    {
      std::lock_guard lock(state_mu_);
      seq = ++meta_seq_[vnode];
    }
    server::MetaUpdateRequest request;
    request.vnode = vnode;
    request.seq = seq;
    request.ops.push_back(update);
    const std::vector<std::uint8_t> bytes = request.serialize();

    const std::vector<bool> dead = dead_snapshot();
    Requests requests;
    for (const ServerId r : meta::replicas_of(vnode, meta_ring_)) {
      if (!dead[r]) requests.emplace_back(r, bytes);
    }
    if (requests.empty()) {
      return Status::Unavailable("metadata vnode " + std::to_string(vnode) +
                                 " lost all replicas");
    }
    // Updates travel untraced.  A replica that dies here stays dead for the
    // service lifetime, so its shard never serves again — missing this
    // update is harmless as long as one replica acknowledged it.
    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::MetaUpdateResponse>(
            obs::TraceContext{}, requests,
            [&](std::size_t, server::MetaUpdateResponse& response) -> Status {
              PDC_RETURN_IF_ERROR(response.status);
              op.stats.meta_max_epoch =
                  std::max(op.stats.meta_max_epoch, response.epoch);
              op.stats.meta_vnodes_queried += 1;
              return Status::Ok();
            }));
    if (lost.size() == requests.size()) {
      return Status::Unavailable("metadata vnode " + std::to_string(vnode) +
                                 " lost all replicas");
    }
    op.stats.net_seconds += op.cost.net_latency_s;
  }

  // The authoritative copy is written LAST — only after every affected
  // vnode's surviving replicas acknowledged — so the oracle never claims
  // an update the shards could still lose.
  options_.metadata->set_attribute(object, attribute, std::move(value));
  return Status::Ok();
}

Status QueryService::meta_set_attribute(ObjectId object,
                                        std::string_view attribute,
                                        meta::MetaValue value,
                                        const QueryOptions& opts) {
  // Metadata updates are not traced (see meta_apply_update).
  OpScope op(*this, QueryOptions{.trace = false, .tenant = opts.tenant},
             "client.meta_update");
  return meta_apply_update(op, object, attribute, std::move(value));
}

}  // namespace pdc::query
