// QueryService::join — client orchestration of the cross-object zone join.
//
// One epoch: broadcast a kJoinEval to every alive server (each acting for
// its own identity plus any dead identities re-planned onto it), let the
// servers shuffle candidates over the exchange lane and join their owned
// zones, then merge the per-zone pair lists in ascending zone order.  Any
// kUnavailable — a server died, a shuffle stream never completed — fails
// the WHOLE epoch: its partial results are discarded and the join re-runs
// under a fresh epoch number with the surviving participants, so the
// result is always exactly the fault-free answer of the final epoch's
// topology, never a mix.
//
// Simulated time follows the MPC communication model: request broadcast +
// max-over-servers evaluation + shuffle_rounds * net_latency + the
// busiest sender's shuffle bytes / net_bandwidth + response streaming +
// client merge.
#include <algorithm>
#include <map>
#include <utility>

#include "common/log.h"
#include "query/dispatch.h"
#include "server/region_assignment.h"
#include "server/zone_join.h"

namespace pdc::query {

Result<JoinResult> QueryService::join(const JoinSpec& spec,
                                      const QueryOptions& opts) {
  OpScope op(*this, opts, "client.join");

  // Plan-time validation: parameter admissibility (NaN epsilon / zone
  // height rejected here) and object existence.
  PDC_RETURN_IF_ERROR(
      server::validate_join_params(spec.epsilon, spec.zone_height));
  PDC_RETURN_IF_ERROR(store_.get(spec.left).status());
  PDC_RETURN_IF_ERROR(store_.get(spec.right).status());

  server::JoinEvalRequest request;
  request.join_id = next_join_id_.fetch_add(1);
  request.strategy = spec.strategy.value_or(options_.join_strategy);
  request.eval_strategy = options_.strategy;
  request.object_a = spec.left;
  request.object_b = spec.right;
  request.epsilon = spec.epsilon;
  request.zone_height = spec.zone_height;
  request.filter_a = spec.left_filter;
  request.filter_b = spec.right_filter;

  // Epoch loop: each failed round can kill at least one more server, so
  // num_servers + 2 rounds always suffice (the +2 absorbs a shuffle
  // deadline expiry that killed nobody).
  const std::uint32_t max_epochs = options_.num_servers + 2;
  for (std::uint32_t epoch = 1; epoch <= max_epochs; ++epoch) {
    // Participants and the dead identities they act for come from one
    // snapshot, so every identity's candidates are produced exactly once.
    const std::vector<bool> dead = dead_snapshot();
    const std::vector<ServerId> alive = servers_where(dead, false);
    if (alive.empty()) {
      return Status::Unavailable("all PDC servers are dead");
    }
    request.epoch = epoch;
    request.participants = alive;  // ascending by construction
    const auto extra =
        server::plan_reassignment(servers_where(dead, true), alive);
    Requests requests;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      request.act_as.assign(1, alive[i]);
      request.act_as.insert(request.act_as.end(), extra[i].begin(),
                            extra[i].end());
      requests.emplace_back(alive[i], request.serialize());
    }

    // A join epoch is all-or-nothing: any missing or kUnavailable response
    // poisons it (some server's zone share is absent), so every partial
    // result is discarded and a fresh epoch re-runs on the survivors.
    bool epoch_failed = false;
    std::uint64_t max_sender_bytes = 0;
    std::uint64_t rounds = 0;
    std::uint64_t candidates_a = 0;
    std::uint64_t candidates_b = 0;
    std::map<std::int64_t, std::vector<server::JoinPairWire>> merged;
    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::JoinEvalResponse>(
            op.trace(), requests,
            [&](std::size_t, server::JoinEvalResponse& response) -> Status {
              op.stats.shuffle_bytes += response.shuffle_bytes_sent;
              op.stats.shuffle_msgs += response.shuffle_msgs_sent;
              op.stats.shuffle_retransmits += response.shuffle_retransmits;
              if (response.status.code() == StatusCode::kUnavailable) {
                // Shuffle deadline expired on this server (a peer died or
                // frames kept vanishing) — retriable under a fresh epoch.
                epoch_failed = true;
                return Status::Ok();
              }
              // Any other failure is deterministic; retrying is futile.
              PDC_RETURN_IF_ERROR(response.status);
              candidates_a += response.candidates_a;
              candidates_b += response.candidates_b;
              max_sender_bytes =
                  std::max(max_sender_bytes, response.shuffle_bytes_sent);
              rounds = std::max(rounds, response.shuffle_rounds);
              for (server::ZonePairs& zp : response.zones) {
                if (!merged.emplace(zp.zone, std::move(zp.pairs)).second) {
                  return Status::Internal("zone " + std::to_string(zp.zone) +
                                          " reported by two servers");
                }
              }
              return Status::Ok();
            }));
    if (epoch_failed || !lost.empty()) {
      log_warn("join epoch ", epoch, " failed; re-running on ",
               servers_where(dead_snapshot(), false).size(), " survivors");
      metrics_.counter("client.join_epoch_reruns").add();
      continue;
    }

    // MPC communication term: rounds are latency-bound, volume is bound by
    // the busiest sender (links are full-duplex and parallel).
    op.stats.shuffle_rounds = rounds;
    op.stats.join_candidates_left = candidates_a;
    op.stats.join_candidates_right = candidates_b;
    op.stats.net_seconds +=
        static_cast<double>(rounds) * op.cost.net_latency_s +
        static_cast<double>(max_sender_bytes) / op.cost.net_bandwidth_bps;
    op.charge_responses();

    // Client merge: per-zone lists are pre-sorted; concatenation in
    // ascending zone order is the deterministic global result.
    JoinResult result;
    result.num_zones = merged.size();
    std::uint64_t total_pairs = 0;
    for (const auto& [zone, pairs] : merged) total_pairs += pairs.size();
    result.pairs.reserve(total_pairs);
    for (auto& [zone, pairs] : merged) {
      for (const server::JoinPairWire& p : pairs) {
        result.pairs.push_back({p.left_pos, p.right_pos});
      }
    }
    op.stats.client_cpu_seconds +=
        static_cast<double>(total_pairs * sizeof(server::JoinPairWire)) /
        op.cost.memcpy_bandwidth_bps;
    op.arg("pairs", static_cast<double>(result.pairs.size()));
    op.arg("zones", static_cast<double>(result.num_zones));
    op.arg("epoch", static_cast<double>(epoch));
    op.arg("shuffle_bytes", static_cast<double>(op.stats.shuffle_bytes));
    op.arg("strategy", static_cast<double>(static_cast<int>(request.strategy)));
    return result;
  }
  return Status::Unavailable("join failed after " +
                             std::to_string(max_epochs) + " epochs");
}

}  // namespace pdc::query
