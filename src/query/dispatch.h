// One client operation's scope and its dispatch rounds (private to
// src/query; not part of the public service.h API).
//
// The paper's client does the same thing for every operation: it scatters
// requests to the servers and a background aggregator gathers the answers
// (§III-C).  Every QueryService operation — eval, get_data, transfer_write,
// join, meta_query and metadata updates — therefore runs as a sequence of
// rounds inside one OpScope, and only its own policy stays with the op:
// what to send where, how to absorb one reply, and how to re-plan the work
// of a server that never answered.
//
// The scope owns the wall timer, the tracer, the root span and the OpStats.
// On every exit path — success, typed error or early return — its
// destructor stamps sim_elapsed_seconds and the wall/pool/dead-server
// fields, closes the root span, and publishes the stats and (when traced)
// the trace.
//
// A round is written once:
//   - request accounting: bytes, plus the round's LARGEST request net cost
//     (requests travel in parallel over the interconnect);
//   - client_.gather with the op's tenant;
//   - failure mapping: bus shutdown is kUnavailable; a shed reply is
//     kOverloaded — the server is overloaded, not dead, and re-planning its
//     work onto the survivors would be exactly the wrong move; any other
//     missing reply marks its server dead and hands the request index back
//     to the op for re-planning;
//   - the critical ledger: degraded rounds run one after another, so the
//     modeled server time is the SUM over rounds of each round's slowest
//     responder (one global max would credit redispatched work as free).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "common/timer.h"
#include "query/service.h"

namespace pdc::query {

/// One request per target, in dispatch order.
using Requests = std::vector<std::pair<ServerId, std::vector<std::uint8_t>>>;

class QueryService::OpScope {
 public:
  OpScope(QueryService& service, const QueryOptions& opts,
          std::string_view root_span);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Parent context for the op's child spans (disabled when untraced).
  [[nodiscard]] const obs::TraceContext& trace() const noexcept {
    return root_.context();
  }
  /// Annotate the root span (no-op when untraced).
  void arg(std::string_view key, double value) { root_.arg(key, value); }

  /// Scatter `requests`, gather the replies, and absorb each answered one
  /// in request order: absorb(i, response) sees the deserialized reply to
  /// requests[i] and returns an error to fail the op.  A reply whose own
  /// status is not OK after absorb (the op accepted it as a retriable
  /// failure) did no counted work.  Returns the indices of the requests
  /// whose servers died this round.  `trace` is the context the gather
  /// runs under.
  template <typename Response, typename Absorb>
  Result<std::vector<std::size_t>> round(const obs::TraceContext& trace,
                                         const Requests& requests,
                                         Absorb&& absorb);

  /// Charge the replies gathered since the last call as one stream back to
  /// the client NIC: one latency plus their bytes over the bandwidth.
  void charge_responses();

  /// The op's running totals; stamped and published on scope exit.
  OpStats stats;
  const CostModel& cost;

 private:
  /// Charge the requests, gather, fold the transport counters.
  Result<rpc::GatherResult> send(const obs::TraceContext& trace,
                                 const Requests& requests);

  QueryService& service_;
  std::uint32_t tenant_;
  WallTimer wall_;
  obs::Tracer tracer_;
  obs::ScopedSpan root_;
  /// Allocated up front when traced, so the destructor only fills it.
  std::shared_ptr<obs::Trace> trace_;
  /// stats.response_bytes already charged by charge_responses().
  std::uint64_t charged_response_bytes_ = 0;
};

template <typename Response, typename Absorb>
Result<std::vector<std::size_t>> QueryService::OpScope::round(
    const obs::TraceContext& trace, const Requests& requests,
    Absorb&& absorb) {
  PDC_ASSIGN_OR_RETURN(rpc::GatherResult gathered, send(trace, requests));
  std::vector<std::size_t> lost;
  std::optional<server::LedgerSummary> critical;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::optional<rpc::Message>& reply = gathered.responses[i];
    if (!reply.has_value()) {
      if (gathered.shed[i]) {
        return Status::Overloaded("server " +
                                  std::to_string(requests[i].first) +
                                  " shed the request; retry later");
      }
      service_.mark_dead(requests[i].first);
      lost.push_back(i);
      continue;
    }
    stats.response_bytes += reply->payload.size();
    SerialReader reader(reply->payload);
    PDC_ASSIGN_OR_RETURN(Response response, Response::Deserialize(reader));
    PDC_RETURN_IF_ERROR(absorb(i, response));
    if (!response.status.ok()) continue;
    stats.server_bytes_read += response.ledger.bytes_read;
    stats.server_read_ops += response.ledger.read_ops;
    if (!critical || response.ledger.elapsed() > critical->elapsed()) {
      critical = response.ledger;
    }
  }
  if (critical) {
    stats.max_server_seconds += critical->elapsed();
    stats.max_server_io_seconds += critical->io_seconds;
    stats.max_server_cpu_seconds += critical->cpu_seconds;
    stats.max_server_scan_seconds += critical->scan_seconds;
    stats.max_server_decode_seconds += critical->decode_seconds;
    stats.max_server_merge_seconds += critical->merge_seconds;
  }
  return lost;
}

}  // namespace pdc::query
