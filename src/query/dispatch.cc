#include "query/dispatch.h"

#include <algorithm>

namespace pdc::query {

QueryService::OpScope::OpScope(QueryService& service,
                               const QueryOptions& opts,
                               std::string_view root_span)
    : cost(service.store_.cluster().config().cost),
      service_(service),
      tenant_(opts.tenant),
      tracer_(opts.trace ? obs::next_id() : 0),
      root_(opts.trace ? obs::TraceContext{&tracer_, tracer_.trace_id(), 0}
                       : obs::TraceContext{},
            root_span, "client"),
      trace_(opts.trace ? std::make_shared<obs::Trace>() : nullptr) {}

QueryService::OpScope::~OpScope() {
  stats.sim_elapsed_seconds = stats.net_seconds + stats.max_server_seconds +
                              stats.client_cpu_seconds;
  stats.wall_seconds = wall_.elapsed_seconds();
  if (service_.pool_ != nullptr) {
    stats.pool_threads = service_.pool_->size();
    stats.pool_queue_peak = service_.pool_->stats().queue_peak;
  }
  root_.arg("sim_elapsed_s", stats.sim_elapsed_seconds);
  root_.close();
  if (trace_ != nullptr) *trace_ = tracer_.take();
  // Publish a finished snapshot: concurrent operations never scribble over
  // each other's counters, and a published trace is never mutated.
  std::lock_guard lock(service_.state_mu_);
  stats.dead_servers = static_cast<std::uint64_t>(
      std::count(service_.dead_.begin(), service_.dead_.end(), true));
  service_.stats_ = stats;
  if (trace_ != nullptr) service_.last_trace_ = std::move(trace_);
}

void QueryService::OpScope::charge_responses() {
  stats.net_seconds +=
      cost.net_latency_s +
      static_cast<double>(stats.response_bytes - charged_response_bytes_) /
          cost.net_bandwidth_bps;
  charged_response_bytes_ = stats.response_bytes;
}

Result<rpc::GatherResult> QueryService::OpScope::send(
    const obs::TraceContext& trace, const Requests& requests) {
  double max_request_net = 0.0;
  for (const auto& [target, payload] : requests) {
    stats.request_bytes += payload.size();
    max_request_net = std::max(max_request_net, cost.net_cost(payload.size()));
  }
  stats.net_seconds += max_request_net;
  rpc::GatherResult gathered =
      service_.client_.gather(requests, trace, tenant_);
  stats.retries += gathered.stats.retries;
  stats.timeouts += gathered.stats.timeouts;
  stats.sheds += gathered.stats.sheds;
  if (gathered.bus_closed) {
    return Status::Unavailable("message bus shut down mid-operation");
  }
  return gathered;
}

}  // namespace pdc::query
