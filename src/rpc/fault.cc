#include "rpc/fault.h"

#include <algorithm>

namespace pdc::rpc {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

SendDecision FaultInjector::on_send(Direction direction,
                                    ServerId /*server*/,
                                    std::span<const std::uint8_t> /*payload*/) {
  SendDecision decision;
  if (plan_.only_direction.has_value() && *plan_.only_direction != direction) {
    return decision;
  }
  std::lock_guard lock(mu_);
  if (plan_.drop_rate > 0.0 && rng_.next_double() < plan_.drop_rate) {
    decision.drop = true;
    ++counters_.dropped;
    return decision;  // a dropped message can suffer no further fault
  }
  if (plan_.corrupt_rate > 0.0 && rng_.next_double() < plan_.corrupt_rate) {
    decision.corrupt = true;
    ++counters_.corrupted;
  }
  if (plan_.duplicate_rate > 0.0 &&
      rng_.next_double() < plan_.duplicate_rate) {
    decision.duplicate = true;
    ++counters_.duplicated;
  }
  if (plan_.delay_rate > 0.0 && rng_.next_double() < plan_.delay_rate) {
    const auto lo = plan_.min_delay.count();
    const auto hi = std::max(lo, plan_.max_delay.count());
    decision.delay = std::chrono::milliseconds(
        lo + static_cast<long>(rng_.bounded(
                 static_cast<std::uint64_t>(hi - lo + 1))));
    ++counters_.delayed;
  }
  return decision;
}

void FaultInjector::corrupt(std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return;
  std::lock_guard lock(mu_);
  payload[rng_.bounded(payload.size())] ^= 0xA5;
}

ServerFate FaultInjector::on_server_request(ServerId server) {
  std::lock_guard lock(mu_);
  if (handled_.size() <= server) {
    handled_.resize(server + 1, 0);
    failed_.resize(server + 1, false);
  }
  const std::uint64_t handled = handled_[server]++;
  if (failed_[server]) return ServerFate::kKilled;
  for (const FaultPlan::ServerFault& fault : plan_.server_faults) {
    if (fault.server == server && handled >= fault.after_requests) {
      failed_[server] = true;
      ++counters_.servers_failed;
      return fault.fate;
    }
  }
  return ServerFate::kAlive;
}

FaultCounters FaultInjector::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

}  // namespace pdc::rpc
