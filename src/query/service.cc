#include "query/service.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/log.h"
#include "common/merge_runs.h"
#include "query/dispatch.h"
#include "server/region_assignment.h"

namespace pdc::query {

ServiceOptions ServiceOptions::from_env() {
  ServiceOptions options;
  if (const char* env = std::getenv("PDC_QUERY_STRATEGY")) {
    const std::string value(env);
    if (value == "fullscan") {
      options.strategy = server::Strategy::kFullScan;
    } else if (value == "histogram") {
      options.strategy = server::Strategy::kHistogram;
    } else if (value == "index") {
      options.strategy = server::Strategy::kHistogramIndex;
    } else if (value == "sorted") {
      options.strategy = server::Strategy::kSortedHistogram;
    } else if (value == "adaptive") {
      options.strategy = server::Strategy::kAdaptive;
    }
  }
  if (const char* env = std::getenv("PDC_QUERY_THREADS")) {
    const long threads = std::strtol(env, nullptr, 10);
    if (threads >= 0 && threads <= 64) {
      options.eval_threads = static_cast<std::uint32_t>(threads);
    }
  }
  if (const char* env = std::getenv("PDC_QUERY_DENSE_THRESHOLD")) {
    char* end = nullptr;
    const double threshold = std::strtod(env, &end);
    if (end != env && threshold >= 0.0 && threshold <= 1.0) {
      options.dense_read_threshold = threshold;
    }
  }
  if (const char* env = std::getenv("PDC_QUEUE_LIMIT")) {
    const long limit = std::strtol(env, nullptr, 10);
    if (limit >= 0 && limit <= 1 << 20) {
      options.queue_limit = static_cast<std::uint32_t>(limit);
    }
  }
  if (const char* env = std::getenv("PDC_SHED_POLICY")) {
    if (const auto policy = rpc::parse_shed_policy(env)) {
      options.shed_policy = *policy;
    }
  }
  if (const char* env = std::getenv("PDC_TENANT_WEIGHTS")) {
    // Comma-separated shares, e.g. "3,1,1"; a parse failure keeps the
    // weights accumulated so far (trailing garbage is ignored).
    std::vector<double> weights;
    const char* cursor = env;
    while (*cursor != '\0') {
      char* end = nullptr;
      const double w = std::strtod(cursor, &end);
      if (end == cursor) break;
      weights.push_back(w);
      cursor = *end == ',' ? end + 1 : end;
      if (end == cursor) break;
    }
    options.tenant_weights = std::move(weights);
  }
  if (const char* env = std::getenv("PDC_COMPACT_THRESHOLD")) {
    const long threshold = std::strtol(env, nullptr, 10);
    if (threshold >= 0 && threshold <= 1 << 20) {
      options.compact_threshold = static_cast<std::uint64_t>(threshold);
    }
  }
  if (const char* env = std::getenv("PDC_REPLICA_REBUILD_THRESHOLD")) {
    const long threshold = std::strtol(env, nullptr, 10);
    if (threshold >= 0 && threshold <= 1 << 24) {
      options.replica_rebuild_threshold =
          static_cast<std::uint64_t>(threshold);
    }
  }
  if (const char* env = std::getenv("PDC_JOIN_STRATEGY")) {
    const std::string value(env);
    if (value == "zone") {
      options.join_strategy = server::JoinStrategy::kZoneShuffle;
    } else if (value == "broadcast") {
      options.join_strategy = server::JoinStrategy::kBroadcast;
    }
  }
  if (const char* env = std::getenv("PDC_JOIN_SHUFFLE_DEADLINE_MS")) {
    const long ms = std::strtol(env, nullptr, 10);
    if (ms > 0 && ms <= 60'000) {
      options.join_shuffle_deadline_ms = static_cast<std::uint32_t>(ms);
    }
  }
  if (const char* env = std::getenv("PDC_META_VNODES")) {
    const long vnodes = std::strtol(env, nullptr, 10);
    if (vnodes >= 1 && vnodes <= 1 << 16) {
      options.meta_vnodes = static_cast<std::uint32_t>(vnodes);
    }
  }
  if (const char* env = std::getenv("PDC_META_REPLICAS")) {
    const long replicas = std::strtol(env, nullptr, 10);
    if (replicas >= 1 && replicas <= 64) {
      options.meta_replicas = static_cast<std::uint32_t>(replicas);
    }
  }
  return options;
}

QueryService::QueryService(const obj::ObjectStore& store,
                           ServiceOptions options)
    : QueryService(store, nullptr, std::move(options)) {}

QueryService::QueryService(obj::ObjectStore& store, ServiceOptions options)
    : QueryService(store, &store, std::move(options)) {}

QueryService::QueryService(const obj::ObjectStore& store,
                           obj::ObjectStore* mutable_store,
                           ServiceOptions options)
    : store_(store),
      mutable_store_(mutable_store),
      options_(options),
      pool_(options.eval_threads > 0
                ? std::make_unique<exec::ThreadPool>(options.eval_threads)
                : nullptr),
      bus_(std::max<std::uint32_t>(1, options.num_servers)),
      client_(bus_, options.retry) {
  options_.num_servers = bus_.num_servers();
  bus_.set_fault_injector(options_.fault_injector);
  dead_.assign(options_.num_servers, false);
  servers_.reserve(options_.num_servers);
  runtimes_.reserve(options_.num_servers);
  ports_.reserve(options_.num_servers);
  rpc::ExchangePort::Options port_options;
  port_options.deadline =
      std::chrono::milliseconds(options_.join_shuffle_deadline_ms);
  for (ServerId s = 0; s < options_.num_servers; ++s) {
    ports_.push_back(
        std::make_unique<rpc::ExchangePort>(bus_, s, port_options));
  }
  build_meta_shards();
  for (ServerId s = 0; s < options_.num_servers; ++s) {
    server::ServerOptions server_options;
    server_options.id = s;
    server_options.num_servers = options_.num_servers;
    server_options.cache_capacity_bytes = options_.cache_capacity_bytes;
    server_options.dense_read_threshold = options_.dense_read_threshold;
    server_options.aggregation = options_.aggregation;
    server_options.pool = pool_.get();
    server_options.metrics = &metrics_;
    server_options.mutable_store = mutable_store_;
    server_options.compact_threshold = options_.compact_threshold;
    server_options.replica_rebuild_threshold =
        options_.replica_rebuild_threshold;
    server_options.exchange = ports_[s].get();
    if (!meta_shards_.empty()) {
      server_options.meta_shard = meta_shards_[s].get();
    }
    servers_.push_back(
        std::make_unique<server::QueryServer>(store_, server_options));
    server::QueryServer* qs = servers_.back().get();
    rpc::ServerRuntimeOptions runtime_options;
    runtime_options.pool = pool_.get();
    runtime_options.max_inflight = options_.max_inflight;
    runtime_options.queue_limit = options_.queue_limit;
    runtime_options.shed_policy = options_.shed_policy;
    runtime_options.tenant_weights = options_.tenant_weights;
    runtime_options.metrics = &metrics_;
    runtimes_.push_back(std::make_unique<rpc::ServerRuntime>(
        bus_, s,
        rpc::ServerRuntime::AsyncHandler(
            [qs](std::span<const std::uint8_t> payload,
                 const obs::TraceContext& trace, rpc::Reply reply) {
              qs->handle(payload, trace, std::move(reply));
            }),
        runtime_options));
  }
  if (options_.queue_limit != 0) {
    // Transport backstop beneath admission control: large enough that
    // normal shedding happens in the runtime (with explicit replies), the
    // mailbox bound only catches pathological floods.
    bus_.set_server_mailbox_capacity(
        static_cast<std::size_t>(options_.queue_limit) * 4 + 64);
  }
  // Components that keep their own atomics export polled gauges.
  metrics_.gauge_fn("bus.bytes", [this] {
    return static_cast<double>(bus_.bytes_transferred());
  });
  metrics_.gauge_fn("bus.messages", [this] {
    return static_cast<double>(bus_.messages_sent());
  });
  metrics_.gauge_fn("bus.mailbox_peak", [this] {
    return static_cast<double>(bus_.peak_server_mailbox_depth());
  });
  metrics_.gauge_fn("bus.mailbox_rejects", [this] {
    return static_cast<double>(bus_.mailbox_rejects());
  });
  metrics_.gauge_fn("pfs.read_ops", [this] {
    return static_cast<double>(store_.cluster().total_read_ops());
  });
  metrics_.gauge_fn("pfs.bytes_read", [this] {
    return static_cast<double>(store_.cluster().total_bytes_read());
  });
  if (pool_ != nullptr) {
    metrics_.gauge_fn("pool.threads", [this] {
      return static_cast<double>(pool_->size());
    });
    metrics_.gauge_fn("pool.executed", [this] {
      return static_cast<double>(pool_->stats().executed);
    });
    metrics_.gauge_fn("pool.steals", [this] {
      return static_cast<double>(pool_->stats().steals);
    });
    metrics_.gauge_fn("pool.queue_peak", [this] {
      return static_cast<double>(pool_->stats().queue_peak);
    });
  }
}

QueryService::~QueryService() {
  // Close the exchange endpoints first: every join epoch still waiting for
  // its shuffle settles as failed, and its continuation (inline, or queued
  // on the pool) answers kUnavailable into the closing bus.  The runtimes,
  // destroyed before the servers, wait for those continuations' replies,
  // so no continuation outlives the QueryServer it runs on.
  for (auto& port : ports_) port->close();
  bus_.shutdown();
}

std::vector<bool> QueryService::dead_snapshot() const {
  std::lock_guard lock(state_mu_);
  return dead_;
}

void QueryService::mark_dead(ServerId server) {
  std::lock_guard lock(state_mu_);
  dead_[server] = true;
}

std::vector<ServerId> QueryService::servers_where(const std::vector<bool>& dead,
                                                 bool want_dead) {
  std::vector<ServerId> servers;
  for (ServerId s = 0; s < dead.size(); ++s) {
    if (dead[s] == want_dead) servers.push_back(s);
  }
  return servers;
}

std::vector<ServerId> QueryService::dead_servers() const {
  return servers_where(dead_snapshot(), true);
}

std::uint64_t QueryService::regions_of_identity(
    const std::vector<server::AndTerm>& terms, ServerId identity) const {
  std::uint64_t regions = 0;
  for (const server::AndTerm& term : terms) {
    if (term.conjuncts.empty()) continue;
    const auto object = store_.get(term.conjuncts.front().object);
    if (!object.ok()) continue;
    regions += server::regions_of_server(**object, identity,
                                         options_.num_servers)
                   .size();
  }
  return regions;
}

Result<Selection> QueryService::eval(const QueryPtr& query,
                                     bool need_locations,
                                     const QueryOptions& opts) {
  if (!query) {
    return Status::InvalidArgument("null query");
  }
  OpScope op(*this, opts, "client.query");

  PlanOptions plan_options;
  plan_options.strategy = options_.strategy;
  plan_options.order_by_selectivity = options_.order_by_selectivity;
  obs::ScopedSpan plan_span(op.trace(), "client.plan", "client");
  PDC_ASSIGN_OR_RETURN(Plan plan, plan_query(*query, store_, plan_options));
  plan_span.arg("terms", static_cast<double>(plan.terms.size()));
  plan_span.close();

  Selection selection;
  if (plan.terms.empty()) {
    return selection;  // provably empty
  }

  server::EvalRequest request;
  request.strategy = options_.strategy;
  // OR-terms whose drivers are different objects are evaluated on different
  // servers (region ownership is per object), so one element can satisfy
  // two terms on two servers and per-server hit counts would double-count
  // it.  Multi-term queries therefore always materialize positions and the
  // client dedupes the union below.
  const bool multi_term = plan.terms.size() > 1;
  request.need_locations = need_locations || multi_term;
  request.region_constraint = plan.region_constraint;
  request.terms = std::move(plan.terms);

  // Degraded-mode dispatch.  Each alive server evaluates its own identity
  // plus its share of the identities already dead (act_as).  When a server
  // dies mid-round, the identities it was covering are re-planned onto the
  // survivors for another round — so the final answer is exactly the
  // fault-free one, only slower.  Only when every server is dead does the
  // call surface kUnavailable.  The first round takes its alive and dead
  // lists from one snapshot, so every identity is covered exactly once.
  // One ascending position run per response, merged once all rounds are
  // in.
  std::vector<std::vector<std::uint64_t>> position_runs;
  std::vector<ServerId> orphaned;
  for (bool first_round = true; first_round || !orphaned.empty();
       first_round = false) {
    const std::vector<bool> dead = dead_snapshot();
    const std::vector<ServerId> alive = servers_where(dead, false);
    if (first_round) orphaned = servers_where(dead, true);
    if (alive.empty()) {
      return Status::Unavailable("all PDC servers are dead");
    }
    if (!first_round) {
      log_warn("query degraded: ", orphaned.size(),
               " server identities re-dispatched onto ", alive.size(),
               " survivors");
    }
    for (const ServerId identity : orphaned) {
      op.stats.redispatched_regions +=
          regions_of_identity(request.terms, identity);
    }
    const auto extra = server::plan_reassignment(orphaned, alive);
    Requests requests;
    std::vector<std::vector<ServerId>> acting;  // act_as of each request
    for (std::size_t i = 0; i < alive.size(); ++i) {
      request.act_as.clear();
      if (first_round) request.act_as.push_back(alive[i]);
      request.act_as.insert(request.act_as.end(), extra[i].begin(),
                            extra[i].end());
      if (request.act_as.empty()) continue;
      requests.emplace_back(alive[i], request.serialize());
      acting.push_back(request.act_as);
    }
    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::EvalResponse>(
            op.trace(), requests,
            [&](std::size_t i, server::EvalResponse& response) -> Status {
              PDC_RETURN_IF_ERROR(response.status);
              selection.num_hits += response.num_hits;
              if (response.has_positions) {
                position_runs.push_back(std::move(response.positions));
              }
              if (!response.sorted_extents.empty()) {
                if (response.replica_id != kInvalidObjectId) {
                  selection.replica_id = response.replica_id;
                }
                selection.sorted_extents.emplace_back(
                    requests[i].first, std::move(response.sorted_extents));
              }
              op.stats.regions_scanned += response.regions_scanned;
              op.stats.regions_indexed += response.regions_indexed;
              op.stats.regions_allhit += response.regions_allhit;
              op.stats.regions_stale += response.regions_stale;
              op.stats.max_data_epoch =
                  std::max(op.stats.max_data_epoch, response.max_data_epoch);
              return Status::Ok();
            }));
    orphaned.clear();
    for (const std::size_t i : lost) {
      orphaned.insert(orphaned.end(), acting[i].begin(), acting[i].end());
    }
  }

  op.charge_responses();

  // Client-side aggregation: merge the per-response ascending runs (and
  // dedupe the multi-term union).  Dedupe and the get_data scatter rely on
  // the order, so a response out of order fails the query.
  std::size_t total_positions = 0;
  for (const std::vector<std::uint64_t>& run : position_runs) {
    total_positions += run.size();
  }
  if (total_positions > 0) {
    obs::ScopedSpan merge_span(op.trace(), "client.merge", "client");
    merge_span.arg("positions", static_cast<double>(total_positions));
    op.stats.client_cpu_seconds += 2.0 * op.cost.scan_cost(
        total_positions * sizeof(std::uint64_t));
    const Status merged =
        merge_ascending_runs(position_runs, selection.positions);
    if (!merged.ok()) {
      return Status::Corruption("eval responses: " + merged.message());
    }
    if (multi_term) selection.num_hits = selection.positions.size();
  }
  // The replica id may be known even when extents were not retained.
  if (selection.replica_id == kInvalidObjectId &&
      options_.strategy == server::Strategy::kSortedHistogram &&
      request.terms.size() == 1) {
    selection.replica_id = request.terms.front().driver_replica;
  }
  op.arg("num_hits", static_cast<double>(selection.num_hits));
  return selection;
}

Result<std::uint64_t> QueryService::get_num_hits(const QueryPtr& query,
                                                 const QueryOptions& opts) {
  PDC_ASSIGN_OR_RETURN(Selection selection,
                       eval(query, /*need_locations=*/false, opts));
  return selection.num_hits;
}

Result<Selection> QueryService::get_selection(const QueryPtr& query,
                                              const QueryOptions& opts) {
  return eval(query, /*need_locations=*/true, opts);
}

Result<obs::MetricsSnapshot> QueryService::scrape_metrics() {
  const std::vector<ServerId> alive = servers_where(dead_snapshot(), false);
  if (alive.empty()) {
    return Status::Unavailable("all PDC servers are dead");
  }
  std::vector<std::pair<ServerId, std::vector<std::uint8_t>>> requests;
  requests.emplace_back(alive.front(), server::MetricsRequest{}.serialize());
  const rpc::GatherResult gathered = client_.gather(requests);
  if (gathered.bus_closed || !gathered.responses.front().has_value()) {
    if (!gathered.bus_closed && gathered.shed.front()) {
      return Status::Overloaded("metrics scrape shed; retry later");
    }
    return Status::Unavailable("metrics scrape received no response");
  }
  SerialReader reader(gathered.responses.front()->payload);
  PDC_ASSIGN_OR_RETURN(server::MetricsResponse response,
                       server::MetricsResponse::Deserialize(reader));
  PDC_RETURN_IF_ERROR(response.status);
  return std::move(response.snapshot);
}

Status QueryService::get_data_raw(ObjectId object, const Selection& selection,
                                  std::span<std::uint8_t> out, PdcType type,
                                  GetDataMode mode, const QueryOptions& opts) {
  OpScope op(*this, opts, "client.get_data");
  PDC_RETURN_IF_ERROR(fetch_data(op, object, selection, out, type, mode));
  op.arg("bytes", static_cast<double>(out.size()));
  return Status::Ok();
}

Status QueryService::fetch_data(OpScope& op, ObjectId object,
                                const Selection& selection,
                                std::span<std::uint8_t> out, PdcType type,
                                GetDataMode mode) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* target,
                       store_.get(object));
  if (target->type != type) {
    return Status::InvalidArgument("get_data element type mismatch");
  }
  const std::size_t elem_size = target->element_size();
  if (out.size() != selection.num_hits * elem_size) {
    return Status::InvalidArgument(
        "get_data buffer must hold num_hits elements");
  }
  if (selection.num_hits == 0) return Status::Ok();

  // Resolve the fetch mode.
  bool use_replica = false;
  ObjectId replica_source = kInvalidObjectId;
  if (selection.replica_id != kInvalidObjectId &&
      !selection.sorted_extents.empty()) {
    const auto replica = store_.get(selection.replica_id);
    if (replica.ok()) replica_source = (*replica)->sorted_source;
  }
  switch (mode) {
    case GetDataMode::kAuto:
      use_replica = replica_source == object;
      break;
    case GetDataMode::kFromReplica:
      if (replica_source != object) {
        return Status::FailedPrecondition(
            "selection has no replica extents for this object");
      }
      use_replica = true;
      break;
    case GetDataMode::kByPositions:
      use_replica = false;
      break;
  }

  // Build the data-fetch parts.  Any server can serve any part (requests
  // carry explicit positions/extents), so when an owner is dead — or dies
  // mid-fetch — its part is re-routed to a survivor.  Fetched values are
  // keyed by part, not by owner: in degraded mode two sorted_extents
  // entries can name the same server (its own round-1 answer plus a dead
  // identity it covered in round 2), and per-owner keying would let one
  // response clobber the other.
  struct Part {
    ServerId owner;                  ///< nominal (cache-local) server
    std::uint64_t regions;           ///< work units, for redispatch stats
    std::size_t expected_bytes;      ///< exact response size, validated
    std::vector<std::uint8_t> payload;
  };
  std::vector<Part> parts;
  std::vector<std::size_t> part_of_owner;
  if (use_replica) {
    // One part per sorted_extents entry, in order: entry i <-> parts[i].
    for (const auto& [server, extents] : selection.sorted_extents) {
      server::GetDataRequest request;
      request.object = selection.replica_id;
      request.from_replica = true;
      request.extents = extents;
      std::uint64_t count = 0;
      for (const Extent1D& e : extents) count += e.count;
      parts.push_back({server, extents.size(),
                       static_cast<std::size_t>(count * elem_size),
                       request.serialize()});
    }
  } else {
    if (selection.positions.size() != selection.num_hits) {
      return Status::FailedPrecondition(
          "selection has no locations; call get_selection first");
    }
    auto split = server::partition_positions(*target, selection.positions,
                                             options_.num_servers);
    part_of_owner.assign(options_.num_servers, 0);
    for (ServerId s = 0; s < options_.num_servers; ++s) {
      if (split[s].empty()) continue;
      std::uint64_t regions = 0;
      RegionIndex last = ~RegionIndex{0};
      for (const std::uint64_t pos : split[s]) {
        const RegionIndex r = server::region_of_position(*target, pos);
        regions += r != last;
        last = r;
      }
      server::GetDataRequest request;
      request.object = object;
      const std::size_t expected = split[s].size() * elem_size;
      request.positions = std::move(split[s]);
      part_of_owner[s] = parts.size();
      parts.push_back({s, regions, expected, request.serialize()});
    }
  }

  std::vector<std::vector<std::uint8_t>> values_by_part(parts.size());
  std::vector<std::size_t> pending(parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) pending[i] = i;
  while (!pending.empty()) {
    const std::vector<bool> dead = dead_snapshot();
    const std::vector<ServerId> alive = servers_where(dead, false);
    if (alive.empty()) {
      return Status::Unavailable("all PDC servers are dead");
    }
    // Route each pending part: its owner when alive, else a survivor.
    Requests requests;
    std::size_t reroute_index = 0;
    for (const std::size_t p : pending) {
      ServerId to = parts[p].owner;
      if (dead[to]) {
        to = alive[reroute_index++ % alive.size()];
        op.stats.redispatched_regions += parts[p].regions;
      }
      requests.emplace_back(to, parts[p].payload);
    }
    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::GetDataResponse>(
            op.trace(), requests,
            [&](std::size_t i, server::GetDataResponse& response) -> Status {
              PDC_RETURN_IF_ERROR(response.status);
              if (response.values.size() != parts[pending[i]].expected_bytes) {
                return Status::Corruption(
                    "get_data response does not match requested element "
                    "count");
              }
              values_by_part[pending[i]] = std::move(response.values);
              return Status::Ok();
            }));
    std::vector<std::size_t> still_pending;
    for (const std::size_t i : lost) still_pending.push_back(pending[i]);
    pending = std::move(still_pending);
  }
  op.charge_responses();

  if (use_replica) {
    // Slice each server's blob per extent, then lay extents out in
    // ascending replica offset: the output is globally value-sorted.
    struct Piece {
      std::uint64_t offset;
      const std::uint8_t* bytes;
      std::uint64_t count;
    };
    std::vector<Piece> pieces;
    for (std::size_t pi = 0; pi < selection.sorted_extents.size(); ++pi) {
      const std::uint8_t* cursor = values_by_part[pi].data();
      for (const Extent1D& e : selection.sorted_extents[pi].second) {
        pieces.push_back({e.offset, cursor, e.count});
        cursor += e.count * elem_size;
      }
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& a, const Piece& b) {
                return a.offset < b.offset;
              });
    std::uint8_t* dest = out.data();
    for (const Piece& p : pieces) {
      std::memcpy(dest, p.bytes, static_cast<std::size_t>(p.count * elem_size));
      dest += p.count * elem_size;
    }
  } else {
    // Merge per-server streams back into ascending-position order.
    std::vector<std::size_t> cursor(options_.num_servers, 0);
    std::uint8_t* dest = out.data();
    for (const std::uint64_t pos : selection.positions) {
      const ServerId owner = server::owner_of_region(
          *target, server::region_of_position(*target, pos),
          options_.num_servers);
      std::memcpy(dest,
                  values_by_part[part_of_owner[owner]].data() +
                      cursor[owner] * elem_size,
                  elem_size);
      ++cursor[owner];
      dest += elem_size;
    }
  }
  op.stats.client_cpu_seconds +=
      static_cast<double>(out.size()) / op.cost.memcpy_bandwidth_bps;
  return Status::Ok();
}

Status QueryService::get_data_bytes(ObjectId object,
                                    const Selection& selection,
                                    std::uint8_t* out, GetDataMode mode) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* target,
                       store_.get(object));
  return get_data_raw(
      object, selection,
      {out, static_cast<std::size_t>(selection.num_hits *
                                     target->element_size())},
      target->type, mode);
}

Status QueryService::get_data_batch(
    ObjectId object, const Selection& selection, std::uint64_t batch_elements,
    const std::function<void(std::span<const std::uint8_t>, std::uint64_t)>&
        consume) {
  if (batch_elements == 0) {
    return Status::InvalidArgument("batch_elements must be positive");
  }
  if (selection.positions.size() != selection.num_hits) {
    return Status::FailedPrecondition(
        "selection has no locations; call get_selection first");
  }
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* target,
                       store_.get(object));
  const std::size_t elem_size = target->element_size();
  // One scope for the whole stream: every batch's rounds accumulate into
  // one published total, read from no shared slot.
  OpScope op(*this, QueryOptions{}, "client.get_data");
  std::vector<std::uint8_t> buffer;
  for (std::uint64_t first = 0; first < selection.num_hits;
       first += batch_elements) {
    const std::uint64_t count =
        std::min<std::uint64_t>(batch_elements, selection.num_hits - first);
    Selection batch;
    batch.num_hits = count;
    batch.positions.assign(
        selection.positions.begin() + static_cast<std::ptrdiff_t>(first),
        selection.positions.begin() + static_cast<std::ptrdiff_t>(first + count));
    buffer.resize(static_cast<std::size_t>(count * elem_size));
    PDC_RETURN_IF_ERROR(fetch_data(op, object, batch, buffer, target->type,
                                   GetDataMode::kByPositions));
    consume(buffer, first);
  }
  return Status::Ok();
}

Result<WriteReport> QueryService::append(ObjectId object,
                                         std::span<const std::uint8_t> values,
                                         const QueryOptions& opts) {
  return transfer_write(object, server::WriteKind::kAppend, Extent1D{}, values,
                        opts);
}

Result<WriteReport> QueryService::overwrite(ObjectId object, Extent1D extent,
                                            std::span<const std::uint8_t> values,
                                            const QueryOptions& opts) {
  return transfer_write(object, server::WriteKind::kOverwrite, extent, values,
                        opts);
}

Result<WriteReport> QueryService::transfer_write(
    ObjectId object, server::WriteKind kind, Extent1D extent,
    std::span<const std::uint8_t> payload, const QueryOptions& opts) {
  OpScope op(*this, opts, "client.transfer_write");
  if (mutable_store_ == nullptr) {
    return Status::FailedPrecondition(
        "service opened read-only; use the writable constructor to enable "
        "transfer_write");
  }
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* target,
                       store_.get(object));

  // Client-assigned per-object monotone sequence number: servers apply a
  // seq at most once, so a retried or rerouted request (a write applied
  // whose ack was lost) is acknowledged as a duplicate, never re-applied.
  std::uint64_t seq = 0;
  {
    std::lock_guard lock(state_mu_);
    seq = ++write_seq_[object];
  }
  server::TransferWriteRequest request;
  request.object = object;
  request.kind = kind;
  request.extent = extent;
  request.write_seq = seq;
  request.payload = payload;
  const std::vector<std::uint8_t> bytes = request.serialize();

  // Nominal target: the owner of the first region the write lands in
  // (appends: the trailing region).  Any server can apply a write — the
  // store is shared and the mutation takes the store's writer lock — so a
  // dead owner's write reroutes to a survivor instead of blocking.
  const std::uint64_t anchor_pos =
      kind == server::WriteKind::kOverwrite
          ? extent.offset
          : (target->num_elements == 0 ? 0 : target->num_elements - 1);
  const ServerId owner = server::owner_of_region(
      *target, server::region_of_position(*target, anchor_pos),
      options_.num_servers);

  std::optional<WriteReport> report;
  for (std::size_t attempt = 0; !report.has_value(); ++attempt) {
    const std::vector<bool> dead = dead_snapshot();
    const std::vector<ServerId> alive = servers_where(dead, false);
    if (alive.empty()) {
      return Status::Unavailable("all PDC servers are dead");
    }
    ServerId to = owner;
    if (dead[to]) to = alive[attempt % alive.size()];
    Requests requests;
    requests.emplace_back(to, bytes);
    // A shed write was rejected at admission, so it was NOT applied; this
    // call's seq is burned but never observed, which is harmless.
    PDC_ASSIGN_OR_RETURN(
        const std::vector<std::size_t> lost,
        op.round<server::TransferWriteResponse>(
            op.trace(), requests,
            [&](std::size_t, server::TransferWriteResponse& response)
                -> Status {
              PDC_RETURN_IF_ERROR(response.status);
              report = WriteReport{response.data_epoch,
                                   response.regions_touched,
                                   response.duplicate, response.compacted};
              return Status::Ok();
            }));
    // No answer: the server may or may not have applied the write before
    // dying.  Reroute under the SAME seq — a survivor either applies it
    // (never happened) or acks it as a duplicate (happened; ack lost).
    op.stats.redispatched_regions += lost.size();
  }
  op.charge_responses();
  op.stats.max_data_epoch = report->data_epoch;

  if (!report->duplicate && metadata_enabled()) {
    // Write-path hook: the object's new data epoch propagates into the
    // metadata service through the same replicated update path (per-
    // vnode seq, epoch bump on every replica), so metadata queries can
    // see write recency (`__data_epoch >= N`) with exact semantics.
    PDC_RETURN_IF_ERROR(meta_apply_update(
        op, object, "__data_epoch",
        static_cast<std::int64_t>(report->data_epoch)));
  }
  op.arg("bytes", static_cast<double>(payload.size()));
  op.arg("data_epoch", static_cast<double>(report->data_epoch));
  return *report;
}

Result<hist::MergeableHistogram> QueryService::get_histogram(
    ObjectId object) const {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* desc, store_.get(object));
  return desc->global_histogram;
}

std::uint64_t QueryService::cached_bytes() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) total += server->cache().bytes();
  return total;
}

}  // namespace pdc::query
