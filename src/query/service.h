// PDC-Query service — the client-facing entry point (paper Fig. 1 & 2).
//
// Owns the deployment: a message bus, N QueryServer instances each on its
// own thread, and the client endpoint with its background aggregator.  All
// query traffic crosses the bus as serialized bytes.
//
// Every operation also produces an OpStats with the *simulated* end-to-end
// elapsed time assembled the way the paper measures it (§V: "end-to-end
// time from the client issues the query until it receives all the query
// results"):
//
//   broadcast_net + max_over_servers(server io+cpu) + response_net +
//   client merge cpu
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/exec_pool.h"
#include "histogram/histogram.h"
#include "metadata/meta_shard.h"
#include "metadata/meta_store.h"
#include "obj/object_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "query/query.h"
#include "rpc/exchange.h"
#include "rpc/message_bus.h"
#include "rpc/server_runtime.h"
#include "server/query_server.h"

namespace pdc::query {

/// Result-set handle (paper: pdc_selection_t).
struct Selection {
  std::uint64_t num_hits = 0;
  /// Matching element coordinates, ascending.  For sorted-replica
  /// evaluations obtained via get_num_hits this may be empty even when
  /// num_hits > 0 (the fast path counts without materializing locations).
  std::vector<std::uint64_t> positions;

  /// Sorted-strategy extra: the replica object and the contiguous
  /// replica-space extents of the hits, per server.
  ObjectId replica_id = kInvalidObjectId;
  std::vector<std::pair<ServerId, std::vector<Extent1D>>> sorted_extents;
};

/// How get_data fetches values.
enum class GetDataMode : std::uint8_t {
  kAuto = 0,      ///< replica fast path when available, else by positions
  kByPositions,   ///< gather at original positions (selection order)
  kFromReplica,   ///< sequential replica reads (values arrive value-sorted)
};

/// Per-operation execution options.
struct QueryOptions {
  /// Produce a span tree for this operation (client, RPC, server phases,
  /// pool tasks, PFS reads), retrievable via QueryService::last_trace().
  /// Off by default: tracing is strictly pay-for-what-you-use.
  bool trace = false;
  /// Fairness identity stamped on every RPC of this operation: the
  /// server-side weighted-fair scheduler keys its per-tenant lanes on it
  /// (ServiceOptions::tenant_weights).  0 = the default tenant.
  std::uint32_t tenant = 0;
};

/// One cross-object epsilon join (paper ROADMAP item 4): all pairs
/// (pa, pb) with |left.value(pa) - right.value(pb)| <= epsilon, subject to
/// the optional per-side value pre-filters.
struct JoinSpec {
  ObjectId left = kInvalidObjectId;   ///< build side (pairs live in its zone)
  ObjectId right = kInvalidObjectId;  ///< probe side (band-expanded)
  double epsilon = 0.0;
  /// Zone bucket height; must be finite, positive and >= epsilon (the MSR
  /// zone-algorithm rule).  Rejected at plan time otherwise (NaN included).
  double zone_height = 1.0;
  /// Per-side value pre-filters (default: whole line).
  ValueInterval left_filter;
  ValueInterval right_filter;
  /// Override the service-level shuffle strategy for this join only.
  std::optional<server::JoinStrategy> strategy;
};

struct JoinPair {
  std::uint64_t left_pos = 0;   ///< original-space position in `left`
  std::uint64_t right_pos = 0;  ///< original-space position in `right`
};

/// Join result: pairs concatenated in ascending zone order, each zone's
/// pairs sorted by (left_pos, right_pos) — deterministic at any pool
/// width, server count and shuffle strategy.
struct JoinResult {
  std::vector<JoinPair> pairs;
  std::uint64_t num_zones = 0;  ///< non-empty zones across all servers
};

/// Per-operation performance summary.
struct OpStats {
  double sim_elapsed_seconds = 0.0;  ///< modeled end-to-end time
  double wall_seconds = 0.0;         ///< actual wall time of the call
  double max_server_seconds = 0.0;   ///< critical-path server io+cpu
  double max_server_io_seconds = 0.0;   ///< io part of the critical server
  double max_server_cpu_seconds = 0.0;  ///< cpu part of the critical server
  // Per-stage cpu split of the critical server (subset of its cpu time;
  // the remainder was uncategorized work).
  double max_server_scan_seconds = 0.0;    ///< value scanning / checking
  double max_server_decode_seconds = 0.0;  ///< bitmap-index bin decode
  double max_server_merge_seconds = 0.0;   ///< sorts, unions, result copies
  double net_seconds = 0.0;
  double client_cpu_seconds = 0.0;
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t server_bytes_read = 0;
  std::uint64_t server_read_ops = 0;
  // Degradation observability (nonzero only under faults).
  std::uint64_t retries = 0;       ///< RPC requests re-sent after a timeout
  std::uint64_t timeouts = 0;      ///< attempt windows that expired
  std::uint64_t sheds = 0;         ///< RPCs shed by server admission control
  std::uint64_t dead_servers = 0;  ///< servers considered dead after this op
  std::uint64_t redispatched_regions = 0;  ///< regions re-planned onto
                                           ///< surviving servers
  // Intra-server execution pool observability (zero when running serially).
  std::uint32_t pool_threads = 0;     ///< workers in the evaluation pool
  std::uint64_t pool_queue_peak = 0;  ///< high-water of queued pool tasks
  // Per-region access-path choices summed over all servers.  Populated only
  // by Strategy::kAdaptive (PDC-A); fixed strategies leave all three zero.
  std::uint64_t regions_scanned = 0;  ///< regions read whole + scanned
  std::uint64_t regions_indexed = 0;  ///< regions probed via WAH bins
  std::uint64_t regions_allhit = 0;   ///< regions proven all-hit (no I/O)
  // Write-path staleness observability (nonzero only after writes).
  std::uint64_t regions_stale = 0;   ///< index-lagging regions that fell
                                     ///< back to scan this operation
  std::uint64_t max_data_epoch = 0;  ///< highest region data epoch any
                                     ///< server reported (0 = never written)
  // Join/shuffle observability (nonzero only for join()).  The MPC-style
  // communication model folds rounds * net_latency plus the busiest
  // sender's bytes / net_bandwidth into sim_elapsed_seconds.
  std::uint64_t shuffle_bytes = 0;       ///< exchange bytes, incl. rexmits
  std::uint64_t shuffle_msgs = 0;        ///< exchange frames sent
  std::uint64_t shuffle_retransmits = 0; ///< frames re-sent (faults only)
  std::uint64_t shuffle_rounds = 0;      ///< communication rounds (1)
  std::uint64_t join_candidates_left = 0;   ///< build tuples produced
  std::uint64_t join_candidates_right = 0;  ///< probe tuples produced
  // Metadata-service observability (nonzero only for meta operations).
  std::uint64_t meta_probes = 0;          ///< trie/map nodes visited
  std::uint64_t meta_vnodes_queried = 0;  ///< vnode consultations (with dup
                                          ///< retries), not a broadcast
  std::uint64_t meta_max_epoch = 0;       ///< highest vnode epoch observed
};

/// Outcome of one transfer_write operation.
struct WriteReport {
  std::uint64_t data_epoch = 0;       ///< object's data epoch after the write
  std::uint64_t regions_touched = 0;  ///< regions the write bytes landed in
  bool duplicate = false;   ///< replayed write_seq: acknowledged, not applied
  bool compacted = false;   ///< a delta-WAH sidecar was folded (index rebuilt)
};

struct ServiceOptions {
  std::uint32_t num_servers = 4;
  server::Strategy strategy = server::Strategy::kHistogram;
  /// Per-server region cache capacity (paper: 64 GB per server).
  std::uint64_t cache_capacity_bytes = 1ull << 30;
  /// Dense-read crossover: conjuncts needing more than this fraction of a
  /// region's elements fetch the whole region instead of point reads, and
  /// PDC-A (kAdaptive) picks scan over index probing at the same fraction.
  double dense_read_threshold = 0.25;
  pfs::AggregationPolicy aggregation;
  /// Planner knob (ablation): reorder conjuncts by estimated selectivity.
  bool order_by_selectivity = true;
  /// Optional fault injector wired into the message bus (chaos testing).
  /// Must outlive the service.
  rpc::FaultInjector* fault_injector = nullptr;
  /// Client-side RPC deadlines/backoff.  After max_attempts expire for a
  /// server, it is declared dead and its regions are re-planned onto the
  /// survivors; results stay exactly the fault-free answer, only slower.
  rpc::RetryPolicy retry;
  /// Intra-server evaluation threads (paper §III-C: each server uses
  /// "multiple threads to process the query in parallel").  0 = serial (no
  /// pool).  N >= 1 creates one pool of N workers shared by every server
  /// of this service: region loops fan out per region, up to
  /// `max_inflight` requests per server overlap, and the simulated
  /// per-server cpu time becomes max(critical task, total work / N).
  /// Results are bit-identical to serial evaluation.
  std::uint32_t eval_threads = 0;
  /// With a pool: how many requests one server may process concurrently
  /// (a join counts while its first stage runs, not while it waits for its
  /// shuffle).
  std::uint32_t max_inflight = 4;
  /// Per-server admission queue limit: requests allowed to wait for a
  /// processing slot beyond the max_inflight already running.  Past the
  /// limit the server sheds (kOverloaded reply with a retry-after hint)
  /// instead of queueing unboundedly; server mailboxes get a transport
  /// backstop of queue_limit*4+64 messages.  0 = unbounded (never sheds).
  std::uint32_t queue_limit = 0;
  /// Which request a full admission queue sheds.
  rpc::ShedPolicy shed_policy = rpc::ShedPolicy::kRejectNew;
  /// Weighted-fair scheduler shares, indexed by QueryOptions::tenant
  /// (missing or non-positive entries default to weight 1; empty = all
  /// tenants equal, FIFO-equivalent ordering).
  std::vector<double> tenant_weights;
  /// Delta-WAH compaction threshold: a region whose sidecar reaches this
  /// many entries has its bitmap index compacted inline with the write that
  /// crossed the line.  0 disables compaction (deltas grow unbounded).
  std::uint64_t compact_threshold = 64;
  /// Sorted-replica fold (the write delta log merged into the replica)
  /// once the log reaches this many entries.  0 disables folds.
  std::uint64_t replica_rebuild_threshold = 4096;
  /// Default shuffle strategy for join() (JoinSpec::strategy overrides).
  server::JoinStrategy join_strategy = server::JoinStrategy::kZoneShuffle;
  /// Exchange-lane reliability deadline: how long a server's join epoch
  /// may wait for its shuffle (a timer on the epoch; unacked frames are
  /// retransmitted meanwhile) before it fails (kUnavailable and the client
  /// re-plans onto the survivors).
  std::uint32_t join_shuffle_deadline_ms = 500;
  /// Distributed metadata service (ROADMAP item 2).  Non-null: each server
  /// hosts a MetaShard partition of this store's attributes (vnode ring,
  /// N-way replication) and the service answers meta_query()/
  /// meta_set_attribute() over kMetaQuery/kMetaUpdate RPC fan-outs.  Null
  /// (the default): no shards are built and the data path is untouched.
  /// Must outlive the service; it stays the authoritative copy (updates
  /// through the service write it too).
  meta::MetaStore* metadata = nullptr;
  /// Vnode count of the metadata hash ring (more vnodes = finer balance).
  std::uint32_t meta_vnodes = 64;
  /// Replicas per metadata vnode (clamped to num_servers); ≥2 keeps exact
  /// metadata answers available across a single server death.
  std::uint32_t meta_replicas = 2;

  /// Read strategy from the PDC_QUERY_STRATEGY environment variable
  /// ("fullscan", "histogram", "index", "sorted", "adaptive"), mirroring
  /// the paper's server configuration mechanism, eval_threads from
  /// PDC_QUERY_THREADS, dense_read_threshold from
  /// PDC_QUERY_DENSE_THRESHOLD, queue_limit from PDC_QUEUE_LIMIT,
  /// shed_policy from PDC_SHED_POLICY ("reject-new" / "drop-oldest"), and
  /// tenant_weights from PDC_TENANT_WEIGHTS (comma-separated, e.g.
  /// "3,1,1"), compact_threshold from PDC_COMPACT_THRESHOLD, and
  /// replica_rebuild_threshold from PDC_REPLICA_REBUILD_THRESHOLD.
  /// Unset/unknown keeps the defaults.  Joins: join_strategy from
  /// PDC_JOIN_STRATEGY ("zone" / "broadcast") and join_shuffle_deadline_ms
  /// from PDC_JOIN_SHUFFLE_DEADLINE_MS.  Metadata ring geometry:
  /// meta_vnodes from PDC_META_VNODES, meta_replicas from
  /// PDC_META_REPLICAS (the metadata store pointer itself cannot come from
  /// the environment).
  static ServiceOptions from_env();
};

class QueryService {
 public:
  QueryService(const obj::ObjectStore& store, ServiceOptions options);
  /// Writable deployment: servers additionally accept kTransferWrite and
  /// maintain accelerators incrementally.  The store reference is the same
  /// one the read path uses.
  QueryService(obj::ObjectStore& store, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // ---- query execution (paper: PDCquery_get_nhits / _get_selection) ----
  Result<std::uint64_t> get_num_hits(const QueryPtr& query,
                                     const QueryOptions& opts = {});
  Result<Selection> get_selection(const QueryPtr& query,
                                  const QueryOptions& opts = {});

  // ---- cross-object join (ROADMAP item 4; implemented in service_join.cc)
  /// All (left_pos, right_pos) pairs within epsilon, zone cross-matched:
  /// every server produces its candidates locally, the exchange operator
  /// shuffles them by zone (or broadcasts, per the strategy), and each
  /// server joins its owned zones.  The result is bit-identical at any
  /// pool width, server count and shuffle strategy.
  Result<JoinResult> join(const JoinSpec& spec, const QueryOptions& opts = {});

  // ---- data retrieval (paper: PDCquery_get_data / _get_data_batch) ----
  /// Fetch the values of `selection` from `object` into `out`
  /// (out.size() must equal selection.num_hits).
  template <PdcElement T>
  Status get_data(ObjectId object, const Selection& selection,
                  std::span<T> out, GetDataMode mode = GetDataMode::kAuto,
                  const QueryOptions& opts = {}) {
    return get_data_raw(object, selection,
                        {reinterpret_cast<std::uint8_t*>(out.data()),
                         out.size_bytes()},
                        kPdcTypeOf<T>, mode, opts);
  }

  /// Type-erased get_data for language bindings: `out` must hold
  /// selection.num_hits elements of the target object's element type.
  Status get_data_bytes(ObjectId object, const Selection& selection,
                        std::uint8_t* out,
                        GetDataMode mode = GetDataMode::kAuto);

  /// Stream the selection's values in batches of at most `batch_elements`
  /// (paper: for results too large to fit in memory at once).  `consume` is
  /// called with the raw bytes of each batch and the index of its first
  /// element within the selection.
  Status get_data_batch(
      ObjectId object, const Selection& selection,
      std::uint64_t batch_elements,
      const std::function<void(std::span<const std::uint8_t>,
                               std::uint64_t)>& consume);

  // ---- write path (kTransferWrite) ----
  /// Append whole elements to `object` (all-new positions; trailing region
  /// grows / new regions appear).  Requires the writable constructor.
  Result<WriteReport> append(ObjectId object,
                             std::span<const std::uint8_t> payload,
                             const QueryOptions& opts = {});
  /// Overwrite `extent` of `object` with `payload` (whole elements; extent
  /// must lie inside the object).  Requires the writable constructor.
  Result<WriteReport> overwrite(ObjectId object, Extent1D extent,
                                std::span<const std::uint8_t> payload,
                                const QueryOptions& opts = {});

  // ---- metadata-side entry points ----
  /// Global histogram of an object — generated by the system at ingest, so
  /// retrieval is free (paper: PDCquery_get_histogram).
  Result<hist::MergeableHistogram> get_histogram(ObjectId object) const;

  // ---- distributed metadata service (ROADMAP item 2; service_meta.cc) ----
  /// Evaluate metadata conjuncts (exact / range / affix, see MetaMatchKind)
  /// over the sharded server-resident index: each condition is routed to
  /// the vnodes that can own it (never a broadcast), a load-aware replica
  /// answers per vnode, posting lists are unioned per condition and
  /// intersected across conditions client-side.  Returns the matching
  /// ObjectIds ascending — byte-identical to MetaStore::query on the
  /// authoritative store.  Requires ServiceOptions::metadata;
  /// FailedPrecondition otherwise.  Under faults the fan-out retries the
  /// surviving replicas of each vnode; with no replica left it returns
  /// kUnavailable — never a silently truncated result.
  Result<std::vector<ObjectId>> meta_query(
      std::span<const meta::MetaCondition> conditions,
      const QueryOptions& opts = {});
  /// Set (or overwrite) one attribute of one object through the replicated
  /// update path: the affected vnodes' replicas each apply the change
  /// exactly once (per-vnode sequence dedup) and bump their epoch; the
  /// authoritative MetaStore is updated after every replica acknowledged.
  /// Requires ServiceOptions::metadata.
  Status meta_set_attribute(ObjectId object, std::string_view attribute,
                            meta::MetaValue value, const QueryOptions& opts = {});
  /// True when this deployment hosts metadata shards.
  [[nodiscard]] bool metadata_enabled() const noexcept {
    return !meta_shards_.empty();
  }
  /// Ring geometry actually in effect (replicas clamped to num_servers).
  [[nodiscard]] const meta::MetaRingConfig& meta_ring() const noexcept {
    return meta_ring_;
  }

  /// Stats of the most recent completed operation (by value: under
  /// concurrent queries a reference could be overwritten mid-read).
  [[nodiscard]] OpStats last_stats() const {
    std::lock_guard lock(state_mu_);
    return stats_;
  }

  /// Span tree of the most recent operation run with QueryOptions::trace
  /// (null until one completes).  Shared ownership: a concurrent traced
  /// query replaces the pointer but never mutates a published trace.
  [[nodiscard]] std::shared_ptr<const obs::Trace> last_trace() const {
    std::lock_guard lock(state_mu_);
    return last_trace_;
  }

  /// Deployment metrics registry (bus/pool/pfs gauges, per-server counters
  /// and latency histograms).  Live for the service's lifetime.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  /// Scrape a metrics snapshot from a live server over the kMetrics RPC —
  /// the same path an external monitoring client would use.  The snapshot
  /// is deployment-wide (every server shares one registry).
  Result<obs::MetricsSnapshot> scrape_metrics();

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::uint32_t num_servers() const noexcept {
    return options_.num_servers;
  }
  /// Cache occupancy across all servers (observability).
  [[nodiscard]] std::uint64_t cached_bytes() const;

  /// Servers currently considered dead (exhausted their retries).  A dead
  /// server stays dead for the lifetime of the service; its region share
  /// is evaluated by survivors.
  [[nodiscard]] std::vector<ServerId> dead_servers() const;

 private:
  /// One operation's stats/trace scope and its dispatch rounds
  /// (query/dispatch.h).
  class OpScope;

  /// Shared constructor body; `mutable_store` is null for the read-only
  /// overload and &store for the writable one.
  QueryService(const obj::ObjectStore& store, obj::ObjectStore* mutable_store,
               ServiceOptions options);

  Result<WriteReport> transfer_write(ObjectId object, server::WriteKind kind,
                                     Extent1D extent,
                                     std::span<const std::uint8_t> payload,
                                     const QueryOptions& opts);
  Status get_data_raw(ObjectId object, const Selection& selection,
                      std::span<std::uint8_t> out, PdcType type,
                      GetDataMode mode, const QueryOptions& opts = {});
  /// get_data's body, accumulating into `op` (get_data_batch runs every
  /// batch inside one scope).
  Status fetch_data(OpScope& op, ObjectId object, const Selection& selection,
                    std::span<std::uint8_t> out, PdcType type,
                    GetDataMode mode);
  Result<Selection> eval(const QueryPtr& query, bool need_locations,
                         const QueryOptions& opts = {});

  /// Ids s with dead[s] == want_dead.  An op derives its alive AND its dead
  /// list from one dead_snapshot(): a server that a concurrent op marks
  /// dead between two snapshots would land in neither list (or both), and
  /// its identity would be covered zero times (or twice).
  [[nodiscard]] static std::vector<ServerId> servers_where(
      const std::vector<bool>& dead, bool want_dead);
  /// Count the regions of each term's driver object assigned to `identity`
  /// (what a redispatch re-plans onto a survivor).
  [[nodiscard]] std::uint64_t regions_of_identity(
      const std::vector<server::AndTerm>& terms, ServerId identity) const;

  /// Build the per-server MetaShard partitions from options_.metadata
  /// (constructor helper; parallel across servers when a pool exists).
  void build_meta_shards();
  /// Shared update path for meta_set_attribute and the write-path hook.
  Status meta_apply_update(OpScope& op, ObjectId object,
                           std::string_view attribute, meta::MetaValue value);

  /// Snapshot of dead_ under the lock.
  [[nodiscard]] std::vector<bool> dead_snapshot() const;
  void mark_dead(ServerId server);

  const obj::ObjectStore& store_;
  /// Non-null only for the writable constructor; servers get it as their
  /// ServerOptions::mutable_store.
  obj::ObjectStore* mutable_store_ = nullptr;
  ServiceOptions options_;
  /// Deployment metrics.  Declared before the pool/bus/servers so it is
  /// destroyed after them — every component holds instrument pointers into
  /// this registry for its whole lifetime.
  obs::MetricsRegistry metrics_;
  /// Shared intra-server pool; declared before bus_/runtimes_ so it is
  /// destroyed after them (in-flight server tasks run on it).
  std::unique_ptr<exec::ThreadPool> pool_;
  rpc::MessageBus bus_;
  /// Exchange endpoints (one per server), created before the servers that
  /// hold pointers to them and closed FIRST in the destructor, so every
  /// pending join continuation settles before anything is torn down.
  std::vector<std::unique_ptr<rpc::ExchangePort>> ports_;
  /// Metadata ring geometry in effect (replicas clamped to num_servers);
  /// meaningful only when meta_shards_ is non-empty.
  meta::MetaRingConfig meta_ring_;
  /// Per-server metadata partitions (empty without ServiceOptions::
  /// metadata).  Declared before servers_, which hold raw pointers into
  /// them, so the shards outlive every in-flight request.
  std::vector<std::unique_ptr<meta::MetaShard>> meta_shards_;
  std::vector<std::unique_ptr<server::QueryServer>> servers_;
  std::vector<std::unique_ptr<rpc::ServerRuntime>> runtimes_;
  rpc::Client client_;
  /// Client-assigned join ids, unique per service instance: epoch state on
  /// the exchange lane is keyed by (join_id, epoch).
  std::atomic<std::uint64_t> next_join_id_{1};

  /// Guards stats_ and dead_ — the service state mutated by concurrent
  /// client calls (QueryServer/RegionCache handle their own locking).
  mutable std::mutex state_mu_;
  OpStats stats_;
  std::shared_ptr<const obs::Trace> last_trace_;
  /// dead_[s]: server s exhausted its retries and is out of the rotation.
  std::vector<bool> dead_;
  /// Per-object monotonically increasing write sequence numbers (guarded
  /// by state_mu_): servers deduplicate on these, so a retried or rerouted
  /// write RPC applies exactly once.
  std::map<ObjectId, std::uint64_t> write_seq_;
  /// Per-vnode metadata update sequence numbers (guarded by state_mu_):
  /// every replica of a vnode sees the same seq, so retried kMetaUpdate
  /// RPCs apply exactly once on each.
  std::map<std::uint32_t, std::uint64_t> meta_seq_;
  /// Accumulated simulated shard time charged to each server by meta
  /// queries (guarded by state_mu_) — the load-aware replica selector
  /// picks the least-loaded alive replica of each vnode.
  std::vector<double> meta_load_;
};

}  // namespace pdc::query
