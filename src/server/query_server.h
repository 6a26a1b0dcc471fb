// One PDC server's query evaluation engine (paper §III-C, §III-D).
//
// A QueryServer owns the regions assigned to it (round-robin by region
// index), a region data cache, and evaluates queries through the
// composable RegionPipeline (region_pipeline.h): every strategy is an
// operator configuration over the same Source -> Pruner -> AccessPath ->
// Predicate -> Collector stages:
//   PDC-F  — fetch every assigned region (through the cache) and scan;
//   PDC-H  — histogram min/max pruning, fetch+scan only surviving regions,
//            all-hit regions short-circuit the scan;
//   PDC-HI — histogram pruning, then the region's WAH bitmap index: definite
//            hits cost no data read, boundary-bin candidates are checked via
//            aggregated point reads (the region data is NOT cached — the
//            reason get-data is slower with an index, Fig. 3/4);
//   PDC-SH — evaluate the driver condition on the sorted replica: interior
//            regions are all-hits, boundary regions are binary-searched, and
//            original positions come from one contiguous permutation read;
//   PDC-A  — adaptive: pick scan vs. index vs. all-hit PER REGION from the
//            region histogram's estimated selectivity (classify_region),
//            reporting the choice tally in the response.
//
// Conjuncts after the driver are evaluated only at the already-selected
// locations (paper's AND short-circuit), with per-region pruning.
// All expensive actions charge a CostLedger; the response carries the
// ledger summary so the client can compute max-over-servers elapsed time.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/cost_model.h"
#include "common/exec_pool.h"
#include "metadata/meta_shard.h"
#include "obj/object_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/read_aggregator.h"
#include "rpc/exchange.h"
#include "rpc/server_runtime.h"
#include "server/region_cache.h"
#include "server/region_pipeline.h"
#include "server/wire.h"

namespace pdc::server {

struct ServerOptions {
  ServerId id = 0;
  std::uint32_t num_servers = 1;
  /// Intra-server evaluation pool (shared across servers of a deployment;
  /// must outlive the server).  Null = serial region loops.  The region
  /// loops submit one task per region and join; per-task CostLedgers are
  /// combined with CostLedger::merge_parallel so simulated time reports
  /// max(critical task, work/threads) instead of sum-of-regions.
  exec::ThreadPool* pool = nullptr;
  /// Memory cap for cached region data (paper: 64 GB per server).
  std::uint64_t cache_capacity_bytes = 1ull << 30;
  /// Point-read coalescing for candidate checks / scattered get-data.
  pfs::AggregationPolicy aggregation;
  /// If a conjunct needs more than this fraction of a region's elements,
  /// fetch the whole region (and cache it) instead of point reads.  Also
  /// PDC-A's scan-vs-index crossover (see AdaptiveKnobs).
  double dense_read_threshold = 0.25;
  /// Deployment metrics registry (null = unmetered).  The server registers
  /// "server<id>.eval_requests" / ".getdata_requests" / ".bytes_read" /
  /// ".read_ops" counters and cache occupancy gauges, and answers the
  /// kMetrics RPC with a whole-registry snapshot.  Must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// Write path (kTransferWrite).  Null = read-only deployment: writes are
  /// rejected with FailedPrecondition.  When set it must reference the
  /// same store as the read path.
  obj::ObjectStore* mutable_store = nullptr;
  /// Fold a region's delta-WAH sidecar back into the base index (every
  /// region whose index lags is re-indexed) once it reaches this many
  /// entries.  0 disables compaction.
  std::uint64_t compact_threshold = 64;
  /// Fold the source's delta log into the sorted replica (a merge) once
  /// it reaches this many entries.  0 disables folds.
  std::uint64_t replica_rebuild_threshold = 4096;
  /// This server's endpoint on the exchange lane (server-to-server tuple
  /// shuffle for cross-object joins).  Null = single-server deployments
  /// only: a multi-participant kJoinEval is rejected with
  /// FailedPrecondition.  Must outlive the server.
  rpc::ExchangePort* exchange = nullptr;
  /// This server's metadata partition (distributed metadata service).
  /// Null = metadata-less deployment: kMetaQuery/kMetaUpdate are rejected
  /// with FailedPrecondition.  Must outlive the server.
  meta::MetaShard* meta_shard = nullptr;
};

class QueryServer {
 public:
  QueryServer(const obj::ObjectStore& store, ServerOptions options)
      : store_(store),
        options_(options),
        actor_("server" + std::to_string(options.id)),
        cache_(options.cache_capacity_bytes),
        // Bins are far smaller than region data: a quarter of the data
        // budget keeps every hot bin resident without competing with
        // region caching.
        index_cache_(options.cache_capacity_bytes / 4),
        pipeline_(RegionPipeline::Env{
            &store_, options_.pool, options_.id, options_.num_servers,
            options_.aggregation, options_.dense_read_threshold, &cache_,
            &index_cache_, &actor_}) {
    register_metrics();
  }

  /// RPC entry point: dispatch on request type and answer through `reply`.
  /// Every request type answers before handle() returns except kJoinEval,
  /// whose reply a continuation sends once the epoch's shuffle settles.
  /// An enabled `trace` (the runtime's "server.handle" context) makes the
  /// evaluation emit per-phase and per-region spans into it.
  void handle(std::span<const std::uint8_t> payload,
              const obs::TraceContext& trace, rpc::Reply reply);

  EvalResponse eval(const EvalRequest& request,
                    const obs::TraceContext& trace = {});
  GetDataResponse get_data(const GetDataRequest& request,
                           const obs::TraceContext& trace = {});
  /// kTransferWrite: append/overwrite one object's elements with
  /// incremental accelerator maintenance (delta-WAH sidecar, histogram
  /// merge, sorted-replica delta log) and threshold-driven compaction /
  /// replica rebuild.  Exactly-once via the request's write_seq.
  TransferWriteResponse transfer_write(const TransferWriteRequest& request,
                                       const obs::TraceContext& trace = {});
  /// kMetrics RPC: snapshot of the deployment registry (error status when
  /// the server was built without one).
  [[nodiscard]] MetricsResponse metrics_snapshot() const;
  /// kJoinEval: one epoch of a cross-object zone join, in two stages that
  /// never wait on another server.  Stage 1 (this call) produces candidate
  /// tuples for this server's identities, partitions them per the
  /// request's strategy and starts the exchange shuffle, then returns.
  /// Stage 2, a continuation the exchange port schedules once the epoch's
  /// bucket settles, sort-merge joins the owned zones (fanned over the
  /// pool) and answers `reply` — kUnavailable when the shuffle deadline
  /// passed.  A one-participant join runs stage 2 inline.  Exactly once
  /// per (join_id, epoch): a duplicate of an epoch still in flight is
  /// dropped (the original's reply answers the stable request id), one of
  /// a finished epoch gets the cached bytes.  Implemented in join_eval.cc.
  void join_eval(const JoinEvalRequest& request,
                 const obs::TraceContext& trace, rpc::Reply reply);
  /// kMetaQuery: evaluate metadata conjuncts over this server's vnode
  /// partition (FailedPrecondition without a shard, or when a listed vnode
  /// is not replicated here — never a silently truncated posting list).
  MetaQueryResponse meta_query(const MetaQueryRequest& request,
                               const obs::TraceContext& trace = {});
  /// kMetaUpdate: apply one replicated attribute-update batch exactly once
  /// (per-vnode seq dedup), bumping the vnode epoch.
  MetaUpdateResponse meta_update(const MetaUpdateRequest& request,
                                 const obs::TraceContext& trace = {});

  [[nodiscard]] const RegionCache& cache() const noexcept { return cache_; }
  [[nodiscard]] ServerId id() const noexcept { return options_.id; }

 private:
  /// One join epoch between its stages (join_eval.cc).
  struct PendingJoin;

  /// handle() for every request type but kJoinEval: the serialized answer.
  std::vector<std::uint8_t> respond(std::span<const std::uint8_t> payload,
                                    const obs::TraceContext& trace);

  /// Stage 2 entry, on the thread that settled the shuffle: hop to the
  /// pool (inline without one) and finish the join there.
  void continue_join(std::shared_ptr<PendingJoin> join,
                     rpc::ShuffleOutcome outcome);
  /// Stage 2: zone-group the held tuples, merge-join each owned zone, reply.
  void finish_join(PendingJoin& join, rpc::ShuffleOutcome outcome);
  /// Cache the epoch's answer, retire it from the in-flight set, send it.
  void reply_join(PendingJoin& join);

  /// Evaluate one AND-term while acting as server `identity` (normally our
  /// own id; a dead server's id in degraded mode); appends that identity's
  /// matching original-space positions (ascending) and, for sorted
  /// drivers, replica-space extents.
  /// `regions_evaluated` accumulates the number of driver regions iterated
  /// (one "region" span each when traced) and `counts` the per-region
  /// access-path choices, for the response/span accounting.
  Status eval_term(const AndTerm& term, const EvalRequest& request,
                   ServerId identity, CostLedger& ledger,
                   std::vector<std::uint64_t>& positions,
                   std::vector<Extent1D>& sorted_extents,
                   std::uint64_t& regions_evaluated,
                   RegionChoiceCounts& counts, const obs::TraceContext& trace);

  /// Values at ascending positions, cache-aware, into `out`.
  Status gather_values(const obj::ObjectDescriptor& object,
                       std::span<const std::uint64_t> positions,
                       std::span<std::uint8_t> out, CostLedger& ledger,
                       const obs::TraceContext& trace = {});

  /// Join candidate production: evaluate `filter` on `object` for every
  /// identity (pipeline run with locations), gather the matching values and
  /// append finite ones as (zone, value, pos) tuples.  Non-finite values
  /// are skipped — they can never satisfy |va - vb| <= eps, exactly as in
  /// the element-wise oracle.
  Status produce_join_candidates(ObjectId object_id,
                                 const ValueInterval& filter,
                                 Strategy eval_strategy,
                                 const std::vector<ServerId>& identities,
                                 double zone_height, CostLedger& ledger,
                                 std::vector<rpc::JoinTuple>& out,
                                 const obs::TraceContext& trace);

  /// Register this server's counters and cache gauges (no-op when the
  /// deployment is unmetered).
  void register_metrics();

  [[nodiscard]] pfs::ReadContext read_ctx(
      CostLedger& ledger, const obs::TraceContext& trace = {}) const {
    return {&ledger, options_.num_servers, trace};
  }

  const obj::ObjectStore& store_;
  ServerOptions options_;
  std::string actor_;  ///< span actor label ("server<id>")
  // Deployment metric instruments (null when unmetered); addresses are
  // stable for the registry's lifetime, so the hot path is one atomic add.
  obs::Counter* eval_requests_metric_ = nullptr;
  obs::Counter* getdata_requests_metric_ = nullptr;
  obs::Counter* bytes_read_metric_ = nullptr;
  obs::Counter* read_ops_metric_ = nullptr;
  obs::LatencyHistogram* eval_latency_metric_ = nullptr;
  obs::Counter* write_requests_metric_ = nullptr;
  obs::Counter* write_bytes_metric_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* replica_rebuilds_metric_ = nullptr;
  /// kJoinEval epochs whose stage 1 ran, and duplicates answered from the
  /// cache or dropped while their epoch was in flight.
  obs::Counter* join_requests_metric_ = nullptr;
  obs::Counter* join_duplicates_metric_ = nullptr;
  obs::Counter* meta_query_requests_metric_ = nullptr;
  obs::Counter* meta_update_requests_metric_ = nullptr;
  obs::Counter* meta_probes_metric_ = nullptr;
  RegionCache cache_;
  /// Serialized index bins stay resident once read (FastBit also caches
  /// bitmaps); keyed by (object, region*2048+bin).
  RegionCache index_cache_;
  /// Serialized kJoinEval responses by (join_id, epoch), bounded FIFO.  A
  /// bus-duplicated or client-retried join request for an epoch this server
  /// already answered must get the SAME bytes without re-running the
  /// shuffle (whose exchange bucket settled with the first answer).
  using JoinKey = std::pair<std::uint64_t, std::uint32_t>;
  std::mutex join_cache_mu_;
  std::vector<std::pair<JoinKey, std::vector<std::uint8_t>>> join_cache_;
  /// Epochs between stage 1 and their reply (guarded by join_cache_mu_):
  /// re-running stage 1 for a duplicate would consume the bucket twice.
  std::set<JoinKey> joins_in_flight_;
  /// The composable evaluation engine; holds references to the caches and
  /// options above (declared last so they are initialized first).
  RegionPipeline pipeline_;
};

}  // namespace pdc::server
