// Composable per-region evaluation pipeline (paper §III-C/D, refactored).
//
// Every strategy evaluates its driver conjunct as the same five-operator
// pipeline over the regions one server identity owns:
//
//   RegionSource --> Pruner --> AccessPath --> Predicate --> Collector
//   (assignment,     (histogram  (scan |        (interval     (ascending-run
//    cache/PFS       min/max,     WAH-bin probe  check)        merge + ledger
//    fetch policy)   all-hit      | sorted                     merge + span
//                    short-       boundary                     emission)
//                    circuit)     search)
//
// A strategy is a declarative `PipelineConfig` (see `pipeline_config`),
// not a separate code path: the region fan-out/join, per-task CostLedger
// merge, and span-emission boilerplate live in exactly one place
// (`RegionPipeline::fan_out_join`).  The access paths themselves are small
// operators reused across configs — PDC-A composes the scan and index
// paths region-by-region.
//
// Every position-producing access path emits its hits in ascending region
// order: each group (all-hit ranges, scanned regions, decoded definite
// hits, checked candidates) is one ascending run, and the Collector merges
// the runs linearly (`merge_ascending_runs`) instead of sorting them.
//
// `Strategy::kAdaptive` (PDC-A) picks an access path *per region* from the
// region histogram alone via `classify_region`, a pure function of
// (histogram, interval, knobs): prune if disjoint, all-hit if covered,
// else scan when the estimated selectivity crosses `dense_read_threshold`
// (dense regions are cheaper to stream than to probe bin-by-bin), index
// otherwise.  Choices are deterministic — same inputs, same choice vector.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cost_model.h"
#include "common/exec_pool.h"
#include "common/interval.h"
#include "common/status.h"
#include "common/types.h"
#include "histogram/histogram.h"
#include "obj/object_store.h"
#include "obs/trace.h"
#include "pfs/read_aggregator.h"
#include "server/region_cache.h"
#include "server/wire.h"

namespace pdc::server {

/// Per-region access-path decision.  `kPruned` covers every region that
/// contributes no work (histogram-disjoint or constrained away); only the
/// other three are reported in EvalResponse / OpStats.
enum class RegionChoice : std::uint8_t {
  kPruned = 0,  ///< histogram disjoint from the interval (or no overlap)
  kAllHit,      ///< histogram proves every element matches
  kScan,        ///< fetch the region and scan it
  kIndex,       ///< probe the region's WAH bitmap bins
};

/// Knobs `classify_region` depends on — nothing else, so the choice vector
/// is reproducible from (histogram, interval, knobs) alone.
struct AdaptiveKnobs {
  /// Estimated-selectivity crossover: at or above this fraction the region
  /// is streamed (scan); below it the bitmap index is probed.  Shares
  /// `ServerOptions::dense_read_threshold` semantics: the point where
  /// point-wise access stops beating a whole-region read.
  double dense_read_threshold = 0.25;
  /// False when the object has no bitmap index: everything not pruned or
  /// covered degenerates to scan.
  bool has_index = false;
};

/// PDC-A's per-region decision rule.  Pure and deterministic.
[[nodiscard]] RegionChoice classify_region(
    const hist::MergeableHistogram& histogram, const ValueInterval& interval,
    const AdaptiveKnobs& knobs) noexcept;

/// Per-region choice tally carried back in EvalResponse (all strategies
/// report it; for the fixed strategies it is degenerate by construction).
struct RegionChoiceCounts {
  std::uint64_t scanned = 0;
  std::uint64_t indexed = 0;
  std::uint64_t allhit = 0;
  /// Regions whose bitmap index lagged the data epoch and therefore fell
  /// back to scan (they also count under `scanned`).
  std::uint64_t stale = 0;
  /// Highest data epoch among the regions this evaluation visited; 1 on a
  /// never-written object.
  std::uint64_t max_data_epoch = 0;

  void tally(RegionChoice c) noexcept {
    switch (c) {
      case RegionChoice::kPruned: break;
      case RegionChoice::kAllHit: ++allhit; break;
      case RegionChoice::kScan: ++scanned; break;
      case RegionChoice::kIndex: ++indexed; break;
    }
  }
};

/// Which access-path operator the pipeline runs on surviving regions.
enum class AccessPathKind : std::uint8_t {
  kScan,            ///< fetch + linear scan (PDC-F / PDC-H)
  kIndexProbe,      ///< WAH bitmap bins: decode + candidate check (PDC-HI)
  kSortedBoundary,  ///< binary search on the sorted replica (PDC-SH)
  kAdaptive,        ///< per-region classify_region choice (PDC-A)
};

/// A strategy expressed as operator configuration.
struct PipelineConfig {
  AccessPathKind access = AccessPathKind::kScan;
  /// Pruner enabled: histogram min/max eliminates disjoint regions and
  /// covered regions short-circuit the predicate entirely.
  bool prune = false;
  /// All-hit regions still fetch (and cache) their data.  Only the plain
  /// scan path does this (PDC-H warms the cache for get-data); the index
  /// and sorted paths answer all-hit regions from metadata alone.
  bool all_hit_fetches = false;
  /// Phase span emitted around the driver evaluation.
  const char* phase_name = "phase.region_scan";
};

/// Strategy -> operator configuration.  `sorted_driver` selects the
/// replica boundary-search path for kSortedHistogram; without a replica it
/// degrades to the histogram scan config (same fallback as before).
[[nodiscard]] PipelineConfig pipeline_config(Strategy strategy,
                                             bool sorted_driver) noexcept;

/// Minimum work, in bytes scanned, decoded or checked, for a fan-out to
/// use the pool.  Below it a submit/wake/join round trip costs more than
/// the work itself, so the tasks run inline on the request's thread.
/// Simulated time is the same either way: the task ledgers still fold with
/// `merge_parallel` over the modeled cores.
inline constexpr std::uint64_t kFanOutGrainBytes = 16u << 10;

/// The evaluation pipeline of one QueryServer.  Owns no state beyond the
/// environment references; every `run`/`restrict` call is independent.
class RegionPipeline {
 public:
  /// Everything the operators need from the owning server.  All pointers
  /// are non-owning and must outlive the pipeline.
  struct Env {
    const obj::ObjectStore* store = nullptr;
    exec::ThreadPool* pool = nullptr;  ///< null = serial fan-out
    ServerId id = 0;
    std::uint32_t num_servers = 1;
    pfs::AggregationPolicy aggregation;
    double dense_read_threshold = 0.25;
    RegionCache* data_cache = nullptr;
    RegionCache* index_cache = nullptr;
    const std::string* actor = nullptr;  ///< span actor label
  };

  explicit RegionPipeline(const Env& env) : env_(env) {}

  /// Evaluate the driver conjunct over the regions `identity` owns.
  /// Appends ascending original-space positions (scan/index/adaptive) or
  /// replica-space extents (sorted boundary) and tallies the per-region
  /// access-path choices into `counts`.
  Status run(const obj::ObjectDescriptor& object,
             const ValueInterval& interval, Extent1D constraint,
             ServerId identity, const PipelineConfig& config,
             CostLedger& ledger, std::vector<std::uint64_t>& positions,
             std::vector<Extent1D>& extents, RegionChoiceCounts& counts,
             const obs::TraceContext& trace);

  /// Predicate operator applied at already-selected locations (the AND
  /// short-circuit): restrict ascending `positions` to those whose value
  /// in `object` satisfies `interval`.
  Status restrict(const obj::ObjectDescriptor& object,
                  const ValueInterval& interval, bool full_scan_mode,
                  CostLedger& ledger, std::vector<std::uint64_t>& positions,
                  const obs::TraceContext& trace);

  /// Collector: linear merge of ascending `runs` into `positions`
  /// (appended), under a "phase.collect" span.  A run that is not strictly
  /// ascending fails with Corruption.  Shared with the server's merge of
  /// per-identity and per-term hit lists.
  Status collect(std::span<const std::span<const std::uint64_t>> runs,
                 std::vector<std::uint64_t>& positions,
                 const obs::TraceContext& trace);

  /// RegionSource: region bytes through the data cache; `cacheable=false`
  /// bypasses insertion.  Shared with the server's get-data path.
  Result<RegionCache::Buffer> fetch_region(
      const obj::ObjectDescriptor& object, RegionIndex region,
      CostLedger& ledger, bool cacheable,
      const obs::TraceContext& trace = {});

  /// Modeled cores for parallel cost accounting.
  [[nodiscard]] std::uint32_t eval_threads() const noexcept {
    return env_.pool != nullptr ? env_.pool->size() : 1;
  }

 private:
  /// One bitmap bin selected by the planner for reading/decoding.
  struct PlannedBin {
    RegionIndex region;
    std::uint32_t bin;
    bool full;  ///< full bin: set bits are hits; else candidates
    RegionCache::Buffer cached;  ///< non-null: no read needed
    Extent1D extent;             ///< byte extent in the index file
  };

  /// One region assigned to the scan access path (dense under PDC-A, or
  /// an index-stale fallback under PDC-HI/PDC-A).
  struct ScanItem {
    RegionIndex region;
    Extent1D want;
  };

  /// Task body: fills its slot(s), charges `task_ledger`, annotates the
  /// already-open task span.  Returned status joins via fan_out_join.
  using TaskBody =
      std::function<Status(std::size_t, CostLedger&, obs::ScopedSpan&)>;
  /// Task body covering several work items, one ledger per item in item
  /// order (the per-region bin decode: one task, one ledger per bin).
  using GroupBody = std::function<Status(std::size_t, std::span<CostLedger>,
                                         obs::ScopedSpan&)>;

  /// THE region fan-out/join: one pool task per group of work items, task
  /// t covering items [item_ends[t-1], item_ends[t]).  Each task runs under
  /// its own `span_name` span annotated with worker/cost; statuses join,
  /// and the per-item ledgers fold in item order with
  /// CostLedger::merge_parallel so simulated time reports max(critical
  /// item, work/threads).  A fan-out whose `work_bytes` is below
  /// kFanOutGrainBytes runs inline.  Every parallel region loop in the
  /// server goes through here.
  Status fan_out_join(std::span<const std::size_t> item_ends,
                      std::uint64_t work_bytes,
                      const obs::TraceContext& phase, const char* span_name,
                      CostLedger& ledger, const GroupBody& body);
  /// One work item per task.
  Status fan_out_join(std::size_t tasks, std::uint64_t work_bytes,
                      const obs::TraceContext& phase, const char* span_name,
                      CostLedger& ledger, const TaskBody& body);

  // Access-path operators (driver evaluation).
  Status run_scan(const obj::ObjectDescriptor& object,
                  const ValueInterval& interval, Extent1D constraint,
                  const PipelineConfig& config, ServerId identity,
                  CostLedger& ledger, std::vector<std::uint64_t>& positions,
                  RegionChoiceCounts& counts, const obs::TraceContext& trace);
  Status run_index(const obj::ObjectDescriptor& object,
                   const ValueInterval& interval, Extent1D constraint,
                   ServerId identity, CostLedger& ledger,
                   std::vector<std::uint64_t>& positions,
                   RegionChoiceCounts& counts, const obs::TraceContext& trace);
  Status run_sorted(const obj::ObjectDescriptor& replica,
                    const ValueInterval& interval, ServerId identity,
                    CostLedger& ledger, std::vector<Extent1D>& extents,
                    RegionChoiceCounts& counts,
                    const obs::TraceContext& trace);
  Status run_adaptive(const obj::ObjectDescriptor& object,
                      const ValueInterval& interval, Extent1D constraint,
                      ServerId identity, CostLedger& ledger,
                      std::vector<std::uint64_t>& positions,
                      RegionChoiceCounts& counts,
                      const obs::TraceContext& trace);

  /// Fetch + scan a group of regions in parallel (the PDC-A dense group
  /// and the index paths' stale-region fallback share this); appends one
  /// ascending run.
  Status scan_group(const obj::ObjectDescriptor& object,
                    const ValueInterval& interval,
                    const std::vector<ScanItem>& items, CostLedger& ledger,
                    std::vector<std::uint64_t>& positions,
                    const obs::TraceContext& trace);
  /// The index group of run_index / run_adaptive: read the planned bins,
  /// decode them per region and check the candidates.  Appends the
  /// definite hits and the candidate survivors as two ascending runs.
  Status probe_index(const obj::ObjectDescriptor& object,
                     const ValueInterval& interval, Extent1D constraint,
                     std::vector<PlannedBin>& planned, CostLedger& ledger,
                     std::vector<std::uint64_t>& definite,
                     std::vector<std::uint64_t>& survivors,
                     const obs::TraceContext& trace);

  // Index-probe stages, shared by run_index and run_adaptive.
  /// Plan the bins of one surviving region (header parse + bin selection +
  /// index-cache lookup); annotates the region span with the bin count.
  Status plan_region_bins(const obj::ObjectDescriptor& object, RegionIndex r,
                          const ValueInterval& interval,
                          std::vector<PlannedBin>& planned,
                          obs::ScopedSpan& region_span);
  /// One aggregated read over the index file for every uncached planned
  /// bin; inserts the buffers into the index cache.
  Status read_missing_bins(const obj::ObjectDescriptor& object,
                           std::vector<PlannedBin>& planned,
                           CostLedger& ledger, const obs::TraceContext& trace);
  /// Decode planned bins, one task per region (its bins are consecutive
  /// in `planned`): the union of the region's full bins gives its definite
  /// hits, that of its boundary bins its candidates.  Both append in
  /// ascending order.
  Status decode_bins(const obj::ObjectDescriptor& object, Extent1D constraint,
                     std::vector<PlannedBin>& planned, CostLedger& ledger,
                     std::vector<std::uint64_t>& definite,
                     std::vector<std::uint64_t>& candidates,
                     const obs::TraceContext& trace);
  /// Check ascending candidate positions against the actual values
  /// (aggregated point reads); survivors append to `survivors`.
  Status check_candidates(const obj::ObjectDescriptor& object,
                          const ValueInterval& interval,
                          std::span<const std::uint64_t> candidates,
                          CostLedger& ledger,
                          std::vector<std::uint64_t>& survivors,
                          const obs::TraceContext& trace);

  /// Annotate a task span with the executing pool worker and the task
  /// ledgers' summed cost split; no-op when untraced.
  static void annotate_task_span(obs::ScopedSpan& span,
                                 std::span<const CostLedger> task_ledgers);

  [[nodiscard]] pfs::ReadContext read_ctx(
      CostLedger& ledger, const obs::TraceContext& trace = {}) const {
    return {&ledger, env_.num_servers, trace};
  }

  Env env_;
};

}  // namespace pdc::server
