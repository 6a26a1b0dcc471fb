#include "server/region_pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "bitmap/binned_index.h"
#include "bitmap/delta_wah.h"
#include "common/log.h"
#include "common/merge_runs.h"
#include "kernels/kernels.h"
#include "obj/type_dispatch.h"
#include "server/region_assignment.h"

namespace pdc::server {
namespace {

/// Tighter coalescing for bitmap-bin reads than for data reads: bins from
/// different regions must not be bridged by reading the unneeded bins
/// between them.
constexpr pfs::AggregationPolicy kIndexAggregation{
    .max_gap_bytes = 2048, .max_run_bytes = 64ull << 20};

/// Scan a region buffer for matches within the global element range
/// `want` (a sub-extent of `region_extent`); appends global positions.
void scan_buffer(PdcType type, const std::uint8_t* bytes,
                 Extent1D region_extent, Extent1D want,
                 const ValueInterval& interval,
                 std::vector<std::uint64_t>& out) {
  obj::dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    const T* values = reinterpret_cast<const T*>(bytes) +
                      (want.offset - region_extent.offset);
    kernels::scan_interval(std::span<const T>(values, want.count), interval,
                           want.offset, out);
  });
}

/// Append, ascending, the union of `bins` — bitmaps of one region whose
/// first element is `base`, disjoint value classes — clipped to `want`.
/// One bin expands straight into `out`; several are marked in a bitset
/// over `want` and emitted in position order, so the cost stays linear in
/// the hits (OR-ing the compressed bins pairwise grows with their count).
void append_union(std::span<const bitmap::WahBitVector> bins,
                  std::uint64_t base, Extent1D want,
                  std::vector<std::uint64_t>& out) {
  if (bins.size() == 1) {
    bins[0].append_set_positions(base, want.offset, want.end(), out);
    return;
  }
  if (bins.empty()) return;
  std::vector<std::uint64_t> words((want.count + 63) / 64, 0);
  std::vector<std::uint64_t> bin_hits;
  for (const bitmap::WahBitVector& bin : bins) {
    bin_hits.clear();
    bin.append_set_positions(base, want.offset, want.end(), bin_hits);
    for (const std::uint64_t p : bin_hits) {
      const std::uint64_t local = p - want.offset;
      words[local >> 6] |= std::uint64_t{1} << (local & 63);
    }
  }
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      out.push_back(want.offset + w * 64 +
                    static_cast<std::uint64_t>(std::countr_zero(bits)));
    }
  }
}

/// Append each position of ascending `group` whose value satisfies
/// `interval`.  The value of group[k] is element group[k] - region_offset
/// of `bytes` when `bytes` holds a whole region, or element k when it holds
/// the group's gathered values (`region_offset` = nullopt).  One type
/// dispatch per group, not per element.
void keep_matching(PdcType type, const std::uint8_t* bytes,
                   std::span<const std::uint64_t> group,
                   std::optional<std::uint64_t> region_offset,
                   const ValueInterval& interval,
                   std::vector<std::uint64_t>& kept) {
  obj::dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    const T* values = reinterpret_cast<const T*>(bytes);
    for (std::size_t k = 0; k < group.size(); ++k) {
      const T v = region_offset ? values[group[k] - *region_offset]
                                : values[k];
      if (interval.contains(static_cast<double>(v))) kept.push_back(group[k]);
    }
  });
}

/// Smallest T whose double value is >= b; nullopt when b exceeds every T.
/// The scan path compares (double)element against the double bound, so the
/// sorted path must search with a bound *rounded to the element domain in
/// the right direction* — a plain static_cast<T>(b) rounds to nearest and
/// silently moves the cutoff (e.g. (float)(1.0 + 1e-12) == 1.0f, flipping
/// whether elements equal to 1.0f pass a `> 1.0 + 1e-12` query).
template <typename T>
std::optional<T> smallest_key_geq(double b) {
  if constexpr (std::is_floating_point_v<T>) {
    T t = static_cast<T>(b);  // round-to-nearest
    if (static_cast<double>(t) < b) {
      t = std::nextafter(t, std::numeric_limits<T>::infinity());
    }
    return t;  // +inf is fine: it selects exactly the +inf elements
  } else {
    const double c = std::ceil(b);
    if (c > static_cast<double>(std::numeric_limits<T>::max())) {
      return std::nullopt;
    }
    if (c < static_cast<double>(std::numeric_limits<T>::lowest())) {
      return std::numeric_limits<T>::lowest();
    }
    return static_cast<T>(c);
  }
}

/// Largest T whose double value is <= b; nullopt when b is below every T.
template <typename T>
std::optional<T> largest_key_leq(double b) {
  if constexpr (std::is_floating_point_v<T>) {
    T t = static_cast<T>(b);
    if (static_cast<double>(t) > b) {
      t = std::nextafter(t, -std::numeric_limits<T>::infinity());
    }
    return t;
  } else {
    const double f = std::floor(b);
    if (f < static_cast<double>(std::numeric_limits<T>::lowest())) {
      return std::nullopt;
    }
    if (f > static_cast<double>(std::numeric_limits<T>::max())) {
      return std::numeric_limits<T>::max();
    }
    return static_cast<T>(f);
  }
}

/// Local [first, last) index range of values satisfying `interval` in a
/// sorted buffer of `count` elements.  Exact in the double domain: agrees
/// element-for-element with the scan path's contains((double)v) predicate.
std::pair<std::uint64_t, std::uint64_t> sorted_range(
    PdcType type, const std::uint8_t* bytes, std::uint64_t count,
    const ValueInterval& interval) {
  return obj::dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    const std::span<const T> values(reinterpret_cast<const T*>(bytes), count);
    std::uint64_t lo_idx = 0;
    if (std::isfinite(interval.lo)) {
      if (interval.lo_inclusive) {
        // First v with (double)v >= lo.  Every such v is >= the smallest
        // representable key >= lo (no T lives in (key_prev, lo)).
        const auto key = smallest_key_geq<T>(interval.lo);
        lo_idx = key ? kernels::lower_bound_index(values, *key) : count;
      } else {
        // First v with (double)v > lo: strictly past the largest key <= lo.
        const auto key = largest_key_leq<T>(interval.lo);
        lo_idx = key ? kernels::upper_bound_index(values, *key) : 0;
      }
    }
    std::uint64_t hi_idx = count;
    if (std::isfinite(interval.hi)) {
      if (interval.hi_inclusive) {
        const auto key = largest_key_leq<T>(interval.hi);
        hi_idx = key ? kernels::upper_bound_index(values, *key) : 0;
      } else {
        const auto key = smallest_key_geq<T>(interval.hi);
        hi_idx = key ? kernels::lower_bound_index(values, *key) : count;
      }
    }
    if (hi_idx < lo_idx) hi_idx = lo_idx;
    return std::pair<std::uint64_t, std::uint64_t>(lo_idx, hi_idx);
  });
}

}  // namespace

RegionChoice classify_region(const hist::MergeableHistogram& histogram,
                             const ValueInterval& interval,
                             const AdaptiveKnobs& knobs) noexcept {
  if (!histogram.may_overlap(interval)) return RegionChoice::kPruned;
  if (histogram.covers(interval)) return RegionChoice::kAllHit;
  if (!knobs.has_index) return RegionChoice::kScan;
  // Dense regions: streaming the region costs one sequential read and a
  // scan; probing would decode most bins AND point-read many candidates.
  // Sparse regions: the index touches only the few relevant bins.
  const double selectivity =
      histogram.estimate(interval).selectivity_mid(histogram.total_count());
  return selectivity >= knobs.dense_read_threshold ? RegionChoice::kScan
                                                   : RegionChoice::kIndex;
}

PipelineConfig pipeline_config(Strategy strategy, bool sorted_driver) noexcept {
  switch (strategy) {
    case Strategy::kFullScan:
      return {AccessPathKind::kScan, /*prune=*/false,
              /*all_hit_fetches=*/false, "phase.region_scan"};
    case Strategy::kHistogram:
      return {AccessPathKind::kScan, /*prune=*/true,
              /*all_hit_fetches=*/true, "phase.histogram_prune"};
    case Strategy::kHistogramIndex:
      return {AccessPathKind::kIndexProbe, /*prune=*/true,
              /*all_hit_fetches=*/false, "phase.histogram_prune"};
    case Strategy::kSortedHistogram:
      if (sorted_driver) {
        return {AccessPathKind::kSortedBoundary, /*prune=*/true,
                /*all_hit_fetches=*/false, "phase.sorted_boundary"};
      }
      // No replica available: degrade to the histogram scan config.
      return {AccessPathKind::kScan, /*prune=*/true,
              /*all_hit_fetches=*/true, "phase.histogram_prune"};
    case Strategy::kAdaptive:
      return {AccessPathKind::kAdaptive, /*prune=*/true,
              /*all_hit_fetches=*/false, "phase.adaptive_plan"};
  }
  return {};
}

void RegionPipeline::annotate_task_span(
    obs::ScopedSpan& span, std::span<const CostLedger> task_ledgers) {
  if (span.id() == 0) return;
  const exec::TaskInfo task = exec::current_task();
  if (task.in_task) {
    span.arg("worker", static_cast<double>(
                           static_cast<std::int64_t>(task.worker)));
    span.arg("stolen", task.stolen ? 1.0 : 0.0);
  }
  double io_s = 0.0;
  double cpu_s = 0.0;
  for (const CostLedger& l : task_ledgers) {
    io_s += l.io_seconds();
    cpu_s += l.cpu_seconds();
  }
  span.arg("io_s", io_s);
  span.arg("cpu_s", cpu_s);
}

Status RegionPipeline::fan_out_join(std::span<const std::size_t> item_ends,
                                    std::uint64_t work_bytes,
                                    const obs::TraceContext& phase,
                                    const char* span_name, CostLedger& ledger,
                                    const GroupBody& body) {
  const std::size_t tasks = item_ends.size();
  std::vector<Status> statuses(tasks);
  std::vector<CostLedger> ledgers(tasks == 0 ? 0 : item_ends.back());
  exec::ThreadPool* pool = work_bytes < kFanOutGrainBytes ? nullptr : env_.pool;
  exec::parallel_for(pool, tasks, [&](std::size_t t) {
    const std::size_t first = t == 0 ? 0 : item_ends[t - 1];
    const std::span<CostLedger> mine(ledgers.data() + first,
                                     item_ends[t] - first);
    obs::ScopedSpan task_span(phase, span_name, *env_.actor);
    statuses[t] = body(t, mine, task_span);
    annotate_task_span(task_span, mine);
  });
  for (const Status& s : statuses) PDC_RETURN_IF_ERROR(s);
  ledger.merge_parallel(ledgers, eval_threads());
  return Status::Ok();
}

Status RegionPipeline::fan_out_join(std::size_t tasks,
                                    std::uint64_t work_bytes,
                                    const obs::TraceContext& phase,
                                    const char* span_name, CostLedger& ledger,
                                    const TaskBody& body) {
  std::vector<std::size_t> item_ends(tasks);
  std::iota(item_ends.begin(), item_ends.end(), std::size_t{1});
  return fan_out_join(
      item_ends, work_bytes, phase, span_name, ledger,
      [&](std::size_t t, std::span<CostLedger> task_ledger,
          obs::ScopedSpan& span) { return body(t, task_ledger[0], span); });
}

Status RegionPipeline::collect(
    std::span<const std::span<const std::uint64_t>> runs,
    std::vector<std::uint64_t>& positions, const obs::TraceContext& trace) {
  obs::ScopedSpan span(trace, "phase.collect", *env_.actor);
  std::vector<std::uint64_t> merged;
  PDC_RETURN_IF_ERROR(merge_ascending_runs(runs, merged));
  span.arg("positions", static_cast<double>(merged.size()));
  if (positions.empty()) {
    positions = std::move(merged);
  } else {
    positions.insert(positions.end(), merged.begin(), merged.end());
  }
  return Status::Ok();
}

Status RegionPipeline::run(const obj::ObjectDescriptor& object,
                           const ValueInterval& interval, Extent1D constraint,
                           ServerId identity, const PipelineConfig& config,
                           CostLedger& ledger,
                           std::vector<std::uint64_t>& positions,
                           std::vector<Extent1D>& extents,
                           RegionChoiceCounts& counts,
                           const obs::TraceContext& trace) {
  // Staleness accounting: the response reports the highest data epoch this
  // evaluation saw, so clients can tell which snapshot answered them.
  for (const RegionIndex r :
       regions_of_server(object, identity, env_.num_servers)) {
    counts.max_data_epoch =
        std::max(counts.max_data_epoch, object.regions[r].data_epoch);
  }
  switch (config.access) {
    case AccessPathKind::kScan:
      return run_scan(object, interval, constraint, config, identity, ledger,
                      positions, counts, trace);
    case AccessPathKind::kIndexProbe:
      return run_index(object, interval, constraint, identity, ledger,
                       positions, counts, trace);
    case AccessPathKind::kSortedBoundary:
      return run_sorted(object, interval, identity, ledger, extents, counts,
                        trace);
    case AccessPathKind::kAdaptive:
      return run_adaptive(object, interval, constraint, identity, ledger,
                          positions, counts, trace);
  }
  return Status::InvalidArgument("unknown access path");
}

Status RegionPipeline::run_scan(const obj::ObjectDescriptor& object,
                                const ValueInterval& interval,
                                Extent1D constraint,
                                const PipelineConfig& config,
                                ServerId identity, CostLedger& ledger,
                                std::vector<std::uint64_t>& positions,
                                RegionChoiceCounts& /*counts*/,
                                const obs::TraceContext& trace) {
  const CostModel& cost = env_.store->cluster().config().cost;
  const bool prune = config.prune;
  const std::vector<RegionIndex> regions =
      regions_of_server(object, identity, env_.num_servers);
  obs::ScopedSpan phase(trace, config.phase_name, *env_.actor);
  phase.arg("regions", static_cast<double>(regions.size()));
  phase.arg("identity", static_cast<double>(identity));
  // One pool task per region (fetch through the cache + scan).  Each task
  // fills its own slot, so concatenating slots in region-index order below
  // reproduces the serial loop bit-exactly: per-region hit lists are
  // ascending and region extents are disjoint ascending.
  std::uint64_t work_bytes = 0;
  for (const RegionIndex r : regions) {
    work_bytes += object.regions[r].extent.count * object.element_size();
  }
  std::vector<std::vector<std::uint64_t>> hits(regions.size());
  PDC_RETURN_IF_ERROR(fan_out_join(
      regions.size(), work_bytes, phase.context(), "region", ledger,
      [&](std::size_t i, CostLedger& task_ledger,
          obs::ScopedSpan& region_span) -> Status {
        region_span.arg("region", static_cast<double>(regions[i]));
        const RegionIndex r = regions[i];
        const obj::RegionDescriptor& region = object.regions[r];
        Extent1D want = region.extent;
        if (constraint.count > 0) {
          want = want.intersect(constraint);
          if (want.empty()) return Status::Ok();
        }
        if (prune && !region.histogram.may_overlap(interval)) {
          region_span.arg("pruned", 1.0);
          return Status::Ok();  // eliminated by min/max — no I/O at all
        }
        const bool all_hits = prune && region.histogram.covers(interval);
        // Fetch through the cache (populates it for later queries/get-data).
        PDC_ASSIGN_OR_RETURN(
            RegionCache::Buffer buffer,
            fetch_region(object, r, task_ledger, /*cacheable=*/true,
                         region_span.context()));
        if (all_hits) {
          region_span.arg("all_hits", 1.0);
          // Histogram proves every element matches: skip the scan.
          kernels::append_range(hits[i], want.offset, want.end());
          return Status::Ok();
        }
        task_ledger.add_cpu(
            cost.scan_cost(want.count * object.element_size()),
            CpuStage::kScan);
        scan_buffer(object.type, buffer->data(), region.extent, want,
                    interval, hits[i]);
        return Status::Ok();
      }));
  for (const std::vector<std::uint64_t>& h : hits) {
    positions.insert(positions.end(), h.begin(), h.end());
  }
  return Status::Ok();
}

Status RegionPipeline::scan_group(const obj::ObjectDescriptor& object,
                                  const ValueInterval& interval,
                                  const std::vector<ScanItem>& items,
                                  CostLedger& ledger,
                                  std::vector<std::uint64_t>& positions,
                                  const obs::TraceContext& trace) {
  const CostModel& cost = env_.store->cluster().config().cost;
  obs::ScopedSpan scan_phase(trace, "phase.region_scan", *env_.actor);
  scan_phase.arg("regions", static_cast<double>(items.size()));
  std::uint64_t work_bytes = 0;
  for (const ScanItem& item : items) {
    work_bytes += item.want.count * object.element_size();
  }
  std::vector<std::vector<std::uint64_t>> hits(items.size());
  PDC_RETURN_IF_ERROR(fan_out_join(
      items.size(), work_bytes, scan_phase.context(), "region_fetch", ledger,
      [&](std::size_t i, CostLedger& task_ledger,
          obs::ScopedSpan& region_span) -> Status {
        region_span.arg("region", static_cast<double>(items[i].region));
        const obj::RegionDescriptor& region = object.regions[items[i].region];
        const Extent1D want = items[i].want;
        PDC_ASSIGN_OR_RETURN(
            RegionCache::Buffer buffer,
            fetch_region(object, items[i].region, task_ledger,
                         /*cacheable=*/true, region_span.context()));
        task_ledger.add_cpu(
            cost.scan_cost(want.count * object.element_size()),
            CpuStage::kScan);
        scan_buffer(object.type, buffer->data(), region.extent, want,
                    interval, hits[i]);
        return Status::Ok();
      }));
  for (const std::vector<std::uint64_t>& h : hits) {
    positions.insert(positions.end(), h.begin(), h.end());
  }
  return Status::Ok();
}

Status RegionPipeline::plan_region_bins(const obj::ObjectDescriptor& object,
                                        RegionIndex r,
                                        const ValueInterval& interval,
                                        std::vector<PlannedBin>& planned,
                                        obs::ScopedSpan& region_span) {
  const obj::RegionDescriptor& region = object.regions[r];
  PDC_ASSIGN_OR_RETURN(
      bitmap::PartitionedIndexView view,
      bitmap::PartitionedIndexView::ParseHeader(region.index_header));
  const auto selection = view.select_bins(interval);
  std::vector<std::pair<std::uint32_t, bool>> bins;
  bins.reserve(selection.full.size() + selection.partial.size());
  for (const std::uint32_t b : selection.full) bins.emplace_back(b, true);
  for (const std::uint32_t b : selection.partial) {
    bins.emplace_back(b, false);
  }
  std::sort(bins.begin(), bins.end());
  region_span.arg("bins", static_cast<double>(bins.size()));
  for (const auto& [b, full] : bins) {
    Extent1D e = view.bin_extent(b);
    e.offset += region.index_offset;
    // Previously-read bins are served from the server's index cache; an
    // entry cached under an older index epoch (pre-compaction) misses.
    const RegionCache::Key key{object.id,
                               static_cast<RegionIndex>(r * 2048 + b)};
    planned.push_back(
        {r, b, full, env_.index_cache->get(key, region.index_epoch), e});
  }
  return Status::Ok();
}

Status RegionPipeline::read_missing_bins(const obj::ObjectDescriptor& object,
                                         std::vector<PlannedBin>& planned,
                                         CostLedger& ledger,
                                         const obs::TraceContext& trace) {
  std::vector<Extent1D> missing_extents;
  std::vector<std::size_t> missing_index;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    if (planned[i].cached == nullptr) {
      missing_extents.push_back(planned[i].extent);
      missing_index.push_back(i);
    }
  }
  if (missing_extents.empty()) return Status::Ok();
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile index_file,
                       env_.store->cluster().open(object.index_file));
  std::vector<std::shared_ptr<std::vector<std::uint8_t>>> buffers;
  std::vector<std::span<std::uint8_t>> dests;
  buffers.reserve(missing_extents.size());
  for (const Extent1D& e : missing_extents) {
    buffers.push_back(std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(e.count)));
    dests.emplace_back(*buffers.back());
  }
  PDC_RETURN_IF_ERROR(pfs::aggregated_read(index_file, missing_extents, dests,
                                           kIndexAggregation,
                                           read_ctx(ledger, trace)));
  for (std::size_t k = 0; k < missing_index.size(); ++k) {
    PlannedBin& p = planned[missing_index[k]];
    p.cached = buffers[k];
    env_.index_cache->put(
        {object.id, static_cast<RegionIndex>(p.region * 2048 + p.bin)},
        buffers[k], object.regions[p.region].index_epoch);
  }
  return Status::Ok();
}

Status RegionPipeline::decode_bins(const obj::ObjectDescriptor& object,
                                   Extent1D constraint,
                                   std::vector<PlannedBin>& planned,
                                   CostLedger& ledger,
                                   std::vector<std::uint64_t>& definite,
                                   std::vector<std::uint64_t>& candidates,
                                   const obs::TraceContext& trace) {
  const CostModel& cost = env_.store->cluster().config().cost;
  // One task per region, one ledger per bin.  A region's bins are disjoint
  // value classes, so their union comes out in ascending order; regions
  // are planned in ascending order, so concatenating the per-region slots
  // keeps both lists ascending.
  std::vector<std::size_t> region_ends;
  std::uint64_t bin_bytes = 0;
  for (std::size_t i = 0; i < planned.size(); ++i) {
    bin_bytes += planned[i].cached->size();
    if (i + 1 == planned.size() || planned[i + 1].region != planned[i].region) {
      region_ends.push_back(i + 1);
    }
  }
  std::vector<std::vector<std::uint64_t>> region_definite(region_ends.size());
  std::vector<std::vector<std::uint64_t>> region_candidates(
      region_ends.size());
  PDC_RETURN_IF_ERROR(fan_out_join(
      region_ends, bin_bytes, trace, "region_decode", ledger,
      [&](std::size_t t, std::span<CostLedger> bin_ledgers,
          obs::ScopedSpan& region_span) -> Status {
        const std::size_t first = t == 0 ? 0 : region_ends[t - 1];
        const RegionIndex r = planned[first].region;
        const obj::RegionDescriptor& region = object.regions[r];
        region_span.arg("region", static_cast<double>(r));
        region_span.arg("bins", static_cast<double>(bin_ledgers.size()));
        std::vector<std::uint64_t> dirty;
        if (!region.delta.empty()) dirty = region.delta.dirty_positions();
        std::vector<bitmap::WahBitVector> full_bins;
        std::vector<bitmap::WahBitVector> partial_bins;
        for (std::size_t k = 0; k < bin_ledgers.size(); ++k) {
          const PlannedBin& bin = planned[first + k];
          CostLedger& bin_ledger = bin_ledgers[k];
          PDC_ASSIGN_OR_RETURN(
              bitmap::WahBitVector bv,
              bitmap::PartitionedIndexView::DecodeBin(*bin.cached));
          bin_ledger.add_cpu(static_cast<double>(bin.cached->size()) /
                                 cost.index_decode_bandwidth_bps,
                             CpuStage::kDecode);
          if (!region.delta.empty()) {
            // Overwritten positions: mask the base bitmap's dirty bits and
            // add the delta bits of positions whose current value is in
            // this bin.  Delta-absorbed values are strictly bin-interior
            // (see delta_bin_of), so full-bin "definite hit" semantics
            // still hold.
            PDC_ASSIGN_OR_RETURN(
                bv, bitmap::combine_base_delta(
                        bv, dirty, region.delta.bin_positions(bin.bin)));
            bin_ledger.add_cpu(
                static_cast<double>(region.delta.entries.size() * 8) /
                    cost.index_decode_bandwidth_bps,
                CpuStage::kDecode);
          }
          (bin.full ? full_bins : partial_bins).push_back(std::move(bv));
        }
        Extent1D want = region.extent;
        if (constraint.count > 0) want = want.intersect(constraint);
        append_union(full_bins, region.extent.offset, want,
                     region_definite[t]);
        append_union(partial_bins, region.extent.offset, want,
                     region_candidates[t]);
        return Status::Ok();
      }));
  for (std::size_t t = 0; t < region_ends.size(); ++t) {
    definite.insert(definite.end(), region_definite[t].begin(),
                    region_definite[t].end());
    candidates.insert(candidates.end(), region_candidates[t].begin(),
                      region_candidates[t].end());
  }
  return Status::Ok();
}

Status RegionPipeline::check_candidates(
    const obj::ObjectDescriptor& object, const ValueInterval& interval,
    std::span<const std::uint64_t> candidates, CostLedger& ledger,
    std::vector<std::uint64_t>& survivors, const obs::TraceContext& trace) {
  const CostModel& cost = env_.store->cluster().config().cost;
  obs::ScopedSpan check_phase(trace, "phase.candidate_check", *env_.actor);
  check_phase.arg("candidates", static_cast<double>(candidates.size()));
  // Candidate values are fetched with the wide-gap policy: merging nearby
  // candidates into one larger read costs extra bytes but far fewer op
  // latencies (the block-read philosophy of §III-E).
  std::vector<std::uint8_t> values(candidates.size() * object.element_size());
  PDC_RETURN_IF_ERROR(
      env_.store->read_values_at(object, candidates, values, env_.aggregation,
                                 read_ctx(ledger, check_phase.context())));
  ledger.add_cpu(cost.scan_cost(values.size()), CpuStage::kScan);
  keep_matching(object.type, values.data(), candidates, std::nullopt, interval,
                survivors);
  return Status::Ok();
}

Status RegionPipeline::probe_index(const obj::ObjectDescriptor& object,
                                   const ValueInterval& interval,
                                   Extent1D constraint,
                                   std::vector<PlannedBin>& planned,
                                   CostLedger& ledger,
                                   std::vector<std::uint64_t>& definite,
                                   std::vector<std::uint64_t>& survivors,
                                   const obs::TraceContext& trace) {
  obs::ScopedSpan decode_phase(trace, "phase.bin_decode", *env_.actor);
  decode_phase.arg("bins", static_cast<double>(planned.size()));
  // Read the uncached bins in one aggregated pass, then decode.
  PDC_RETURN_IF_ERROR(
      read_missing_bins(object, planned, ledger, decode_phase.context()));
  std::vector<std::uint64_t> candidates;
  PDC_RETURN_IF_ERROR(decode_bins(object, constraint, planned, ledger,
                                  definite, candidates,
                                  decode_phase.context()));
  log_debug("server ", env_.id, ": obj ", object.id, " bins=", planned.size(),
            " definite=", definite.size(), " candidates=", candidates.size());
  decode_phase.close();
  if (candidates.empty()) return Status::Ok();
  return check_candidates(object, interval, candidates, ledger, survivors,
                          trace);
}

Status RegionPipeline::run_index(const obj::ObjectDescriptor& object,
                                 const ValueInterval& interval,
                                 Extent1D constraint, ServerId identity,
                                 CostLedger& ledger,
                                 std::vector<std::uint64_t>& positions,
                                 RegionChoiceCounts& counts,
                                 const obs::TraceContext& trace) {
  if (object.index_file.empty()) {
    return Status::FailedPrecondition("object has no bitmap index: " +
                                      object.name);
  }

  // Pass 1 — plan.  Index headers (bin edges + sizes) travel with region
  // metadata, so classifying bins needs no storage round trip.  Collect the
  // byte extents of every needed bin across ALL surviving regions, then
  // issue one aggregated read over the index file.
  std::vector<PlannedBin> planned;
  std::vector<ScanItem> stale_items;
  std::vector<std::uint64_t> all_hits;
  obs::ScopedSpan prune_phase(trace, "phase.histogram_prune", *env_.actor);
  for (const RegionIndex r :
       regions_of_server(object, identity, env_.num_servers)) {
    obs::ScopedSpan region_span(prune_phase.context(), "region", *env_.actor);
    region_span.arg("region", static_cast<double>(r));
    const obj::RegionDescriptor& region = object.regions[r];
    Extent1D want = region.extent;
    if (constraint.count > 0) {
      want = want.intersect(constraint);
      if (want.empty()) continue;
    }
    if (!region.histogram.may_overlap(interval)) {
      region_span.arg("pruned", 1.0);
      continue;
    }
    if (region.histogram.covers(interval)) {
      region_span.arg("all_hits", 1.0);
      // Histogram proves the whole region matches: no index I/O needed.
      // (Histograms are maintained on every write, so this stays sound
      // even when the region's bitmap index is stale.)
      kernels::append_range(all_hits, want.offset, want.end());
      continue;
    }
    if (!region.index_fresh()) {
      // The bitmap index lags the region's data (append / missed
      // maintenance / unsafe delta): fall back to fetch+scan for this
      // region only; fresh regions still probe their bins.
      region_span.arg("stale", 1.0);
      ++counts.stale;
      ++counts.scanned;
      stale_items.push_back({r, want});
      continue;
    }
    PDC_RETURN_IF_ERROR(
        plan_region_bins(object, r, interval, planned, region_span));
  }
  prune_phase.arg("planned_bins", static_cast<double>(planned.size()));
  prune_phase.arg("stale_regions", static_cast<double>(stale_items.size()));
  prune_phase.close();

  std::vector<std::uint64_t> scanned;
  if (!stale_items.empty()) {
    PDC_RETURN_IF_ERROR(
        scan_group(object, interval, stale_items, ledger, scanned, trace));
  }
  std::vector<std::uint64_t> definite;
  std::vector<std::uint64_t> survivors;
  if (!planned.empty()) {
    PDC_RETURN_IF_ERROR(probe_index(object, interval, constraint, planned,
                                    ledger, definite, survivors, trace));
  }
  // Collector: each group is ascending, the groups interleave in region
  // space.
  const std::span<const std::uint64_t> runs[] = {all_hits, scanned, definite,
                                                 survivors};
  return collect(runs, positions, trace);
}

Status RegionPipeline::run_sorted(const obj::ObjectDescriptor& replica,
                                  const ValueInterval& interval,
                                  ServerId identity, CostLedger& ledger,
                                  std::vector<Extent1D>& extents,
                                  RegionChoiceCounts& /*counts*/,
                                  const obs::TraceContext& trace) {
  const CostModel& cost = env_.store->cluster().config().cost;
  const std::vector<RegionIndex> regions =
      regions_of_server(replica, identity, env_.num_servers);
  obs::ScopedSpan phase(trace, "phase.sorted_boundary", *env_.actor);
  phase.arg("regions", static_cast<double>(regions.size()));
  phase.arg("identity", static_cast<double>(identity));
  // Boundary regions fetch + binary-search in parallel; the extent list is
  // then assembled serially in region-index order so cross-region
  // coalescing sees the same adjacency as the serial loop.
  std::vector<Extent1D> found(regions.size());  // count == 0: no hit
  // Only boundary regions (overlapped, not covered) fetch and search.
  std::uint64_t work_bytes = 0;
  for (const RegionIndex r : regions) {
    const obj::RegionDescriptor& region = replica.regions[r];
    if (region.histogram.may_overlap(interval) &&
        !region.histogram.covers(interval)) {
      work_bytes += region.extent.count * replica.element_size();
    }
  }
  PDC_RETURN_IF_ERROR(fan_out_join(
      regions.size(), work_bytes, phase.context(), "region", ledger,
      [&](std::size_t i, CostLedger& task_ledger,
          obs::ScopedSpan& region_span) -> Status {
        region_span.arg("region", static_cast<double>(regions[i]));
        const RegionIndex r = regions[i];
        const obj::RegionDescriptor& region = replica.regions[r];
        if (!region.histogram.may_overlap(interval)) {
          region_span.arg("pruned", 1.0);
          return Status::Ok();
        }
        if (region.histogram.covers(interval)) {
          region_span.arg("all_hits", 1.0);
          found[i] = region.extent;  // interior region: all elements match
          return Status::Ok();
        }
        // Boundary region: fetch (cached) and binary-search the range.
        PDC_ASSIGN_OR_RETURN(
            RegionCache::Buffer buffer,
            fetch_region(replica, r, task_ledger, /*cacheable=*/true,
                         region_span.context()));
        const auto [lo, hi] = sorted_range(replica.type, buffer->data(),
                                           region.extent.count, interval);
        // Binary search touches O(log n) elements.
        task_ledger.add_cpu(
            cost.scan_cost(
                2 * 64 * replica.element_size() *
                static_cast<std::uint64_t>(
                    std::ceil(std::log2(static_cast<double>(
                        std::max<std::uint64_t>(2, region.extent.count)))))),
            CpuStage::kScan);
        if (hi > lo) found[i] = {region.extent.offset + lo, hi - lo};
        return Status::Ok();
      }));
  for (const Extent1D& hit : found) {
    if (hit.count == 0) continue;
    // Coalesce extents adjacent across region boundaries.
    if (!extents.empty() && extents.back().end() == hit.offset) {
      extents.back().count += hit.count;
    } else {
      extents.push_back(hit);
    }
  }
  return Status::Ok();
}

Status RegionPipeline::run_adaptive(const obj::ObjectDescriptor& object,
                                    const ValueInterval& interval,
                                    Extent1D constraint, ServerId identity,
                                    CostLedger& ledger,
                                    std::vector<std::uint64_t>& positions,
                                    RegionChoiceCounts& counts,
                                    const obs::TraceContext& trace) {
  const AdaptiveKnobs knobs{env_.dense_read_threshold,
                            !object.index_file.empty()};
  const std::vector<RegionIndex> regions =
      regions_of_server(object, identity, env_.num_servers);

  // Plan — classify every region from its histogram (serial: pure metadata
  // work, one "region" span per region like the other strategies).
  std::vector<ScanItem> scan_items;
  std::vector<PlannedBin> planned;
  std::vector<std::uint64_t> all_hits;
  obs::ScopedSpan plan_phase(trace, "phase.adaptive_plan", *env_.actor);
  plan_phase.arg("regions", static_cast<double>(regions.size()));
  plan_phase.arg("identity", static_cast<double>(identity));
  for (const RegionIndex r : regions) {
    obs::ScopedSpan region_span(plan_phase.context(), "region", *env_.actor);
    region_span.arg("region", static_cast<double>(r));
    const obj::RegionDescriptor& region = object.regions[r];
    Extent1D want = region.extent;
    if (constraint.count > 0) {
      want = want.intersect(constraint);
      if (want.empty()) continue;
    }
    RegionChoice c = classify_region(region.histogram, interval, knobs);
    if (c == RegionChoice::kIndex && !region.index_fresh()) {
      // The region's base+delta index lags its data epoch (append, missed
      // maintenance window, or unsafe delta assignment): scan instead.
      c = RegionChoice::kScan;
      ++counts.stale;
      region_span.arg("stale", 1.0);
    }
    counts.tally(c);
    switch (c) {
      case RegionChoice::kPruned:
        region_span.arg("pruned", 1.0);
        break;
      case RegionChoice::kAllHit:
        region_span.arg("all_hits", 1.0);
        // Answered from metadata alone (like the index path): no I/O.
        kernels::append_range(all_hits, want.offset, want.end());
        break;
      case RegionChoice::kScan:
        region_span.arg("scan", 1.0);
        scan_items.push_back({r, want});
        break;
      case RegionChoice::kIndex:
        PDC_RETURN_IF_ERROR(
            plan_region_bins(object, r, interval, planned, region_span));
        break;
    }
  }
  plan_phase.arg("scanned", static_cast<double>(scan_items.size()));
  plan_phase.arg("indexed", static_cast<double>(counts.indexed));
  plan_phase.arg("allhit", static_cast<double>(counts.allhit));
  plan_phase.arg("planned_bins", static_cast<double>(planned.size()));
  plan_phase.close();

  // Scan group: dense (or index-stale) regions stream through the cache
  // like PDC-H.
  std::vector<std::uint64_t> scanned;
  if (!scan_items.empty()) {
    PDC_RETURN_IF_ERROR(
        scan_group(object, interval, scan_items, ledger, scanned, trace));
  }

  // Index group: sparse regions probe their WAH bins like PDC-HI.
  std::vector<std::uint64_t> definite;
  std::vector<std::uint64_t> survivors;
  if (!planned.empty()) {
    PDC_RETURN_IF_ERROR(probe_index(object, interval, constraint, planned,
                                    ledger, definite, survivors, trace));
  }

  // Collector: the groups interleave in region space; each is ascending.
  const std::span<const std::uint64_t> runs[] = {all_hits, scanned, definite,
                                                 survivors};
  return collect(runs, positions, trace);
}

Status RegionPipeline::restrict(const obj::ObjectDescriptor& object,
                                const ValueInterval& interval,
                                bool full_scan_mode, CostLedger& ledger,
                                std::vector<std::uint64_t>& positions,
                                const obs::TraceContext& trace) {
  obs::ScopedSpan phase(trace, "phase.restrict", *env_.actor);
  phase.arg("object", static_cast<double>(object.id));
  phase.arg("positions_in", static_cast<double>(positions.size()));
  const CostModel& cost = env_.store->cluster().config().cost;
  const std::size_t elem_size = object.element_size();

  // Split the ascending position list into per-region groups serially
  // (one binary search on the region's end per group), then check the
  // groups in parallel.  Groups are disjoint ascending, so concatenating
  // the per-group keep lists in group order reproduces the serial result
  // bit-exactly.
  struct Group {
    std::size_t begin;
    std::size_t end;
    RegionIndex region;
  };
  std::vector<Group> groups;
  for (std::size_t i = 0; i < positions.size();) {
    const RegionIndex r = region_of_position(object, positions[i]);
    const std::size_t j = static_cast<std::size_t>(
        std::lower_bound(positions.begin() + static_cast<std::ptrdiff_t>(i),
                         positions.end(), object.regions[r].extent.end()) -
        positions.begin());
    groups.push_back({i, j, r});
    i = j;
  }
  std::vector<std::vector<std::uint64_t>> kept_parts(groups.size());
  PDC_RETURN_IF_ERROR(fan_out_join(
      groups.size(), positions.size() * elem_size, phase.context(),
      "region_check", ledger,
      [&](std::size_t gi, CostLedger& task_ledger,
          obs::ScopedSpan& group_span) -> Status {
        group_span.arg("region", static_cast<double>(groups[gi].region));
        const std::span<const std::uint64_t> group(
            &positions[groups[gi].begin], groups[gi].end - groups[gi].begin);
        const RegionIndex r = groups[gi].region;
        const obj::RegionDescriptor& region = object.regions[r];
        std::vector<std::uint64_t>& kept = kept_parts[gi];

        if (!full_scan_mode) {
          if (!region.histogram.may_overlap(interval)) {
            return Status::Ok();  // drop group
          }
          if (region.histogram.covers(interval)) {
            kept.insert(kept.end(), group.begin(), group.end());
            return Status::Ok();
          }
        }

        RegionCache::Buffer buffer =
            env_.data_cache->get({object.id, r}, region.data_epoch);
        // Treat the group as dense when it holds many positions OR when its
        // positions span most of the region anyway: the aggregated point
        // read would coalesce into a near-whole-region read, so reading the
        // region through the cache costs the same now and is free next time.
        const std::uint64_t span_bytes =
            group.empty() ? 0
                          : (group.back() - group.front() + 1) * elem_size;
        const bool dense =
            full_scan_mode ||
            static_cast<double>(group.size()) >
                env_.dense_read_threshold *
                    static_cast<double>(region.extent.count) ||
            span_bytes * 2 >= region.extent.count * elem_size;
        if (buffer == nullptr && dense) {
          PDC_ASSIGN_OR_RETURN(
              buffer, fetch_region(object, r, task_ledger,
                                   /*cacheable=*/true, group_span.context()));
          if (full_scan_mode) {
            // The baseline scans the whole region regardless of selectivity.
            task_ledger.add_cpu(
                cost.scan_cost(region.extent.count * elem_size),
                CpuStage::kScan);
          }
        }
        if (buffer != nullptr) {
          task_ledger.add_cpu(static_cast<double>(group.size() * elem_size) /
                                  cost.memcpy_bandwidth_bps,
                              CpuStage::kScan);
          keep_matching(object.type, buffer->data(), group,
                        region.extent.offset, interval, kept);
        } else {
          // Sparse group, cold region: aggregated point reads.
          std::vector<std::uint8_t> values(group.size() * elem_size);
          PDC_RETURN_IF_ERROR(env_.store->read_values_at(
              object, group, values, env_.aggregation,
              read_ctx(task_ledger, group_span.context())));
          task_ledger.add_cpu(cost.scan_cost(values.size()), CpuStage::kScan);
          keep_matching(object.type, values.data(), group, std::nullopt,
                        interval, kept);
        }
        return Status::Ok();
      }));

  std::vector<std::uint64_t> kept;
  kept.reserve(positions.size());
  for (const std::vector<std::uint64_t>& part : kept_parts) {
    kept.insert(kept.end(), part.begin(), part.end());
  }
  positions = std::move(kept);
  phase.arg("positions_out", static_cast<double>(positions.size()));
  return Status::Ok();
}

Result<RegionCache::Buffer> RegionPipeline::fetch_region(
    const obj::ObjectDescriptor& object, RegionIndex region,
    CostLedger& ledger, bool cacheable, const obs::TraceContext& trace) {
  const RegionCache::Key key{object.id, region};
  const obj::RegionDescriptor& desc = object.regions[region];
  if (RegionCache::Buffer hit = env_.data_cache->get(key, desc.data_epoch)) {
    return hit;
  }
  log_debug("server ", env_.id, " cache MISS obj ", object.id, " region ",
            region);
  auto buffer = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(desc.extent.count * object.element_size()));
  PDC_RETURN_IF_ERROR(
      env_.store->read_region(object, region, *buffer, read_ctx(ledger, trace)));
  RegionCache::Buffer shared = std::move(buffer);
  if (cacheable) env_.data_cache->put(key, shared, desc.data_epoch);
  return shared;
}

}  // namespace pdc::server
