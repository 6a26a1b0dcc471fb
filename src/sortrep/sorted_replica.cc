#include "sortrep/sorted_replica.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>

#include "common/exec_pool.h"
#include "obj/type_dispatch.h"

namespace pdc::sortrep {
namespace {

/// Fixed chunk granule for the parallel argsort.  Chunk boundaries depend
/// only on n — never on the thread count — and the (value, position)
/// comparator below is a strict total order (positions are distinct), so
/// the sorted permutation is unique: every schedule, and the serial
/// std::stable_sort fallback, produces the same bytes.
constexpr std::uint64_t kSortChunk = 1u << 15;

/// PAM-style split of a two-run merge into disjoint segment pairs: A is
/// cut evenly and each cut key's rank in B (`rank_in_b(i)`: how many B
/// elements order before A[i]) comes from a binary search.  Segment s
/// merges A[a[s], a[s+1]) with B[b[s], b[s+1]) into the output slice
/// starting at a[s] + b[s].  The cuts depend only on the inputs, never on
/// the pool, so every width writes the same bytes.
constexpr std::size_t kMergeSegments = 8;
struct MergeSplit {
  std::array<std::size_t, kMergeSegments + 1> a{};
  std::array<std::size_t, kMergeSegments + 1> b{};
};

template <typename RankInB>
MergeSplit split_merge(std::size_t na, std::size_t nb,
                       const RankInB& rank_in_b) {
  MergeSplit split;
  for (std::size_t s = 0; s <= kMergeSegments; ++s) {
    split.a[s] = na * s / kMergeSegments;
    split.b[s] = s == 0                ? 0
                 : s == kMergeSegments ? nb
                                       : rank_in_b(split.a[s]);
  }
  return split;
}

/// Segmented two-run merge of argsort handles, concurrent over the pool.
template <typename Less>
void merge_runs(const std::uint64_t* a, std::size_t na,
                const std::uint64_t* b, std::size_t nb, std::uint64_t* out,
                const Less& less, exec::ThreadPool* pool) {
  if (pool == nullptr || na < kMergeSegments || na + nb < 4 * kSortChunk) {
    std::merge(a, a + na, b, b + nb, out, less);
    return;
  }
  const MergeSplit split = split_merge(na, nb, [&](std::size_t i) {
    return static_cast<std::size_t>(std::lower_bound(b, b + nb, a[i], less) -
                                    b);
  });
  exec::parallel_for(pool, kMergeSegments, [&](std::size_t s) {
    std::merge(a + split.a[s], a + split.a[s + 1], b + split.b[s],
               b + split.b[s + 1], out + split.a[s] + split.b[s], less);
  });
}

/// Deterministic parallel argsort of [0, n) by (values[i], i): sort fixed
/// chunks concurrently, then bottom-up pairwise merge rounds.  Falls back
/// to the classic serial stable_sort when no pool is given.
template <typename T>
std::vector<std::uint64_t> parallel_argsort(const T* values, std::uint64_t n,
                                            exec::ThreadPool* pool) {
  std::vector<std::uint64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  if (pool == nullptr || n <= 2 * kSortChunk) {
    std::stable_sort(perm.begin(), perm.end(),
                     [values](std::uint64_t a, std::uint64_t b) {
                       return values[a] < values[b];
                     });
    return perm;
  }
  // Tie-break on the original position: total order, and exactly the
  // order stable_sort-by-value produces.
  const auto less = [values](std::uint64_t a, std::uint64_t b) {
    return values[a] < values[b] || (values[a] == values[b] && a < b);
  };
  const auto nchunks =
      static_cast<std::size_t>((n + kSortChunk - 1) / kSortChunk);
  exec::parallel_for(pool, nchunks, [&](std::size_t c) {
    const auto lo = static_cast<std::ptrdiff_t>(c * kSortChunk);
    const auto hi = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(n, (c + 1) * kSortChunk));
    std::sort(perm.begin() + lo, perm.begin() + hi, less);
  });
  std::vector<std::uint64_t> tmp(perm.size());
  std::uint64_t* src = perm.data();
  std::uint64_t* dst = tmp.data();
  for (std::uint64_t run = kSortChunk; run < n; run *= 2) {
    const auto npairs = static_cast<std::size_t>((n + 2 * run - 1) / (2 * run));
    exec::parallel_for(pool, npairs, [&](std::size_t p) {
      const std::uint64_t lo = p * 2 * run;
      const std::uint64_t mid = std::min(n, lo + run);
      const std::uint64_t hi = std::min(n, lo + 2 * run);
      // Late rounds have few pairs; let the merge itself go parallel then.
      merge_runs(src + lo, static_cast<std::size_t>(mid - lo), src + mid,
                 static_cast<std::size_t>(hi - mid), dst + lo, less,
                 npairs <= 2 ? pool : nullptr);
    });
    std::swap(src, dst);
  }
  if (src != perm.data()) {
    std::copy(src, src + n, perm.data());
  }
  return perm;
}

/// A value and the source position it sits at.  Ordered like the
/// argsort: by value, ties (including -0.0 vs +0.0) by position — a strict
/// total order on NaN-free values, since positions are distinct.
template <typename T>
struct Keyed {
  T value;
  std::uint64_t pos;

  friend bool operator<(const Keyed& a, const Keyed& b) {
    return a.value < b.value || (a.value == b.value && a.pos < b.pos);
  }
};

/// Fixed slice, in elements, of the fold's parallel file reads.
constexpr std::size_t kFoldReadChunk = 1u << 18;

template <typename T>
std::span<std::uint8_t> bytes_of(T* data, std::size_t count) {
  return {reinterpret_cast<std::uint8_t*>(data), count * sizeof(T)};
}

/// Merge one segment of the base run (`values`/`perm`, parallel arrays),
/// skipping the entries `relocated` names, with a sorted slice of the log
/// into `out_values`/`out_perm`.
template <typename T, typename Relocated>
void merge_fold_segment(const T* values, const std::uint64_t* perm,
                        std::size_t na, const Keyed<T>* log, std::size_t nb,
                        const Relocated& relocated, T* out_values,
                        std::uint64_t* out_perm) {
  std::size_t j = 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < na; ++i) {
    if (relocated(perm[i])) continue;
    const Keyed<T> base{values[i], perm[i]};
    for (; j < nb && log[j] < base; ++j, ++k) {
      out_values[k] = log[j].value;
      out_perm[k] = log[j].pos;
    }
    out_values[k] = base.value;
    out_perm[k] = base.pos;
    ++k;
  }
  for (; j < nb; ++j, ++k) {
    out_values[k] = log[j].value;
    out_perm[k] = log[j].pos;
  }
}

/// Fold the source's delta log into its replica: read the replica and its
/// permutation, drop the entries the log relocates, and merge the sorted
/// log into what is left.  Both runs are sorted under the argsort's
/// order, so the merge is the unique sorted order of the current data —
/// the bytes a fresh argsort writes.  The caller has checked that the log
/// is complete.
template <typename T>
Status fold_delta_log(obj::ObjectStore& store, const obj::ObjectDescriptor& src,
                      const obj::ObjectDescriptor& rep,
                      exec::ThreadPool* pool) {
  // The base replica is NaN-free by construction, so NaN can only come
  // from the log; this check runs before any file is touched.
  std::vector<Keyed<T>> log;
  log.reserve(src.sorted_delta.size());
  for (const auto& [pos, raw] : src.sorted_delta) {
    Keyed<T> entry{T{}, pos};
    std::memcpy(&entry.value, raw.data(), sizeof(T));
    if constexpr (std::is_floating_point_v<T>) {
      if (std::isnan(entry.value)) {
        return Status::InvalidArgument(
            "cannot fold NaN into a sorted replica");
      }
    }
    log.push_back(entry);
  }
  std::sort(log.begin(), log.end());

  // Read the replica and its permutation in fixed slices over the pool.
  // Every buffer byte is read into, so the buffers skip zero-filling and
  // their pages fault in on the workers.
  const auto n = static_cast<std::size_t>(src.num_elements);
  const auto base_n = static_cast<std::size_t>(rep.num_elements);
  auto values = std::make_unique_for_overwrite<T[]>(base_n);
  auto perm = std::make_unique_for_overwrite<std::uint64_t[]>(base_n);
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile perm_in,
                       store.cluster().open(rep.permutation_file));
  std::vector<Status> reads((base_n + kFoldReadChunk - 1) / kFoldReadChunk);
  exec::parallel_for(pool, reads.size(), [&](std::size_t c) {
    const std::size_t lo = c * kFoldReadChunk;
    const std::size_t count = std::min(kFoldReadChunk, base_n - lo);
    reads[c] = store.read_elements(rep, {lo, count},
                                   bytes_of(values.get() + lo, count), {});
    if (!reads[c].ok()) return;
    reads[c] = perm_in.read(lo * sizeof(std::uint64_t),
                            bytes_of(perm.get() + lo, count), {});
  });
  for (const Status& status : reads) PDC_RETURN_IF_ERROR(status);

  std::vector<std::uint64_t> relocated_bits((n + 63) / 64);
  for (const Keyed<T>& e : log) {
    relocated_bits[e.pos / 64] |= 1ull << (e.pos % 64);
  }
  const auto relocated = [&](std::uint64_t pos) {
    return ((relocated_bits[pos / 64] >> (pos % 64)) & 1u) != 0;
  };

  // Cut the base run, relocated entries still in place, into fixed
  // segments.  A relocated entry's stale key still orders the segments
  // correctly, so each segment merges its own kept entries with its own
  // log slice into a disjoint output slice, whose start is the kept
  // count and log slice of the segments before it.
  const MergeSplit split = split_merge(base_n, log.size(), [&](std::size_t i) {
    return static_cast<std::size_t>(
        std::lower_bound(log.begin(), log.end(), Keyed<T>{values[i], perm[i]}) -
        log.begin());
  });
  std::array<std::size_t, kMergeSegments> kept{};
  exec::parallel_for(pool, kMergeSegments, [&](std::size_t s) {
    kept[s] = static_cast<std::size_t>(
        std::count_if(perm.get() + split.a[s], perm.get() + split.a[s + 1],
                      [&](std::uint64_t pos) { return !relocated(pos); }));
  });
  std::array<std::size_t, kMergeSegments> at{};
  for (std::size_t s = 1; s < kMergeSegments; ++s) {
    at[s] = at[s - 1] + kept[s - 1] + split.b[s] - split.b[s - 1];
  }
  auto out_values = std::make_unique_for_overwrite<T[]>(n);
  auto out_perm = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  exec::parallel_for(pool, kMergeSegments, [&](std::size_t s) {
    merge_fold_segment(values.get() + split.a[s], perm.get() + split.a[s],
                       split.a[s + 1] - split.a[s], log.data() + split.b[s],
                       split.b[s + 1] - split.b[s], relocated,
                       out_values.get() + at[s], out_perm.get() + at[s]);
  });
  values.reset();
  perm.reset();

  PDC_RETURN_IF_ERROR(store.reset_object_data(
      rep.id, bytes_of(out_values.get(), n), n, pool));
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile perm_out,
                       store.cluster().create(rep.permutation_file));
  PDC_RETURN_IF_ERROR(perm_out.write(0, bytes_of(out_perm.get(), n)));
  return store.mark_replica_synced(src.id);
}

}  // namespace

Result<BuildReport> build_sorted_replica(obj::ObjectStore& store,
                                         ObjectId source) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* src, store.get(source));
  obj::ImportOptions options;
  options.region_size_bytes =
      src->region_size_elements * src->element_size();
  return build_sorted_replica(store, source, options);
}

Result<BuildReport> build_sorted_replica(obj::ObjectStore& store,
                                         ObjectId source,
                                         const obj::ImportOptions& options) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* src, store.get(source));
  if (src->is_sorted_replica()) {
    return Status::InvalidArgument("source is itself a sorted replica");
  }
  if (store.sorted_replica_of(source).has_value()) {
    return Status::AlreadyExists("sorted replica already exists");
  }

  const std::size_t elem_size = src->element_size();
  const std::uint64_t n = src->num_elements;
  exec::ThreadPool* pool = options.pool;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(n * elem_size));
  PDC_RETURN_IF_ERROR(
      store.read_elements(*src, {0, n}, raw, {}));

  // NaN admits no strict weak ordering: std::stable_sort on it is UB and
  // the replica's binary-search contract would be meaningless anyway.
  // The pre-scan fans out over fixed chunks; "any NaN anywhere" is a
  // commutative OR, so the verdict is schedule-independent.
  const bool has_nan = obj::dispatch_type(src->type, [&](auto tag) {
    using T = decltype(tag);
    if constexpr (std::is_floating_point_v<T>) {
      const T* values = reinterpret_cast<const T*>(raw.data());
      std::atomic<bool> found{false};
      constexpr std::uint64_t kNanChunk = 1u << 16;
      const auto nchunks =
          static_cast<std::size_t>((n + kNanChunk - 1) / kNanChunk);
      exec::parallel_for(pool, nchunks, [&](std::size_t c) {
        if (found.load(std::memory_order_relaxed)) return;
        const std::uint64_t hi = std::min(n, (c + 1) * kNanChunk);
        for (std::uint64_t i = c * kNanChunk; i < hi; ++i) {
          if (values[i] != values[i]) {
            found.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
      return found.load();
    }
    return false;
  });
  if (has_nan) {
    return Status::InvalidArgument(
        "cannot build a sorted replica over NaN values");
  }

  // argsort by value, stable so equal values keep original order (the
  // parallel form tie-breaks on position, which is the same order), then
  // gather the values into sorted placement chunk-by-chunk.
  std::vector<std::uint64_t> perm;
  std::vector<std::uint8_t> sorted_bytes(raw.size());
  obj::dispatch_type(src->type, [&](auto tag) {
    using T = decltype(tag);
    const T* values = reinterpret_cast<const T*>(raw.data());
    perm = parallel_argsort(values, n, pool);
    T* out = reinterpret_cast<T*>(sorted_bytes.data());
    const auto nchunks =
        static_cast<std::size_t>((n + kSortChunk - 1) / kSortChunk);
    exec::parallel_for(pool, nchunks, [&](std::size_t c) {
      const std::uint64_t hi = std::min(n, (c + 1) * kSortChunk);
      for (std::uint64_t i = c * kSortChunk; i < hi; ++i) {
        out[i] = values[perm[i]];
      }
    });
  });

  PDC_ASSIGN_OR_RETURN(
      const ObjectId replica_id,
      store.import_raw(src->container_id, src->name + ".sorted", src->type,
                       sorted_bytes, n, options));

  // Permutation file: u64 original position per sorted position.
  const std::string perm_file = "obj_" + std::to_string(replica_id) + ".perm";
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile pf, store.cluster().create(perm_file));
  PDC_RETURN_IF_ERROR(pf.write(
      0, {reinterpret_cast<const std::uint8_t*>(perm.data()),
          perm.size() * sizeof(std::uint64_t)}));
  PDC_RETURN_IF_ERROR(store.link_sorted_replica(replica_id, source, perm_file));

  // One-time cost: read source, comparison sort, write replica + perm.
  const CostModel& cost = store.cluster().config().cost;
  const double data_bytes = static_cast<double>(n) * elem_size;
  const double perm_bytes = static_cast<double>(n) * sizeof(std::uint64_t);
  BuildReport report;
  report.replica_id = replica_id;
  report.build_cost_seconds =
      data_bytes / cost.ost_bandwidth_bps +            // read source
      data_bytes / cost.sort_bandwidth_bps +           // sort
      (data_bytes + perm_bytes) / cost.ost_write_bandwidth_bps;
  report.extra_bytes =
      static_cast<std::uint64_t>(data_bytes + perm_bytes);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.build_threads = pool == nullptr ? 1 : pool->size();
  return report;
}

Status rebuild_sorted_replica(obj::ObjectStore& store, ObjectId source,
                              exec::ThreadPool* pool) {
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* src, store.get(source));
  const auto replica_id = store.sorted_replica_of(source);
  if (!replica_id.has_value()) {
    return Status::NotFound("no sorted replica to rebuild");
  }
  PDC_ASSIGN_OR_RETURN(const obj::ObjectDescriptor* rep,
                       store.get(*replica_id));
  // The log holds every write since the last sync only while maintenance
  // stayed on; then it covers each appended position too.  A log with
  // gaps cannot be folded.
  const auto appended = static_cast<std::uint64_t>(std::distance(
      src->sorted_delta.lower_bound(rep->num_elements),
      src->sorted_delta.end()));
  if (src->replica_synced_epoch != src->data_epoch ||
      rep->num_elements + appended != src->num_elements) {
    return Status::FailedPrecondition(
        "sorted-delta log does not cover every write since the replica "
        "was synced");
  }
  return obj::dispatch_type(src->type, [&](auto tag) {
    return fold_delta_log<decltype(tag)>(store, *src, *rep, pool);
  });
}

Result<std::vector<std::uint64_t>> map_to_source_positions(
    const obj::ObjectStore& store, const obj::ObjectDescriptor& replica,
    Extent1D sorted_extent, const pfs::ReadContext& ctx) {
  if (!replica.is_sorted_replica()) {
    return Status::InvalidArgument("object is not a sorted replica");
  }
  if (sorted_extent.end() > replica.num_elements) {
    return Status::OutOfRange("sorted extent beyond replica");
  }
  std::vector<std::uint64_t> positions(
      static_cast<std::size_t>(sorted_extent.count));
  if (sorted_extent.count == 0) return positions;
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile pf,
                       store.cluster().open(replica.permutation_file));
  PDC_RETURN_IF_ERROR(
      pf.read(sorted_extent.offset * sizeof(std::uint64_t),
              {reinterpret_cast<std::uint8_t*>(positions.data()),
               positions.size() * sizeof(std::uint64_t)},
              ctx));
  return positions;
}

}  // namespace pdc::sortrep
