// ODMS core: containers, data objects, and regions (paper §II, §III-B).
//
// A data object is a typed 1-D array.  Large objects are decomposed into
// fixed-size *regions* — the basic unit of placement, I/O and parallel query
// evaluation.  At ingest time every region gets a local mergeable histogram
// (Algorithm 1) and the object gets the merged *global* histogram; both are
// metadata, cheap to ship to query servers.
//
// Raw values live in one PFS file per object; an optional bitmap-index file
// holds one serialized BinnedBitmapIndex per region.  Object/region metadata
// can be persisted to a checkpoint file and reloaded (the paper's
// "periodically persisted for fault tolerance").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bitmap/binned_index.h"
#include "common/cost_model.h"
#include "common/status.h"
#include "common/types.h"
#include "histogram/histogram.h"
#include "pfs/pfs.h"
#include "pfs/read_aggregator.h"

namespace pdc::obj {

/// Memory/storage hierarchy layer a region currently resides on.
enum class StorageTier : std::uint8_t { kMemory = 0, kNvram, kDisk, kTape };

/// Delta-WAH sidecar of one region's bitmap index: the region-local
/// positions overwritten since the base index was built, each paired with
/// the bin its *current* value falls in under the base edge grid.  Entries
/// stay sorted by position; queries combine them with the base bins via
/// bitmap::combine_base_delta, and compaction folds them by rebuilding the
/// index file.
struct RegionDelta {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> entries;

  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
  /// Sorted dirty positions (first of every entry).
  [[nodiscard]] std::vector<std::uint64_t> dirty_positions() const {
    std::vector<std::uint64_t> out;
    out.reserve(entries.size());
    for (const auto& [pos, bin] : entries) out.push_back(pos);
    return out;
  }
  /// Sorted positions whose current value falls in bin `b`.
  [[nodiscard]] std::vector<std::uint64_t> bin_positions(
      std::uint32_t b) const {
    std::vector<std::uint64_t> out;
    for (const auto& [pos, bin] : entries) {
      if (bin == b) out.push_back(pos);
    }
    return out;
  }
};

/// Metadata of one region of an object.
struct RegionDescriptor {
  RegionIndex index = 0;
  Extent1D extent;                     ///< element range within the object
  StorageTier tier = StorageTier::kDisk;
  hist::MergeableHistogram histogram;  ///< local histogram (Algorithm 1)
  std::uint64_t index_offset = 0;      ///< byte offset in the index file
  std::uint64_t index_bytes = 0;       ///< 0 = no bitmap index built
  std::uint64_t index_header_bytes = 0;  ///< prefix enabling partial loads
  /// Copy of the index header (bin edges + bin sizes).  Small, kept with
  /// the region metadata so query servers can plan partial bin reads
  /// without a storage round trip (FastBit keeps this resident too).
  std::vector<std::uint8_t> index_header;
  /// Epoch of this region's data; starts at 1 at import and bumps to the
  /// object's data epoch on every write touching the region.  Region
  /// caches key their entries on it.
  std::uint64_t data_epoch = 1;
  /// Data epoch the base bitmap index was built at (0 = none).
  std::uint64_t index_epoch = 0;
  /// Data epoch the base index PLUS delta sidecar together account for.
  /// The index is usable for queries iff index_bytes > 0 and this equals
  /// data_epoch; otherwise the region is *stale* and the pipeline falls
  /// back to scanning it.
  std::uint64_t index_synced_epoch = 0;
  RegionDelta delta;

  [[nodiscard]] bool index_fresh() const noexcept {
    return index_bytes > 0 && index_synced_epoch == data_epoch;
  }
};

/// Metadata of one data object.
struct ObjectDescriptor {
  ObjectId id = kInvalidObjectId;
  ObjectId container_id = kInvalidObjectId;
  std::string name;
  PdcType type = PdcType::kFloat;
  std::uint64_t num_elements = 0;
  std::uint64_t region_size_elements = 0;
  std::string data_file;    ///< PFS file with the raw values
  std::string index_file;   ///< PFS file with per-region bitmap indexes ("" = none)
  std::vector<RegionDescriptor> regions;
  hist::MergeableHistogram global_histogram;

  /// For sorted replicas: the object this is a value-sorted copy of, and the
  /// PFS file holding the permutation (original element positions, u64 each).
  ObjectId sorted_source = kInvalidObjectId;
  std::string permutation_file;

  // ---- write path ----
  /// Bumped on every applied write; region data epochs chase it.
  std::uint64_t data_epoch = 1;
  /// Exactly-once high-water mark of client write sequence numbers: a
  /// transfer with write_seq at or below this is acknowledged as a
  /// duplicate without re-applying.
  std::uint64_t last_write_seq = 0;
  /// Configs stored at import/index-build time so incremental maintenance
  /// and compaction rebuild byte-identical metadata (region histogram
  /// seeds derive from hist_config.seed + region index).
  hist::HistogramConfig hist_config;
  bitmap::IndexConfig index_config;
  /// Log-structured sorted-replica delta (source objects only): source
  /// position -> current raw value bytes for every element written since
  /// the replica was built/rebuilt.  The sorted strategy merges it on
  /// read; sortrep::rebuild_sorted_replica folds it.
  std::map<std::uint64_t, std::vector<std::uint8_t>> sorted_delta;
  /// Source data epoch the replica (base + sorted_delta) accounts for.
  /// The planner uses the replica only when this equals data_epoch.
  std::uint64_t replica_synced_epoch = 0;

  [[nodiscard]] std::size_t element_size() const noexcept {
    return pdc_type_size(type);
  }
  [[nodiscard]] std::uint64_t byte_size() const noexcept {
    return num_elements * element_size();
  }
  [[nodiscard]] bool is_sorted_replica() const noexcept {
    return sorted_source != kInvalidObjectId;
  }
};

/// Ingest parameters.
struct ImportOptions {
  std::uint64_t region_size_bytes = 4ull << 20;  ///< paper sweeps 4–128 MB
  hist::HistogramConfig histogram;               ///< local histogram params
  /// Optional worker pool for the build side of ingest (per-region
  /// histogram construction).  Region seeds are independent (`seed + i`)
  /// and each region's histogram build is deterministic, so any pool size
  /// — including the null (serial) default — produces bit-identical
  /// metadata.  Not owned; must outlive the call.
  exec::ThreadPool* pool = nullptr;
};

/// What a write transfer does to the target object.
enum class WriteKind : std::uint8_t { kAppend = 0, kOverwrite = 1 };

/// Per-write knobs (server-side policy, surfaced via PDC_COMPACT_THRESHOLD).
struct WriteOptions {
  /// Maintain the bitmap-index delta sidecar and sorted-replica delta log
  /// (servers always do).  Off: indexes/replicas simply go stale (queries
  /// fall back to scan and the planner skips the replica) — correctness is
  /// never at stake, histograms are always kept sound.
  bool maintain_accelerators = true;
  /// Dirty positions per region at which a write triggers a synchronous
  /// index compaction: every region whose base index lags its data (the
  /// delta-holding and stale ones) is re-indexed, the rest are copied.
  std::uint64_t compact_threshold = 64;
  /// Pool for compaction rebuilds (byte-identical at any width).
  exec::ThreadPool* pool = nullptr;
  /// Where to charge the write + maintenance I/O (may be null).
  CostLedger* ledger = nullptr;
};

/// Outcome of apply_write.
struct WriteResult {
  std::uint64_t data_epoch = 0;     ///< object epoch after the write
  std::uint64_t regions_touched = 0;
  bool duplicate = false;           ///< seq replay: acknowledged, not applied
  bool compacted = false;           ///< triggered a delta-folding rebuild
  /// Regions the compaction re-indexed (0 when it did not run).
  std::uint64_t regions_reindexed = 0;
  /// Size of the sorted-replica delta log after this write (0 when no
  /// replica is linked) — the caller's replica-rebuild decision input.
  std::uint64_t sorted_delta_entries = 0;
  ObjectId replica_id = kInvalidObjectId;  ///< linked replica, if any
};

/// The object directory + ingest/read paths.  Reads are thread-safe;
/// create/import/build calls must not race with each other.
class ObjectStore {
 public:
  explicit ObjectStore(pfs::PfsCluster& cluster) : cluster_(cluster) {}

  // ---- containers ----
  Result<ObjectId> create_container(std::string_view name);

  // ---- ingest ----
  /// Create an object inside `container` and import its data: write values
  /// to a PFS file, decompose into regions, build local histograms and the
  /// merged global histogram.
  template <PdcElement T>
  Result<ObjectId> import_object(ObjectId container, std::string_view name,
                                 std::span<const T> data,
                                 const ImportOptions& options = {}) {
    return import_raw(container, name, kPdcTypeOf<T>,
                      {reinterpret_cast<const std::uint8_t*>(data.data()),
                       data.size_bytes()},
                      data.size(), options);
  }

  /// Type-erased ingest (used by replicas and format converters).
  Result<ObjectId> import_raw(ObjectId container, std::string_view name,
                              PdcType type,
                              std::span<const std::uint8_t> bytes,
                              std::uint64_t num_elements,
                              const ImportOptions& options);

  /// Build the per-region bitmap index file for an object (§III-D4).
  /// With a non-null `pool`, regions are read and their indexes built and
  /// serialized concurrently; the file writes and offset assignment stay
  /// serial and in region order, so the index file is byte-identical to a
  /// serial build at any pool size.
  Status build_bitmap_index(ObjectId id,
                            const bitmap::IndexConfig& config = {},
                            exec::ThreadPool* pool = nullptr);

  /// Register an already-built sorted replica (used by sortrep).
  Status link_sorted_replica(ObjectId replica, ObjectId source,
                             std::string permutation_file);

  // ---- write path (mutable regions) ----
  /// Apply a region transfer: append `bytes` to the object or overwrite
  /// `extent` (element space) with them.  Updates the data file, region
  /// decomposition and epochs, rebuilds/merges the affected local
  /// histograms (always — pruning soundness is never traded away), and
  /// incrementally maintains the bitmap-index delta sidecar and the
  /// sorted-replica delta log per `options`.  Exactly-once: a write_seq at
  /// or below the object's high-water mark returns duplicate=true without
  /// re-applying (write_seq 0 opts out of dedup).  Writes serialize with
  /// each other internally; callers must not overlap writes with queries
  /// on the same object (descriptor fields are read lock-free by the
  /// query pipeline).
  Result<WriteResult> apply_write(ObjectId id, WriteKind kind,
                                  Extent1D extent,
                                  std::span<const std::uint8_t> bytes,
                                  std::uint64_t write_seq,
                                  const WriteOptions& options = {});

  /// Fold every region's delta sidecar: re-index, from current data with
  /// the stored IndexConfig, each region whose base index was not built at
  /// its data epoch (delta-holding, stale from an unabsorbable write, or
  /// grown by an append), and copy every other region's index bytes.  The
  /// rewritten file is byte-identical to a from-scratch build, and every
  /// region's index epoch ends in sync.  Clean regions keep their index
  /// epoch, so their index-cache entries stay valid.
  Status rebuild_bitmap_index(ObjectId id, exec::ThreadPool* pool = nullptr);

  /// Replace an object's data wholesale: rewrite the data file, rebuild
  /// regions/histograms (and the bitmap index, when one exists) from the
  /// new bytes.  Used by the sorted-replica fold.
  Status reset_object_data(ObjectId id, std::span<const std::uint8_t> bytes,
                           std::uint64_t num_elements,
                           exec::ThreadPool* pool = nullptr);

  /// Declare `source`'s replica fully synced: clears the sorted-delta log
  /// and fast-forwards replica_synced_epoch (called after a fold).
  Status mark_replica_synced(ObjectId source);

  /// Move a region to another layer of the memory/storage hierarchy
  /// (paper §II: "a region ... can reside on any layer").  Placement only
  /// affects the simulated access cost; the backing bytes stay on the PFS
  /// (standing in for the tier's media).
  Status set_region_tier(ObjectId id, RegionIndex region, StorageTier tier);

  /// Move every region of an object at once.
  Status set_object_tier(ObjectId id, StorageTier tier);

  // ---- lookup ----
  [[nodiscard]] Result<const ObjectDescriptor*> get(ObjectId id) const;
  [[nodiscard]] Result<const ObjectDescriptor*> find_by_name(
      std::string_view name) const;
  [[nodiscard]] std::vector<ObjectId> list_objects() const;
  /// The sorted replica of `source`, if one has been linked.
  [[nodiscard]] std::optional<ObjectId> sorted_replica_of(
      ObjectId source) const;

  // ---- data access (query side) ----
  /// Read a whole region's raw bytes.  The region's storage tier decides
  /// the charged cost: kDisk goes through the PFS cost model, kNvram and
  /// kMemory charge that layer's latency/bandwidth instead.
  Status read_region(const ObjectDescriptor& object, RegionIndex region,
                     std::span<std::uint8_t> out,
                     const pfs::ReadContext& ctx) const;

  /// Read an arbitrary element extent's raw bytes.
  Status read_elements(const ObjectDescriptor& object, Extent1D elements,
                       std::span<std::uint8_t> out,
                       const pfs::ReadContext& ctx) const;

  /// Gather the values at sorted element `positions` (aggregated reads).
  Status read_values_at(const ObjectDescriptor& object,
                        std::span<const std::uint64_t> positions,
                        std::span<std::uint8_t> out,
                        const pfs::AggregationPolicy& policy,
                        const pfs::ReadContext& ctx) const;

  /// Load one region's serialized bitmap index.
  Result<bitmap::BinnedBitmapIndex> load_region_index(
      const ObjectDescriptor& object, RegionIndex region,
      const pfs::ReadContext& ctx) const;

  // ---- persistence ----
  /// Checkpoint all metadata (descriptors + histograms) to a PFS file.
  Status persist_metadata(std::string_view checkpoint_file) const;
  /// Restore metadata from a checkpoint into an empty store.
  Status load_metadata(std::string_view checkpoint_file);

  [[nodiscard]] pfs::PfsCluster& cluster() const noexcept { return cluster_; }

 private:
  ObjectId next_id_locked() { return next_id_++; }
  /// Region decomposition + per-region/global histograms from raw bytes
  /// (shared by import_raw, append growth and reset_object_data).
  void build_regions(ObjectDescriptor& desc,
                     std::span<const std::uint8_t> bytes,
                     exec::ThreadPool* pool) const;
  /// (Re)create the index file: re-index the regions whose base index
  /// lags their data (all of them on a first build), copy the rest, and
  /// fill every region's index fields + epochs.  Returns the number of
  /// regions re-indexed.  Caller owns locking discipline.
  Result<std::uint64_t> build_index_into(ObjectDescriptor* desc,
                                         const bitmap::IndexConfig& config,
                                         exec::ThreadPool* pool);

  pfs::PfsCluster& cluster_;
  mutable std::shared_mutex mu_;
  ObjectId next_id_ = 1;
  std::map<ObjectId, std::string> containers_;
  std::map<ObjectId, std::unique_ptr<ObjectDescriptor>> objects_;
};

}  // namespace pdc::obj
