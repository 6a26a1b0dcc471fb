#include "obj/object_store.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

#include "common/exec_pool.h"
#include "common/log.h"
#include "common/serial.h"
#include "obj/type_dispatch.h"

namespace pdc::obj {
namespace {

std::string data_file_name(ObjectId id) {
  return "obj_" + std::to_string(id) + ".dat";
}
std::string index_file_name(ObjectId id) {
  return "obj_" + std::to_string(id) + ".idx";
}

double element_as_double(PdcType type, std::span<const std::uint8_t> bytes,
                         std::uint64_t i) {
  return dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    T v;
    std::memcpy(&v, bytes.data() + i * sizeof(T), sizeof(T));
    return static_cast<double>(v);
  });
}

hist::MergeableHistogram build_histogram_erased(
    PdcType type, std::span<const std::uint8_t> bytes, std::uint64_t count,
    const hist::HistogramConfig& config,
    exec::ThreadPool* pool = nullptr) {
  return dispatch_type(type, [&](auto tag) {
    using T = decltype(tag);
    return hist::MergeableHistogram::Build<T>(
        {reinterpret_cast<const T*>(bytes.data()),
         static_cast<std::size_t>(count)},
        config, pool);
  });
}

void serialize_region(SerialWriter& w, const RegionDescriptor& r) {
  w.put(r.index);
  w.put(r.extent.offset);
  w.put(r.extent.count);
  w.put(static_cast<std::uint8_t>(r.tier));
  r.histogram.serialize(w);
  w.put(r.index_offset);
  w.put(r.index_bytes);
  w.put(r.index_header_bytes);
  w.put_vector(r.index_header);
  w.put(r.data_epoch);
  w.put(r.index_epoch);
  w.put(r.index_synced_epoch);
  w.put<std::uint64_t>(r.delta.entries.size());
  for (const auto& [pos, bin] : r.delta.entries) {
    w.put(pos);
    w.put(bin);
  }
}

Status deserialize_region(SerialReader& r, RegionDescriptor& out) {
  PDC_RETURN_IF_ERROR(r.get(out.index));
  PDC_RETURN_IF_ERROR(r.get(out.extent.offset));
  PDC_RETURN_IF_ERROR(r.get(out.extent.count));
  std::uint8_t tier = 0;
  PDC_RETURN_IF_ERROR(r.get(tier));
  if (tier > static_cast<std::uint8_t>(StorageTier::kTape)) {
    return Status::Corruption("region tier invalid");
  }
  out.tier = static_cast<StorageTier>(tier);
  PDC_ASSIGN_OR_RETURN(out.histogram,
                       hist::MergeableHistogram::Deserialize(r));
  PDC_RETURN_IF_ERROR(r.get(out.index_offset));
  PDC_RETURN_IF_ERROR(r.get(out.index_bytes));
  PDC_RETURN_IF_ERROR(r.get(out.index_header_bytes));
  PDC_RETURN_IF_ERROR(r.get_vector(out.index_header));
  PDC_RETURN_IF_ERROR(r.get(out.data_epoch));
  PDC_RETURN_IF_ERROR(r.get(out.index_epoch));
  PDC_RETURN_IF_ERROR(r.get(out.index_synced_epoch));
  std::uint64_t ndelta = 0;
  PDC_RETURN_IF_ERROR(r.get(ndelta));
  if (ndelta > r.remaining() / (sizeof(std::uint64_t) + sizeof(std::uint32_t))) {
    return Status::Corruption("region delta length implausible");
  }
  out.delta.entries.resize(static_cast<std::size_t>(ndelta));
  for (auto& [pos, bin] : out.delta.entries) {
    PDC_RETURN_IF_ERROR(r.get(pos));
    PDC_RETURN_IF_ERROR(r.get(bin));
  }
  return Status::Ok();
}

void serialize_object(SerialWriter& w, const ObjectDescriptor& o) {
  w.put(o.id);
  w.put(o.container_id);
  w.put_string(o.name);
  w.put(static_cast<std::uint8_t>(o.type));
  w.put(o.num_elements);
  w.put(o.region_size_elements);
  w.put_string(o.data_file);
  w.put_string(o.index_file);
  w.put<std::uint64_t>(o.regions.size());
  for (const RegionDescriptor& r : o.regions) serialize_region(w, r);
  o.global_histogram.serialize(w);
  w.put(o.sorted_source);
  w.put_string(o.permutation_file);
  w.put(o.data_epoch);
  w.put(o.last_write_seq);
  w.put(o.hist_config.target_bins);
  w.put(o.hist_config.sample_fraction);
  w.put(o.hist_config.min_samples);
  w.put(o.hist_config.seed);
  w.put(o.index_config.num_bins);
  w.put(o.index_config.edge_sample);
  w.put(o.index_config.precision);
  w.put(o.index_config.seed);
  w.put<std::uint64_t>(o.sorted_delta.size());
  for (const auto& [pos, bytes] : o.sorted_delta) {
    w.put(pos);
    w.put_vector(bytes);
  }
  w.put(o.replica_synced_epoch);
}

Status deserialize_object(SerialReader& r, ObjectDescriptor& o) {
  PDC_RETURN_IF_ERROR(r.get(o.id));
  PDC_RETURN_IF_ERROR(r.get(o.container_id));
  PDC_RETURN_IF_ERROR(r.get_string(o.name));
  std::uint8_t type = 0;
  PDC_RETURN_IF_ERROR(r.get(type));
  if (type > static_cast<std::uint8_t>(PdcType::kUInt64)) {
    return Status::Corruption("object type invalid");
  }
  o.type = static_cast<PdcType>(type);
  PDC_RETURN_IF_ERROR(r.get(o.num_elements));
  PDC_RETURN_IF_ERROR(r.get(o.region_size_elements));
  PDC_RETURN_IF_ERROR(r.get_string(o.data_file));
  PDC_RETURN_IF_ERROR(r.get_string(o.index_file));
  std::uint64_t nregions = 0;
  PDC_RETURN_IF_ERROR(r.get(nregions));
  o.regions.resize(static_cast<std::size_t>(nregions));
  for (auto& region : o.regions) {
    PDC_RETURN_IF_ERROR(deserialize_region(r, region));
  }
  PDC_ASSIGN_OR_RETURN(o.global_histogram,
                       hist::MergeableHistogram::Deserialize(r));
  PDC_RETURN_IF_ERROR(r.get(o.sorted_source));
  PDC_RETURN_IF_ERROR(r.get_string(o.permutation_file));
  PDC_RETURN_IF_ERROR(r.get(o.data_epoch));
  PDC_RETURN_IF_ERROR(r.get(o.last_write_seq));
  PDC_RETURN_IF_ERROR(r.get(o.hist_config.target_bins));
  PDC_RETURN_IF_ERROR(r.get(o.hist_config.sample_fraction));
  PDC_RETURN_IF_ERROR(r.get(o.hist_config.min_samples));
  PDC_RETURN_IF_ERROR(r.get(o.hist_config.seed));
  PDC_RETURN_IF_ERROR(r.get(o.index_config.num_bins));
  PDC_RETURN_IF_ERROR(r.get(o.index_config.edge_sample));
  PDC_RETURN_IF_ERROR(r.get(o.index_config.precision));
  PDC_RETURN_IF_ERROR(r.get(o.index_config.seed));
  std::uint64_t ndelta = 0;
  PDC_RETURN_IF_ERROR(r.get(ndelta));
  if (ndelta > r.remaining() / (2 * sizeof(std::uint64_t))) {
    return Status::Corruption("sorted delta length implausible");
  }
  for (std::uint64_t i = 0; i < ndelta; ++i) {
    std::uint64_t pos = 0;
    std::vector<std::uint8_t> bytes;
    PDC_RETURN_IF_ERROR(r.get(pos));
    PDC_RETURN_IF_ERROR(r.get_vector(bytes));
    o.sorted_delta.emplace(pos, std::move(bytes));
  }
  PDC_RETURN_IF_ERROR(r.get(o.replica_synced_epoch));
  return Status::Ok();
}

}  // namespace

Result<ObjectId> ObjectStore::create_container(std::string_view name) {
  std::unique_lock lock(mu_);
  for (const auto& [id, existing] : containers_) {
    if (existing == name) {
      return Status::AlreadyExists("container exists: " + std::string(name));
    }
  }
  const ObjectId id = next_id_locked();
  containers_.emplace(id, std::string(name));
  return id;
}

Result<ObjectId> ObjectStore::import_raw(ObjectId container,
                                         std::string_view name, PdcType type,
                                         std::span<const std::uint8_t> bytes,
                                         std::uint64_t num_elements,
                                         const ImportOptions& options) {
  const std::size_t elem_size = pdc_type_size(type);
  if (bytes.size() != num_elements * elem_size) {
    return Status::InvalidArgument("byte size / element count mismatch");
  }
  if (num_elements == 0) {
    return Status::InvalidArgument("cannot import an empty object");
  }
  {
    std::shared_lock lock(mu_);
    if (!containers_.contains(container)) {
      return Status::NotFound("container " + std::to_string(container));
    }
    for (const auto& [id, o] : objects_) {
      if (o->name == name) {
        return Status::AlreadyExists("object exists: " + std::string(name));
      }
    }
  }

  auto desc = std::make_unique<ObjectDescriptor>();
  {
    std::unique_lock lock(mu_);
    desc->id = next_id_locked();
  }
  desc->container_id = container;
  desc->name = std::string(name);
  desc->type = type;
  desc->num_elements = num_elements;
  desc->region_size_elements =
      std::max<std::uint64_t>(1, options.region_size_bytes / elem_size);
  desc->data_file = data_file_name(desc->id);
  desc->hist_config = options.histogram;

  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.create(desc->data_file));
  PDC_RETURN_IF_ERROR(file.write(0, bytes));

  build_regions(*desc, bytes, options.pool);

  const ObjectId id = desc->id;
  const std::size_t nregions = desc->regions.size();
  std::unique_lock lock(mu_);
  objects_.emplace(id, std::move(desc));
  log_debug("imported object ", id, " '", name, "' with ", nregions,
            " regions");
  return id;
}

void ObjectStore::build_regions(ObjectDescriptor& desc,
                                std::span<const std::uint8_t> bytes,
                                exec::ThreadPool* pool) const {
  // Decompose into regions and build one local histogram per region.
  // Region seeds are independent (`seed + i`), so the per-region builds
  // can run concurrently and still produce exactly the serial metadata.
  // A single-region object has no region-level parallelism to exploit,
  // so it hands the pool down into the histogram's counting pass instead.
  const std::size_t elem_size = desc.element_size();
  const std::uint64_t num_elements = desc.num_elements;
  const std::uint64_t rsize = desc.region_size_elements;
  const auto nregions =
      static_cast<std::size_t>((num_elements + rsize - 1) / rsize);
  desc.regions.assign(nregions, RegionDescriptor{});
  exec::parallel_for(pool, nregions, [&](std::size_t i) {
    RegionDescriptor& region = desc.regions[i];
    region.index = static_cast<RegionIndex>(i);
    region.extent.offset = i * rsize;
    region.extent.count = std::min(rsize, num_elements - region.extent.offset);
    region.data_epoch = desc.data_epoch;
    // Vary the sampling seed per region so identical regions do not sample
    // identical offsets.
    hist::HistogramConfig hist_cfg = desc.hist_config;
    hist_cfg.seed = desc.hist_config.seed + i;
    region.histogram = build_histogram_erased(
        desc.type,
        bytes.subspan(region.extent.offset * elem_size,
                      region.extent.count * elem_size),
        region.extent.count, hist_cfg, nregions == 1 ? pool : nullptr);
  });
  std::vector<hist::MergeableHistogram> locals;
  locals.reserve(nregions);
  for (const RegionDescriptor& region : desc.regions) {
    locals.push_back(region.histogram);
  }
  desc.global_histogram = hist::MergeableHistogram::Merge(locals);
}

Status ObjectStore::build_bitmap_index(ObjectId id,
                                       const bitmap::IndexConfig& config,
                                       exec::ThreadPool* pool) {
  ObjectDescriptor* desc = nullptr;
  {
    std::shared_lock lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    desc = it->second.get();
  }
  if (!desc->index_file.empty()) {
    return Status::AlreadyExists("index already built for object " +
                                 std::to_string(id));
  }
  desc->index_config = config;
  return build_index_into(desc, config, pool).status();
}

Status ObjectStore::rebuild_bitmap_index(ObjectId id, exec::ThreadPool* pool) {
  ObjectDescriptor* desc = nullptr;
  {
    std::shared_lock lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    desc = it->second.get();
  }
  if (desc->index_file.empty()) {
    return Status::FailedPrecondition("no index to rebuild for object " +
                                      std::to_string(id));
  }
  return build_index_into(desc, desc->index_config, pool).status();
}

Result<std::uint64_t> ObjectStore::build_index_into(
    ObjectDescriptor* desc, const bitmap::IndexConfig& config,
    exec::ThreadPool* pool) {
  const std::string fname = index_file_name(desc->id);
  const std::size_t elem_size = desc->element_size();

  // A region is re-indexed only when its base index was not built at its
  // current data epoch: never built, appended into, or written since
  // (every region holding a delta sidecar is one of these).  Any other
  // region's serialized index is exactly what a build would write, so its
  // bytes are copied from the current file — read here, before the create
  // below truncates it.  Reads and builds are independent per region and
  // fan out over the pool; the offset assignment and file writes stay
  // serial and in region order, so the file is byte-identical to a
  // from-scratch serial build at any pool size.
  std::optional<pfs::PfsFile> current;
  if (!desc->index_file.empty()) {
    PDC_ASSIGN_OR_RETURN(current, cluster_.open(desc->index_file));
  }
  struct BuiltIndex {
    Status status;
    std::vector<std::uint8_t> bytes;
    std::uint64_t header_bytes = 0;
    bool rebuilt = false;
  };
  std::vector<BuiltIndex> built(desc->regions.size());
  exec::parallel_for(pool, desc->regions.size(), [&](std::size_t i) {
    const RegionDescriptor& region = desc->regions[i];
    BuiltIndex& b = built[i];
    if (current.has_value() && region.index_bytes > 0 &&
        region.index_epoch == region.data_epoch) {
      b.bytes.resize(static_cast<std::size_t>(region.index_bytes));
      b.status = current->read(region.index_offset, b.bytes, {});
      b.header_bytes = region.index_header_bytes;
      return;
    }
    b.rebuilt = true;
    std::vector<std::uint8_t> region_bytes(
        static_cast<std::size_t>(region.extent.count * elem_size));
    b.status = read_region(*desc, region.index, region_bytes, {});
    if (!b.status.ok()) return;
    SerialWriter w;
    dispatch_type(desc->type, [&](auto tag) {
      using T = decltype(tag);
      const auto idx = bitmap::BinnedBitmapIndex::Build<T>(
          {reinterpret_cast<const T*>(region_bytes.data()),
           static_cast<std::size_t>(region.extent.count)},
          config);
      idx.serialize(w);
      b.header_bytes = idx.header_bytes();
    });
    b.bytes = w.take();
  });
  for (const BuiltIndex& b : built) PDC_RETURN_IF_ERROR(b.status);

  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.create(fname));
  std::uint64_t cursor = 0;
  std::uint64_t rebuilt = 0;
  for (std::size_t i = 0; i < desc->regions.size(); ++i) {
    RegionDescriptor& region = desc->regions[i];
    const BuiltIndex& b = built[i];
    PDC_RETURN_IF_ERROR(file.write(cursor, b.bytes));
    region.index_offset = cursor;
    cursor += b.bytes.size();
    if (!b.rebuilt) continue;
    ++rebuilt;
    region.index_bytes = b.bytes.size();
    region.index_header_bytes = b.header_bytes;
    region.index_header.assign(
        b.bytes.begin(),
        b.bytes.begin() + static_cast<std::ptrdiff_t>(b.header_bytes));
    region.index_epoch = region.data_epoch;
    region.index_synced_epoch = region.data_epoch;
    region.delta.entries.clear();
  }
  desc->index_file = fname;
  return rebuilt;
}

Status ObjectStore::link_sorted_replica(ObjectId replica, ObjectId source,
                                        std::string permutation_file) {
  std::unique_lock lock(mu_);
  auto rep = objects_.find(replica);
  auto src = objects_.find(source);
  if (rep == objects_.end() || src == objects_.end()) {
    return Status::NotFound("replica or source object missing");
  }
  rep->second->sorted_source = source;
  rep->second->permutation_file = std::move(permutation_file);
  // The replica reflects the source's data as of right now.
  src->second->replica_synced_epoch = src->second->data_epoch;
  src->second->sorted_delta.clear();
  return Status::Ok();
}

Result<WriteResult> ObjectStore::apply_write(ObjectId id, WriteKind kind,
                                             Extent1D extent,
                                             std::span<const std::uint8_t> bytes,
                                             std::uint64_t write_seq,
                                             const WriteOptions& options) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  ObjectDescriptor* d = it->second.get();
  if (d->is_sorted_replica()) {
    return Status::InvalidArgument("cannot write a sorted replica directly");
  }
  WriteResult result;
  for (const auto& [oid, o] : objects_) {
    if (o->sorted_source == id) {
      result.replica_id = oid;
      break;
    }
  }
  // Exactly-once: a replayed sequence number (retry, reroute, duplicated
  // bus delivery) is acknowledged without touching data or indexes.
  if (write_seq != 0 && write_seq <= d->last_write_seq) {
    result.data_epoch = d->data_epoch;
    result.duplicate = true;
    result.sorted_delta_entries = d->sorted_delta.size();
    return result;
  }
  const std::size_t elem_size = d->element_size();
  if (bytes.empty() || bytes.size() % elem_size != 0) {
    return Status::InvalidArgument(
        "write payload is not a whole number of elements");
  }
  const std::uint64_t count = bytes.size() / elem_size;
  if (kind == WriteKind::kOverwrite) {
    if (extent.count != count) {
      return Status::InvalidArgument("overwrite extent / payload mismatch");
    }
    if (extent.end() > d->num_elements) {
      return Status::OutOfRange("overwrite extent beyond object");
    }
  } else {
    extent = {d->num_elements, count};
  }

  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.open(d->data_file));
  PDC_RETURN_IF_ERROR(
      file.write(extent.offset * elem_size, bytes, options.ledger));

  const std::uint64_t epoch_before = d->data_epoch;
  const std::uint64_t rsize = d->region_size_elements;
  const std::size_t old_nregions = d->regions.size();
  if (kind == WriteKind::kAppend) {
    d->num_elements += count;
    // Extend the trailing region up to its capacity, then add new regions.
    if (!d->regions.empty()) {
      RegionDescriptor& last = d->regions.back();
      last.extent.count =
          std::min(rsize, d->num_elements - last.extent.offset);
    }
    while (d->regions.back().extent.end() < d->num_elements) {
      RegionDescriptor region;
      region.index = static_cast<RegionIndex>(d->regions.size());
      region.extent.offset = d->regions.back().extent.end();
      region.extent.count =
          std::min(rsize, d->num_elements - region.extent.offset);
      region.tier = d->regions.back().tier;
      d->regions.push_back(std::move(region));
    }
  }
  const std::size_t first_touched =
      static_cast<std::size_t>(extent.offset / rsize);
  const std::size_t last_touched =
      static_cast<std::size_t>((extent.end() - 1) / rsize);

  // Snapshot per-region freshness before epochs advance: a region whose
  // base+delta covered its own pre-write data can absorb this overwrite
  // even when writes to *other* regions moved the object epoch since the
  // region's index was last synced.
  std::vector<bool> was_fresh_before(last_touched - first_touched + 1);
  for (std::size_t r = first_touched; r <= last_touched; ++r) {
    was_fresh_before[r - first_touched] = d->regions[r].index_fresh();
  }

  d->data_epoch += 1;
  for (std::size_t r = first_touched; r <= last_touched; ++r) {
    d->regions[r].data_epoch = d->data_epoch;
  }

  // ---- histograms (always maintained: pruning must stay sound) ----
  for (std::size_t r = first_touched; r <= last_touched; ++r) {
    RegionDescriptor& region = d->regions[r];
    hist::HistogramConfig hist_cfg = d->hist_config;
    hist_cfg.seed = d->hist_config.seed + r;
    const std::uint64_t lo = std::max(extent.offset, region.extent.offset);
    const std::uint64_t hi = std::min(extent.end(), region.extent.end());
    const auto slice =
        bytes.subspan((lo - extent.offset) * elem_size, (hi - lo) * elem_size);
    if (kind == WriteKind::kAppend && r < old_nregions) {
      // Algorithm-1 merge: old region histogram + histogram of the
      // appended slice (power-of-two lattices nest exactly).
      const std::array<hist::MergeableHistogram, 2> parts = {
          region.histogram,
          build_histogram_erased(d->type, slice, hi - lo, hist_cfg)};
      region.histogram = hist::MergeableHistogram::Merge(parts);
    } else if (lo == region.extent.offset && hi == region.extent.end()) {
      // Whole region covered by the payload: build straight from it.
      region.histogram =
          build_histogram_erased(d->type, slice, hi - lo, hist_cfg);
    } else {
      // Partial overwrite: rebuild from the post-write region data.
      std::vector<std::uint8_t> region_bytes(
          static_cast<std::size_t>(region.extent.count * elem_size));
      pfs::ReadContext rctx;
      rctx.ledger = options.ledger;
      PDC_RETURN_IF_ERROR(
          read_region(*d, region.index, region_bytes, rctx));
      region.histogram = build_histogram_erased(
          d->type, region_bytes, region.extent.count, hist_cfg);
    }
  }
  std::vector<hist::MergeableHistogram> locals;
  locals.reserve(d->regions.size());
  for (const RegionDescriptor& region : d->regions) {
    locals.push_back(region.histogram);
  }
  d->global_histogram = hist::MergeableHistogram::Merge(locals);

  // ---- bitmap-index delta sidecar ----
  bool need_compact = false;
  if (!d->index_file.empty()) {
    for (std::size_t r = first_touched; r <= last_touched; ++r) {
      RegionDescriptor& region = d->regions[r];
      // Only overwrites of a region whose base+delta was in sync before
      // this write can be absorbed into the sidecar; anything else
      // (appends change the region's element count; an already-stale
      // region has an incomplete delta) leaves the region stale until
      // compaction, and queries scan it.
      const bool was_fresh = was_fresh_before[r - first_touched];
      if (kind != WriteKind::kOverwrite || !was_fresh ||
          !options.maintain_accelerators) {
        region.delta.entries.clear();
        continue;
      }
      auto view = bitmap::PartitionedIndexView::ParseHeader(
          region.index_header);
      bool absorbed = view.ok();
      auto entries = region.delta.entries;
      const std::uint64_t lo = std::max(extent.offset, region.extent.offset);
      const std::uint64_t hi = std::min(extent.end(), region.extent.end());
      for (std::uint64_t p = lo; absorbed && p < hi; ++p) {
        const double value =
            element_as_double(d->type, bytes, p - extent.offset);
        const auto bin = view.value().delta_bin_of(value);
        if (!bin.has_value()) {
          // Unsafe assignment (NaN / out of range / on a bin edge):
          // the whole region falls back to scan instead.
          absorbed = false;
          break;
        }
        const std::uint64_t local = p - region.extent.offset;
        const auto at = std::lower_bound(
            entries.begin(), entries.end(), local,
            [](const auto& e, std::uint64_t pos) { return e.first < pos; });
        if (at != entries.end() && at->first == local) {
          at->second = *bin;
        } else {
          entries.insert(at, {local, *bin});
        }
      }
      if (absorbed) {
        region.delta.entries = std::move(entries);
        region.index_synced_epoch = d->data_epoch;
        if (options.compact_threshold > 0 &&
            region.delta.entries.size() >= options.compact_threshold) {
          need_compact = true;
        }
      } else {
        region.delta.entries.clear();
      }
    }
  }

  // ---- sorted-replica delta log ----
  if (result.replica_id != kInvalidObjectId) {
    if (options.maintain_accelerators &&
        d->replica_synced_epoch == epoch_before) {
      for (std::uint64_t i = 0; i < count; ++i) {
        auto& slot = d->sorted_delta[extent.offset + i];
        slot.assign(bytes.begin() + static_cast<std::ptrdiff_t>(i * elem_size),
                    bytes.begin() +
                        static_cast<std::ptrdiff_t>((i + 1) * elem_size));
      }
      d->replica_synced_epoch = d->data_epoch;
    } else {
      // Replica goes (or stays) stale; the planner stops using it.
      d->sorted_delta.clear();
    }
    result.sorted_delta_entries = d->sorted_delta.size();
  }

  if (write_seq != 0) {
    d->last_write_seq = std::max(d->last_write_seq, write_seq);
  }
  result.data_epoch = d->data_epoch;
  result.regions_touched = last_touched - first_touched + 1;
  lock.unlock();

  // Compaction folds every delta by re-indexing the regions whose index
  // lags — joined here, before the write is acknowledged, so results are
  // deterministic.
  if (need_compact) {
    PDC_ASSIGN_OR_RETURN(result.regions_reindexed,
                         build_index_into(d, d->index_config, options.pool));
    result.compacted = true;
  }
  return result;
}

Status ObjectStore::reset_object_data(ObjectId id,
                                      std::span<const std::uint8_t> bytes,
                                      std::uint64_t num_elements,
                                      exec::ThreadPool* pool) {
  ObjectDescriptor* desc = nullptr;
  {
    std::shared_lock lock(mu_);
    auto it = objects_.find(id);
    if (it == objects_.end()) {
      return Status::NotFound("object " + std::to_string(id));
    }
    desc = it->second.get();
  }
  if (num_elements == 0 ||
      bytes.size() != num_elements * desc->element_size()) {
    return Status::InvalidArgument("byte size / element count mismatch");
  }
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file,
                       cluster_.create(desc->data_file));
  PDC_RETURN_IF_ERROR(file.write(0, bytes));
  desc->num_elements = num_elements;
  desc->data_epoch += 1;
  build_regions(*desc, bytes, pool);
  if (!desc->index_file.empty()) {
    return build_index_into(desc, desc->index_config, pool).status();
  }
  return Status::Ok();
}

Status ObjectStore::mark_replica_synced(ObjectId source) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(source);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(source));
  }
  it->second->sorted_delta.clear();
  it->second->replica_synced_epoch = it->second->data_epoch;
  return Status::Ok();
}

Result<const ObjectDescriptor*> ObjectStore::get(ObjectId id) const {
  std::shared_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  return static_cast<const ObjectDescriptor*>(it->second.get());
}

Result<const ObjectDescriptor*> ObjectStore::find_by_name(
    std::string_view name) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, o] : objects_) {
    if (o->name == name) return static_cast<const ObjectDescriptor*>(o.get());
  }
  return Status::NotFound("object named " + std::string(name));
}

std::vector<ObjectId> ObjectStore::list_objects() const {
  std::shared_lock lock(mu_);
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, o] : objects_) ids.push_back(id);
  return ids;
}

std::optional<ObjectId> ObjectStore::sorted_replica_of(ObjectId source) const {
  std::shared_lock lock(mu_);
  for (const auto& [id, o] : objects_) {
    if (o->sorted_source == source) return id;
  }
  return std::nullopt;
}

Status ObjectStore::set_region_tier(ObjectId id, RegionIndex region,
                                    StorageTier tier) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  if (region >= it->second->regions.size()) {
    return Status::OutOfRange("region index " + std::to_string(region));
  }
  it->second->regions[region].tier = tier;
  return Status::Ok();
}

Status ObjectStore::set_object_tier(ObjectId id, StorageTier tier) {
  std::unique_lock lock(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  for (RegionDescriptor& region : it->second->regions) region.tier = tier;
  return Status::Ok();
}

Status ObjectStore::read_region(const ObjectDescriptor& object,
                                RegionIndex region,
                                std::span<std::uint8_t> out,
                                const pfs::ReadContext& ctx) const {
  if (region >= object.regions.size()) {
    return Status::OutOfRange("region index " + std::to_string(region));
  }
  const RegionDescriptor& desc = object.regions[region];
  if (desc.tier == StorageTier::kDisk || desc.tier == StorageTier::kTape) {
    return read_elements(object, desc.extent, out, ctx);
  }
  // Faster tier: perform the real read uncharged, then charge the tier's
  // own latency/bandwidth instead of the PFS cost model's.
  PDC_RETURN_IF_ERROR(read_elements(object, desc.extent, out, {}));
  if (ctx.ledger != nullptr) {
    const CostModel& cost = cluster_.config().cost;
    const bool memory = desc.tier == StorageTier::kMemory;
    const double latency =
        memory ? cost.memory_read_latency_s : cost.nvram_read_latency_s;
    const double bandwidth =
        memory ? cost.memory_bandwidth_bps : cost.nvram_bandwidth_bps;
    ctx.ledger->add_io(latency + static_cast<double>(out.size()) / bandwidth);
    ctx.ledger->add_read_ops(1);
    ctx.ledger->add_bytes_read(out.size());
  }
  return Status::Ok();
}

Status ObjectStore::read_elements(const ObjectDescriptor& object,
                                  Extent1D elements,
                                  std::span<std::uint8_t> out,
                                  const pfs::ReadContext& ctx) const {
  const std::size_t elem_size = object.element_size();
  if (elements.end() > object.num_elements) {
    return Status::OutOfRange("element extent beyond object");
  }
  if (out.size() != elements.count * elem_size) {
    return Status::InvalidArgument("output buffer size mismatch");
  }
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.open(object.data_file));
  return file.read(elements.offset * elem_size, out, ctx);
}

Status ObjectStore::read_values_at(const ObjectDescriptor& object,
                                   std::span<const std::uint64_t> positions,
                                   std::span<std::uint8_t> out,
                                   const pfs::AggregationPolicy& policy,
                                   const pfs::ReadContext& ctx) const {
  const std::size_t elem_size = object.element_size();
  if (out.size() != positions.size() * elem_size) {
    return Status::InvalidArgument("output buffer size mismatch");
  }
  if (positions.empty()) return Status::Ok();
  std::vector<Extent1D> extents;
  std::vector<std::span<std::uint8_t>> dests;
  extents.reserve(positions.size());
  dests.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] >= object.num_elements) {
      return Status::OutOfRange("position beyond object");
    }
    if (i > 0 && positions[i] <= positions[i - 1]) {
      return Status::InvalidArgument("positions must be strictly ascending");
    }
    extents.push_back(
        {positions[i] * elem_size, static_cast<std::uint64_t>(elem_size)});
    dests.push_back(out.subspan(i * elem_size, elem_size));
  }
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.open(object.data_file));
  return pfs::aggregated_read(file, extents, dests, policy, ctx);
}

Result<bitmap::BinnedBitmapIndex> ObjectStore::load_region_index(
    const ObjectDescriptor& object, RegionIndex region,
    const pfs::ReadContext& ctx) const {
  if (object.index_file.empty()) {
    return Status::FailedPrecondition("no bitmap index for object " +
                                      std::to_string(object.id));
  }
  if (region >= object.regions.size()) {
    return Status::OutOfRange("region index " + std::to_string(region));
  }
  const RegionDescriptor& r = object.regions[region];
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(r.index_bytes));
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.open(object.index_file));
  PDC_RETURN_IF_ERROR(file.read(r.index_offset, bytes, ctx));
  SerialReader reader(bytes);
  return bitmap::BinnedBitmapIndex::Deserialize(reader);
}

Status ObjectStore::persist_metadata(std::string_view checkpoint_file) const {
  SerialWriter w;
  std::shared_lock lock(mu_);
  w.put(next_id_);
  w.put<std::uint64_t>(containers_.size());
  for (const auto& [id, name] : containers_) {
    w.put(id);
    w.put_string(name);
  }
  w.put<std::uint64_t>(objects_.size());
  for (const auto& [id, o] : objects_) serialize_object(w, *o);
  lock.unlock();
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.create(checkpoint_file));
  return file.write(0, w.bytes());
}

Status ObjectStore::load_metadata(std::string_view checkpoint_file) {
  PDC_ASSIGN_OR_RETURN(pfs::PfsFile file, cluster_.open(checkpoint_file));
  PDC_ASSIGN_OR_RETURN(const std::uint64_t fsize, file.size());
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(fsize));
  PDC_RETURN_IF_ERROR(file.read(0, bytes, {}));
  SerialReader r(bytes);

  std::unique_lock lock(mu_);
  if (!objects_.empty() || !containers_.empty()) {
    return Status::FailedPrecondition("store is not empty");
  }
  PDC_RETURN_IF_ERROR(r.get(next_id_));
  std::uint64_t ncontainers = 0;
  PDC_RETURN_IF_ERROR(r.get(ncontainers));
  for (std::uint64_t i = 0; i < ncontainers; ++i) {
    ObjectId id = 0;
    std::string name;
    PDC_RETURN_IF_ERROR(r.get(id));
    PDC_RETURN_IF_ERROR(r.get_string(name));
    containers_.emplace(id, std::move(name));
  }
  std::uint64_t nobjects = 0;
  PDC_RETURN_IF_ERROR(r.get(nobjects));
  for (std::uint64_t i = 0; i < nobjects; ++i) {
    auto o = std::make_unique<ObjectDescriptor>();
    PDC_RETURN_IF_ERROR(deserialize_object(r, *o));
    const ObjectId id = o->id;
    objects_.emplace(id, std::move(o));
  }
  return Status::Ok();
}

}  // namespace pdc::obj
