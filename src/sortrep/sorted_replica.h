// Data reorganization with sorting (paper §III-D3).
//
// Builds a value-sorted copy of an object plus a permutation file mapping
// each sorted position back to the element's original position.  Range
// queries on the sort key then touch a *contiguous* run of sorted elements:
// interior regions are all-hits (min/max covers the query), only the two
// boundary regions need a binary search, and the matching data is one
// sequential read instead of scattered I/O.
//
// The replica is registered as a regular object in the ObjectStore (with
// its own regions/histograms — which are extremely tight, since sorting
// makes region min/max ranges disjoint) and linked to its source object.
#pragma once

#include <cstdint>
#include <vector>

#include "common/cost_model.h"
#include "common/status.h"
#include "common/types.h"
#include "obj/object_store.h"

namespace pdc::sortrep {

/// Outcome of a replica build.
struct BuildReport {
  ObjectId replica_id = kInvalidObjectId;
  /// Simulated one-time cost: read source + sort + write replica +
  /// write permutation.
  double build_cost_seconds = 0.0;
  /// Extra storage consumed (replica data + permutation), bytes.
  std::uint64_t extra_bytes = 0;
  /// Real (wall-clock) seconds the build took, and the worker threads it
  /// ran on (1 = serial).  Diagnostic only — never feeds simulated time.
  double wall_seconds = 0.0;
  std::uint32_t build_threads = 1;
};

/// Build (or fail if one exists) the sorted replica of `source`, using the
/// given ingest options for the replica's region decomposition.
/// The replica object is named "<source-name>.sorted".
///
/// When `options.pool` is set, the argsort runs as a parallel sample-free
/// merge sort (sorted chunks + segmented merges) and the value gather and
/// NaN pre-scan fan out over the pool.  Ties are broken on the original
/// position, which makes the sort order a total order — so every pool
/// size, including the serial default, produces byte-identical replica
/// data and permutation files.
Result<BuildReport> build_sorted_replica(obj::ObjectStore& store,
                                         ObjectId source,
                                         const obj::ImportOptions& options);

/// Overload that inherits the source object's region size.
Result<BuildReport> build_sorted_replica(obj::ObjectStore& store,
                                         ObjectId source);

/// Fold the source's write delta log into its existing sorted replica
/// (PAM-style, once the log grows past its threshold): read the replica
/// and its permutation, drop the entries whose source position the log
/// relocates, and merge the sorted log entries in — segmented over `pool`
/// when one is given.  Ties break on source position as in the build's
/// argsort, so the data and permutation files are byte-identical to a
/// fresh build on the current data at any pool width.  Overwrites both
/// files, clears the log and marks the replica synced to the source's
/// data epoch.  Fails before touching any file, keeping the log (merged
/// reads keep working), with InvalidArgument if a log entry is NaN and
/// FailedPrecondition if the log misses writes (made with maintenance
/// off).
Status rebuild_sorted_replica(obj::ObjectStore& store, ObjectId source,
                              exec::ThreadPool* pool = nullptr);

/// Translate a sorted-space element extent into the original element
/// positions (reads the permutation file; one contiguous read).
Result<std::vector<std::uint64_t>> map_to_source_positions(
    const obj::ObjectStore& store, const obj::ObjectDescriptor& replica,
    Extent1D sorted_extent, const pfs::ReadContext& ctx);

}  // namespace pdc::sortrep
