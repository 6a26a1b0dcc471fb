// Write-path tests (mutable regions): epoch/staleness bookkeeping,
// delta-WAH compaction byte-identity, sorted-delta merge determinism and
// fold byte-identity, epoch-keyed region-cache invalidation, and the
// maintenance args on the server's write span.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_pool.h"
#include "common/rng.h"
#include "common/serial.h"
#include "obj/object_store.h"
#include "query/service.h"
#include "server/region_cache.h"
#include "sortrep/sorted_replica.h"

namespace pdc::query {
namespace {

using server::Strategy;

[[nodiscard]] std::span<const std::uint8_t> float_bytes(
    const std::vector<float>& values) {
  return {reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(float)};
}

/// A float column with a bitmap index and optionally a sorted replica,
/// plus a shadow copy of the values for brute-force checks.  The default
/// is one small column (64 elements, 16 per region = 4 regions).
class WriteEnv {
 public:
  static constexpr std::uint64_t kN = 64;
  static constexpr std::uint64_t kRegionBytes = 64;  // 16 floats per region

  explicit WriteEnv(const std::string& root, bool with_replica = false)
      : WriteEnv(root, ramp(), kRegionBytes, with_replica) {}

  WriteEnv(const std::string& root, std::vector<float> values,
           std::uint64_t region_bytes, bool with_replica)
      : root_(root), values_(std::move(values)) {
    std::filesystem::remove_all(root_);
    pfs::PfsConfig cfg;
    cfg.root_dir = root_;
    cluster_ = std::move(pfs::PfsCluster::Create(cfg)).value();
    store_ = std::make_unique<obj::ObjectStore>(*cluster_);

    obj::ImportOptions options;
    options.region_size_bytes = region_bytes;
    const ObjectId container =
        std::move(store_->create_container("wtest")).value();
    id_ = std::move(store_->import_object<float>(
                        container, "col", std::span<const float>(values_),
                        options))
              .value();
    if (!store_->build_bitmap_index(id_).ok()) std::abort();
    if (with_replica) {
      auto replica = sortrep::build_sorted_replica(*store_, id_, options);
      if (!replica.ok()) std::abort();
    }
  }

  ~WriteEnv() { std::filesystem::remove_all(root_); }

  // Overwrite the shadow copy in lockstep with the store.
  void shadow_overwrite(std::uint64_t offset,
                        const std::vector<float>& values) {
    std::copy(values.begin(), values.end(), values_.begin() + offset);
  }
  void shadow_append(const std::vector<float>& values) {
    values_.insert(values_.end(), values.begin(), values.end());
  }

  [[nodiscard]] std::vector<std::uint64_t> brute_force_gt(double x) const {
    std::vector<std::uint64_t> hits;
    for (std::uint64_t i = 0; i < values_.size(); ++i) {
      if (values_[i] > x) hits.push_back(i);
    }
    return hits;
  }

  [[nodiscard]] const obj::ObjectDescriptor& desc() const {
    return *std::move(store_->get(id_)).value();
  }
  [[nodiscard]] const obj::ObjectDescriptor& replica() const {
    return *std::move(store_->get(*store_->sorted_replica_of(id_))).value();
  }

  /// Apply one write straight to the store and mirror it in the shadow.
  [[nodiscard]] obj::WriteResult write(obj::WriteKind kind,
                                       std::uint64_t offset,
                                       const std::vector<float>& values,
                                       const obj::WriteOptions& options = {}) {
    auto result =
        store_->apply_write(id_, kind, Extent1D{offset, values.size()},
                            float_bytes(values), ++seq_, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    if (kind == obj::WriteKind::kAppend) {
      shadow_append(values);
    } else {
      shadow_overwrite(offset, values);
    }
    return *result;
  }

  std::string root_;
  std::unique_ptr<pfs::PfsCluster> cluster_;
  std::unique_ptr<obj::ObjectStore> store_;
  std::vector<float> values_;
  ObjectId id_ = kInvalidObjectId;
  std::uint64_t seq_ = 0;

 private:
  static std::vector<float> ramp() {
    std::vector<float> values(kN);
    for (std::uint64_t i = 0; i < kN; ++i) {
      values[i] = static_cast<float>(i) / static_cast<float>(kN);
    }
    return values;
  }
};

[[nodiscard]] std::string test_root(const std::string& leaf) {
  return ::testing::TempDir() + "/write_path_" + leaf;
}

/// Run a kGT query through every read strategy and require the exact
/// brute-force answer; returns the stats of the last strategy run.
OpStats check_all_strategies(WriteEnv& env, double threshold) {
  OpStats last{};
  for (const Strategy strategy :
       {Strategy::kFullScan, Strategy::kHistogram, Strategy::kHistogramIndex,
        Strategy::kSortedHistogram, Strategy::kAdaptive}) {
    ServiceOptions options;
    options.num_servers = 3;
    options.strategy = strategy;
    QueryService service(std::as_const(*env.store_), options);
    const auto q = create(env.id_, QueryOp::kGT, threshold);
    auto selection = service.get_selection(q);
    EXPECT_TRUE(selection.ok()) << selection.status().ToString();
    if (!selection.ok()) continue;
    const auto want = env.brute_force_gt(threshold);
    EXPECT_EQ(selection->num_hits, want.size())
        << "strategy " << static_cast<int>(strategy);
    EXPECT_EQ(selection->positions, want)
        << "strategy " << static_cast<int>(strategy);
    last = service.last_stats();
  }
  return last;
}

// ---------------------------------------------------------------------------
// Group 1: epoch-staleness fallback table.
// ---------------------------------------------------------------------------

TEST(WritePathEpochs, AbsorbableOverwriteKeepsIndexFresh) {
  WriteEnv env(test_root("absorb"));
  // Region 0 holds values 0/64 .. 15/64; both replacement values lie
  // strictly inside that range and off every bin edge, so the delta-WAH
  // sidecar absorbs them and the index stays usable.
  const std::vector<float> repl{0.1234567f, 0.0712345f};
  auto result = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                        Extent1D{5, 2}, float_bytes(repl),
                                        /*write_seq=*/1, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  env.shadow_overwrite(5, repl);

  EXPECT_EQ(result->data_epoch, 2u);
  EXPECT_EQ(result->regions_touched, 1u);
  EXPECT_FALSE(result->duplicate);
  EXPECT_FALSE(result->compacted);

  const auto& desc = env.desc();
  EXPECT_EQ(desc.data_epoch, 2u);
  EXPECT_EQ(desc.regions[0].data_epoch, 2u);
  EXPECT_TRUE(desc.regions[0].index_fresh());
  EXPECT_EQ(desc.regions[0].delta.entries.size(), 2u);
  for (std::size_t r = 1; r < desc.regions.size(); ++r) {
    EXPECT_EQ(desc.regions[r].data_epoch, 1u) << "region " << r;
    EXPECT_TRUE(desc.regions[r].index_fresh()) << "region " << r;
    EXPECT_TRUE(desc.regions[r].delta.empty()) << "region " << r;
  }

  const OpStats stats = check_all_strategies(env, 0.07);
  EXPECT_EQ(stats.regions_stale, 0u);
  EXPECT_EQ(stats.max_data_epoch, 2u);
}

TEST(WritePathEpochs, OutOfRangeOverwriteFallsBackToScan) {
  WriteEnv env(test_root("oor"));
  // 7.5 is far outside region 1's base bin range: the delta cannot encode
  // it, so the region goes stale and every indexed read must scan it.
  const std::vector<float> repl{7.5f};
  auto result = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                        Extent1D{20, 1}, float_bytes(repl),
                                        /*write_seq=*/1, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  env.shadow_overwrite(20, repl);

  const auto& desc = env.desc();
  EXPECT_EQ(desc.regions[1].data_epoch, 2u);
  EXPECT_FALSE(desc.regions[1].index_fresh());

  // Queries must still be exact — including the new out-of-band hit.
  const auto want = env.brute_force_gt(5.0);
  ASSERT_EQ(want, std::vector<std::uint64_t>{20});
  ServiceOptions options;
  options.num_servers = 3;
  options.strategy = Strategy::kHistogramIndex;
  QueryService service(std::as_const(*env.store_), options);
  auto selection = service.get_selection(create(env.id_, QueryOp::kGT, 5.0));
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  EXPECT_EQ(selection->positions, want);
  const OpStats stats = service.last_stats();
  EXPECT_GE(stats.regions_stale, 1u);
  EXPECT_EQ(stats.max_data_epoch, 2u);

  check_all_strategies(env, 0.3);
}

TEST(WritePathEpochs, MaintenanceOffGoesStaleWithEmptyDelta) {
  WriteEnv env(test_root("nomaint"));
  const std::vector<float> repl{0.1234567f};
  obj::WriteOptions wopts;
  wopts.maintain_accelerators = false;
  auto result = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                        Extent1D{5, 1}, float_bytes(repl),
                                        /*write_seq=*/1, wopts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  env.shadow_overwrite(5, repl);

  const auto& desc = env.desc();
  EXPECT_FALSE(desc.regions[0].index_fresh());
  EXPECT_TRUE(desc.regions[0].delta.empty());
  // Histograms are always maintained, so pruning stays sound and every
  // strategy still returns the exact answer via scan fallback.
  const OpStats stats = check_all_strategies(env, 0.07);
  EXPECT_EQ(stats.max_data_epoch, 2u);
}

TEST(WritePathEpochs, AppendGrowsObjectAndMarksNewRegionsStale) {
  WriteEnv env(test_root("append"));
  std::vector<float> extra(20);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    extra[i] = 2.0f + static_cast<float>(i) * 0.125f;
  }
  auto result = env.store_->apply_write(env.id_, obj::WriteKind::kAppend,
                                        Extent1D{}, float_bytes(extra),
                                        /*write_seq=*/1, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  env.shadow_append(extra);

  const auto& desc = env.desc();
  EXPECT_EQ(desc.num_elements, WriteEnv::kN + 20);
  ASSERT_GE(desc.regions.size(), 5u);
  // Appended elements have no base index coverage: their regions are stale.
  bool any_stale = false;
  for (const auto& region : desc.regions) {
    if (!region.index_fresh()) any_stale = true;
  }
  EXPECT_TRUE(any_stale);
  // Every query over the grown object is exact, including appended hits.
  const auto want = env.brute_force_gt(1.5);
  ASSERT_EQ(want.size(), 20u);
  check_all_strategies(env, 1.5);
  check_all_strategies(env, 0.3);
}

TEST(WritePathEpochs, DuplicateWriteSeqAcknowledgedWithoutReapply) {
  WriteEnv env(test_root("dup"));
  const std::vector<float> first{0.1234567f};
  auto r1 = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                    Extent1D{5, 1}, float_bytes(first),
                                    /*write_seq=*/7, {});
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  env.shadow_overwrite(5, first);

  // A replay under the same sequence number — even with different bytes,
  // as a confused retry might carry — must be acknowledged, not applied.
  const std::vector<float> imposter{0.9f};
  auto r2 = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                    Extent1D{6, 1}, float_bytes(imposter),
                                    /*write_seq=*/7, {});
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r2->duplicate);
  EXPECT_EQ(r2->data_epoch, r1->data_epoch);
  EXPECT_EQ(env.desc().data_epoch, r1->data_epoch);

  // Position 6 still holds its original value.
  float got = 0.0f;
  const pfs::ReadContext ctx{};
  ASSERT_TRUE(env.store_
                  ->read_elements(env.desc(), Extent1D{6, 1},
                                  {reinterpret_cast<std::uint8_t*>(&got),
                                   sizeof(got)},
                                  ctx)
                  .ok());
  EXPECT_EQ(got, 6.0f / 64.0f);
  check_all_strategies(env, 0.07);
}

// ---------------------------------------------------------------------------
// Group 2: delta-WAH compaction is byte-identical to a fresh build.
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> read_whole_file(
    pfs::PfsCluster& cluster, const std::string& name) {
  auto size = cluster.file_size(name);
  EXPECT_TRUE(size.ok()) << size.status().ToString();
  auto file = cluster.open(name);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  std::vector<std::uint8_t> bytes(*size);
  const pfs::ReadContext ctx{};
  EXPECT_TRUE(file->read(0, bytes, ctx).ok());
  return bytes;
}

/// Regions whose base index lags their data: the ones a compaction
/// re-indexes.
[[nodiscard]] std::uint64_t lagging_regions(const obj::ObjectDescriptor& d) {
  return static_cast<std::uint64_t>(std::count_if(
      d.regions.begin(), d.regions.end(), [](const obj::RegionDescriptor& r) {
        return r.index_bytes == 0 || r.index_epoch != r.data_epoch;
      }));
}

TEST(WritePathCompaction, CompactedIndexMatchesFreshBuildByteForByte) {
  // Store A: import, build, then overwrite through the write path with
  // compaction firing on every absorbed write (threshold 1).
  WriteEnv env(test_root("compact_a"));
  obj::WriteOptions wopts;
  wopts.compact_threshold = 1;
  const std::vector<std::pair<std::uint64_t, float>> writes{
      {3, 0.1234567f}, {17, 0.3177777f}, {40, 0.7012345f}, {62, 0.9712311f}};
  bool saw_compaction = false;
  for (const auto& [pos, value] : writes) {
    const auto result =
        env.write(obj::WriteKind::kOverwrite, pos, {value}, wopts);
    saw_compaction |= result.compacted;
    EXPECT_EQ(result.regions_reindexed, result.compacted ? 1u : 0u);
  }
  EXPECT_TRUE(saw_compaction);

  // Warm the index cache on region 0, which no later write touches: the
  // query's hits all lie there, and the histograms prune every other
  // region.
  ServiceOptions options;
  options.num_servers = 1;
  options.strategy = Strategy::kHistogramIndex;
  QueryService reader(std::as_const(*env.store_), options);
  const auto clean_query = create(env.id_, QueryOp::kLT, 0.1);
  ASSERT_TRUE(reader.get_selection(clean_query).ok());
  const std::uint64_t cold_reads = reader.last_stats().server_read_ops;
  ASSERT_TRUE(reader.get_selection(clean_query).ok());
  const std::uint64_t warm_reads = reader.last_stats().server_read_ops;
  EXPECT_LT(warm_reads, cold_reads);

  // Leave regions lagging before the write that crosses the threshold:
  // an unabsorbable value makes region 1 stale, and an append adds
  // region 4.  Neither compacts.
  EXPECT_FALSE(
      env.write(obj::WriteKind::kOverwrite, 20, {7.5f}, wopts).compacted);
  EXPECT_FALSE(env.write(obj::WriteKind::kAppend, 0,
                         {2.0f, 2.25f, 2.5f, 2.75f, 3.0f, 3.25f, 3.5f, 3.75f},
                         wopts)
                   .compacted);
  ASSERT_EQ(env.desc().regions.size(), 5u);
  ASSERT_EQ(lagging_regions(env.desc()), 2u);
  // The crossing write lags region 2 too: three regions to re-index.
  const auto crossing =
      env.write(obj::WriteKind::kOverwrite, 45, {0.6012345f}, wopts);
  EXPECT_TRUE(crossing.compacted);
  EXPECT_EQ(crossing.regions_reindexed, 3u);
  EXPECT_EQ(lagging_regions(env.desc()), 0u);

  // Region 0 kept its index epoch, so its cached bins still hit.
  auto again = reader.get_selection(clean_query);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(reader.last_stats().server_read_ops, warm_reads);

  // Store B: import the final data directly and build the index once.
  const WriteEnv fresh(test_root("compact_b"), env.values_,
                       WriteEnv::kRegionBytes, /*with_replica=*/false);
  const auto& desc_a = env.desc();
  const auto& desc_b = fresh.desc();

  // Region metadata: identical layout, headers, and epochs-all-synced.
  ASSERT_EQ(desc_a.regions.size(), desc_b.regions.size());
  for (std::size_t r = 0; r < desc_a.regions.size(); ++r) {
    const auto& ra = desc_a.regions[r];
    const auto& rb = desc_b.regions[r];
    EXPECT_TRUE(ra.index_fresh()) << "region " << r;
    EXPECT_TRUE(ra.delta.empty()) << "region " << r;
    EXPECT_EQ(ra.index_offset, rb.index_offset) << "region " << r;
    EXPECT_EQ(ra.index_bytes, rb.index_bytes) << "region " << r;
    EXPECT_EQ(ra.index_header_bytes, rb.index_header_bytes) << "region " << r;
    EXPECT_EQ(ra.index_header, rb.index_header) << "region " << r;
  }

  // The whole index file is byte-for-byte the fresh build.
  const auto bytes_a = read_whole_file(*env.cluster_, desc_a.index_file);
  const auto bytes_b = read_whole_file(*fresh.cluster_, desc_b.index_file);
  EXPECT_EQ(bytes_a, bytes_b);

  // And an explicit rebuild on top of the compacted state is a no-op at
  // the byte level.
  ASSERT_TRUE(env.store_->rebuild_bitmap_index(env.id_).ok());
  const auto bytes_a2 = read_whole_file(*env.cluster_, env.desc().index_file);
  EXPECT_EQ(bytes_a2, bytes_b);

  check_all_strategies(env, 0.3);
  check_all_strategies(env, 1.5);
}

// ---------------------------------------------------------------------------
// Group 3: sorted-delta merge is deterministic across pool widths.
// ---------------------------------------------------------------------------

TEST(WritePathSortedDelta, MergeDeterministicAcrossPoolWidths) {
  WriteEnv env(test_root("sorted"), /*with_replica=*/true);
  // Leave a delta log pending: writes maintain the log but no rebuild
  // (threshold far above the write count), so the sorted strategy must
  // merge base + delta on every read.
  const std::vector<std::pair<std::uint64_t, float>> writes{
      {2, 0.8412345f}, {33, 0.0212345f}, {50, 0.4312345f}};
  std::uint64_t seq = 0;
  for (const auto& [pos, value] : writes) {
    const std::vector<float> one{value};
    auto result = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                          Extent1D{pos, 1}, float_bytes(one),
                                          ++seq, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    env.shadow_overwrite(pos, one);
  }
  ASSERT_FALSE(env.desc().sorted_delta.empty());

  const auto want = env.brute_force_gt(0.4);
  std::vector<std::uint64_t> first_positions;
  std::vector<float> first_values;
  for (const std::uint32_t threads : {1u, 4u, 8u}) {
    ServiceOptions options;
    options.num_servers = 3;
    options.strategy = Strategy::kSortedHistogram;
    options.eval_threads = threads;
    QueryService service(std::as_const(*env.store_), options);
    auto selection = service.get_selection(create(env.id_, QueryOp::kGT, 0.4));
    ASSERT_TRUE(selection.ok()) << selection.status().ToString();
    EXPECT_EQ(selection->positions, want) << "threads " << threads;

    std::vector<float> got(selection->num_hits);
    ASSERT_TRUE(service
                    .get_data<float>(env.id_, *selection, got,
                                     GetDataMode::kByPositions)
                    .ok());
    if (first_positions.empty() && !want.empty()) {
      first_positions = selection->positions;
      first_values = got;
    } else {
      EXPECT_EQ(selection->positions, first_positions)
          << "threads " << threads;
      EXPECT_EQ(std::memcmp(got.data(), first_values.data(),
                            got.size() * sizeof(float)),
                0)
          << "threads " << threads;
    }
  }
}

TEST(WritePathSortedDelta, BulkRebuildFoldsDeltaLog) {
  WriteEnv env(test_root("rebuild"), /*with_replica=*/true);
  const std::vector<float> repl{0.8412345f};
  auto result = env.store_->apply_write(env.id_, obj::WriteKind::kOverwrite,
                                        Extent1D{2, 1}, float_bytes(repl),
                                        /*write_seq=*/1, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  env.shadow_overwrite(2, repl);
  ASSERT_FALSE(env.desc().sorted_delta.empty());

  ASSERT_TRUE(sortrep::rebuild_sorted_replica(*env.store_, env.id_).ok());
  EXPECT_TRUE(env.desc().sorted_delta.empty());
  EXPECT_EQ(env.desc().replica_synced_epoch, env.desc().data_epoch);
  check_all_strategies(env, 0.4);
}

[[nodiscard]] std::vector<std::uint8_t> histogram_bytes(
    const hist::MergeableHistogram& histogram) {
  SerialWriter w;
  histogram.serialize(w);
  return w.take();
}

/// A 2^18-float column — large enough for the fold's merge to split into
/// segments over a pool — and a seeded schedule of overwrites plus one
/// append.  The base sits on a coarse grid (many exact ties) with -0.0
/// sprinkled in; written values mix exact duplicates of base values,
/// -0.0/+0.0, +-inf, subnormals, the column min/max and fresh values.
struct FoldSchedule {
  static constexpr std::uint64_t kN = 1u << 18;
  static constexpr std::uint64_t kRegionBytes = 16u << 10;  // 64 regions

  struct Write {
    obj::WriteKind kind;
    std::uint64_t offset;
    std::vector<float> values;
  };

  FoldSchedule() {
    Rng rng(0xF01D);
    base.resize(kN);
    for (float& v : base) {
      v = static_cast<float>(rng.next_u64() % 4096) / 64.0f - 32.0f;
    }
    for (std::uint64_t i = 0; i < kN; i += 997) base[i] = -0.0f;
    const auto [lo, hi] = std::minmax_element(base.begin(), base.end());
    const std::array<float, 9> specials{
        -0.0f, 0.0f, std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), 1e-40f, *lo, *hi};
    const auto draw = [&] {
      switch (rng.next_u64() % 3) {
        case 0: return specials[rng.next_u64() % specials.size()];
        case 1: return base[rng.next_u64() % kN];
        default: return static_cast<float>(rng.next_double() * 80.0 - 40.0);
      }
    };
    final_values = base;
    for (int w = 0; w < 48; ++w) {
      const std::uint64_t len = 1 + rng.next_u64() % 160;
      const std::uint64_t offset = rng.next_u64() % (kN - len);
      std::vector<float> values(len);
      for (float& v : values) v = draw();
      std::copy(values.begin(), values.end(),
                final_values.begin() + static_cast<std::ptrdiff_t>(offset));
      writes.push_back({obj::WriteKind::kOverwrite, offset, std::move(values)});
    }
    std::vector<float> tail(1500);
    for (float& v : tail) v = draw();
    final_values.insert(final_values.end(), tail.begin(), tail.end());
    writes.push_back({obj::WriteKind::kAppend, 0, std::move(tail)});
  }

  void apply(WriteEnv& env) const {
    for (const Write& w : writes) (void)env.write(w.kind, w.offset, w.values);
  }

  std::vector<float> base;
  std::vector<float> final_values;
  std::vector<Write> writes;
};

TEST(WritePathSortedDelta, FoldMatchesFreshBuildAtEveryPoolWidth) {
  const FoldSchedule schedule;
  const WriteEnv fresh(test_root("fold_fresh"), schedule.final_values,
                       FoldSchedule::kRegionBytes, /*with_replica=*/true);
  const obj::ObjectDescriptor& want = fresh.replica();
  const auto want_data = read_whole_file(*fresh.cluster_, want.data_file);
  const auto want_perm =
      read_whole_file(*fresh.cluster_, want.permutation_file);

  for (const std::uint32_t width : {1u, 4u, 8u}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    WriteEnv env(test_root("fold_" + std::to_string(width)), schedule.base,
                 FoldSchedule::kRegionBytes, /*with_replica=*/true);
    schedule.apply(env);
    ASSERT_EQ(env.values_, schedule.final_values);
    ASSERT_GT(env.desc().sorted_delta.size(), 1500u);

    exec::ThreadPool pool(width);
    const Status folded =
        sortrep::rebuild_sorted_replica(*env.store_, env.id_, &pool);
    ASSERT_TRUE(folded.ok()) << folded.ToString();
    EXPECT_TRUE(env.desc().sorted_delta.empty());
    EXPECT_EQ(env.desc().replica_synced_epoch, env.desc().data_epoch);

    const obj::ObjectDescriptor& got = env.replica();
    EXPECT_EQ(read_whole_file(*env.cluster_, got.data_file), want_data);
    EXPECT_EQ(read_whole_file(*env.cluster_, got.permutation_file),
              want_perm);
    ASSERT_EQ(got.regions.size(), want.regions.size());
    for (std::size_t r = 0; r < got.regions.size(); ++r) {
      EXPECT_EQ(histogram_bytes(got.regions[r].histogram),
                histogram_bytes(want.regions[r].histogram))
          << "region " << r;
    }
    EXPECT_EQ(histogram_bytes(got.global_histogram),
              histogram_bytes(want.global_histogram));
  }
}

TEST(WritePathSortedDelta, FoldRejectsNaNBeforeTouchingAnyFile) {
  WriteEnv env(test_root("fold_nan"), /*with_replica=*/true);
  (void)env.write(obj::WriteKind::kOverwrite, 2, {0.8412345f});
  (void)env.write(obj::WriteKind::kOverwrite, 9,
                  {std::numeric_limits<float>::quiet_NaN()});
  const obj::ObjectDescriptor& rep = env.replica();
  const auto data_before = read_whole_file(*env.cluster_, rep.data_file);
  const auto perm_before =
      read_whole_file(*env.cluster_, rep.permutation_file);
  const auto log_before = env.desc().sorted_delta;
  ASSERT_EQ(log_before.size(), 2u);

  EXPECT_EQ(sortrep::rebuild_sorted_replica(*env.store_, env.id_).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(read_whole_file(*env.cluster_, rep.data_file), data_before);
  EXPECT_EQ(read_whole_file(*env.cluster_, rep.permutation_file),
            perm_before);
  EXPECT_EQ(env.desc().sorted_delta, log_before);
  // Merged reads over the kept log stay exact.
  check_all_strategies(env, 0.4);
}

TEST(WritePathSortedDelta, FoldRejectsIncompleteLog) {
  WriteEnv env(test_root("fold_gap"), /*with_replica=*/true);
  (void)env.write(obj::WriteKind::kOverwrite, 2, {0.8412345f});
  // A write with maintenance off drops the log: it no longer covers every
  // write since the replica was synced.
  obj::WriteOptions no_maint;
  no_maint.maintain_accelerators = false;
  (void)env.write(obj::WriteKind::kOverwrite, 40, {0.0312345f}, no_maint);
  (void)env.write(obj::WriteKind::kOverwrite, 50, {0.4312345f});

  EXPECT_EQ(sortrep::rebuild_sorted_replica(*env.store_, env.id_).code(),
            StatusCode::kFailedPrecondition);
  check_all_strategies(env, 0.4);
}

// ---------------------------------------------------------------------------
// Group 4: epoch-keyed cache invalidation.
// ---------------------------------------------------------------------------

TEST(WritePathCache, EpochMismatchDropsEntryAndCountsInvalidation) {
  server::RegionCache cache(1 << 20);
  const server::RegionCache::Key key{42, 3};
  auto buffer = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 2, 3, 4});
  cache.put(key, buffer, /*epoch=*/1);
  ASSERT_NE(cache.get(key, 1), nullptr);
  EXPECT_EQ(cache.invalidations(), 0u);

  // A write bumped the region's epoch: the cached entry must be dropped,
  // never served.
  EXPECT_EQ(cache.get(key, 2), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.entries(), 0u);

  // Re-populating under the new epoch serves again.
  cache.put(key, buffer, /*epoch=*/2);
  EXPECT_NE(cache.get(key, 2), nullptr);
}

TEST(WritePathCache, OverwriteThroughServiceInvalidatesWarmCache) {
  WriteEnv env(test_root("cache_e2e"));
  ServiceOptions options;
  options.num_servers = 3;
  options.strategy = Strategy::kFullScan;
  QueryService service(*env.store_, options);  // writable

  // Warm the region caches.
  const auto q = create(env.id_, QueryOp::kGT, 0.9);
  auto before = service.get_selection(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->positions, env.brute_force_gt(0.9));

  // Push a value across the query threshold through the service.
  const std::vector<float> repl{0.9512345f};
  auto report = service.overwrite(env.id_, Extent1D{10, 1},
                                  float_bytes(repl));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->data_epoch, 2u);
  EXPECT_EQ(report->regions_touched, 1u);
  env.shadow_overwrite(10, repl);

  // The re-run must see the new bytes (stale cache would miss position 10).
  auto after = service.get_selection(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const auto want = env.brute_force_gt(0.9);
  ASSERT_TRUE(std::find(want.begin(), want.end(), 10u) != want.end());
  EXPECT_EQ(after->positions, want);
  EXPECT_EQ(service.last_stats().max_data_epoch, 2u);
}

TEST(WritePathCache, ReadOnlyServiceRejectsWrites) {
  WriteEnv env(test_root("readonly"));
  ServiceOptions options;
  options.num_servers = 2;
  QueryService service(std::as_const(*env.store_), options);
  const std::vector<float> repl{0.5f};
  auto report = service.overwrite(env.id_, Extent1D{0, 1}, float_bytes(repl));
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Group 5: the server's write span carries its maintenance work.
// ---------------------------------------------------------------------------

TEST(WritePathTrace, TransferWriteSpanReportsReindexAndFold) {
  WriteEnv env(test_root("trace"), /*with_replica=*/true);
  ServiceOptions options;
  options.num_servers = 2;
  options.compact_threshold = 2;
  options.replica_rebuild_threshold = 2;
  QueryService service(*env.store_, options);  // writable
  QueryOptions traced;
  traced.trace = true;

  // Two absorbable values in region 0: the sidecar reaches the compaction
  // threshold and the log the fold threshold in the same write.
  const std::vector<float> repl{0.1234567f, 0.0712345f};
  auto report =
      service.overwrite(env.id_, Extent1D{5, 2}, float_bytes(repl), traced);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->compacted);
  env.shadow_overwrite(5, repl);

  const auto trace = service.last_trace();
  ASSERT_NE(trace, nullptr);
  const auto span = std::find_if(
      trace->spans.begin(), trace->spans.end(),
      [](const obs::Span& s) { return s.name == "server.transfer_write"; });
  ASSERT_NE(span, trace->spans.end());
  EXPECT_EQ(span->arg("compacted", -1.0), 1.0);
  EXPECT_EQ(span->arg("regions_reindexed", -1.0), 1.0);
  EXPECT_EQ(span->arg("replica_rebuilt", -1.0), 1.0);
  EXPECT_EQ(span->arg("fold_entries", -1.0), 2.0);
  EXPECT_TRUE(env.desc().sorted_delta.empty());
  check_all_strategies(env, 0.07);
}

}  // namespace
}  // namespace pdc::query
