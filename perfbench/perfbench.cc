// Closed-loop wall-clock benchmark of the query service (see README.md).
//
//   pdc_perfbench --workload vpic-read|vpic-write|boss-catalog --seed N
//                 --seconds S --trace 0|1 --dir SCRATCH [--variant V]
//   pdc_perfbench --selftest
//
// Each workload is set up from an empty store three times (setup_s is the
// median), then two client threads drive the last deployment closed-loop
// for S seconds; rates and percentiles are taken over the whole run.
// Every answer is checked against an oracle computed outside the timed
// phases.
// With --trace 0 the last stdout line is the JSON result carrying the
// end-to-end metrics; with --trace 1 it carries
// the per-layer breakdown read from span trees, metric-counter deltas and
// WriteReports, plus direct kernel probes.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_pool.h"
#include "common/rng.h"
#include "kernels/kernels.h"
#include "metadata/meta_store.h"
#include "obj/object_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pfs/pfs.h"
#include "query/query.h"
#include "query/service.h"
#include "sortrep/sorted_replica.h"
#include "spans.h"
#include "workloads/boss.h"
#include "workloads/vpic.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using pdc::ObjectId;
using pdc::QueryOp;
using pdc::query::QueryService;

constexpr std::uint32_t kServers = 4;
constexpr std::uint32_t kEvalThreads = 4;
constexpr std::uint32_t kBuildThreads = 4;
constexpr int kClients = 2;
/// Set-ups per run; setup_s and the per-layer build times are medians.
constexpr std::size_t kSetupReps = 3;
/// Fewest samples an op type needs in an untraced run, so that at least ten
/// lie beyond its p99; a run with fewer fails its check.
constexpr std::size_t kMinSamples = 1000;

constexpr std::uint64_t kVpicParticles = 1ull << 21;
constexpr std::uint64_t kVpicRegionBytes = 32 * 1024;
constexpr std::uint64_t kWriteElements = 64;
/// vpic-write steps go read pair, read pair, write: one op in five writes.
constexpr std::uint64_t kWriteEvery = 3;
/// Every 128th write of a client compacts the energy index (one compaction
/// per 64 writes across both clients, like the replica rebuilds).
constexpr std::uint64_t kCompactEvery = 128;

constexpr std::uint32_t kBossObjects = 200000;
constexpr std::uint32_t kJoinSources = 12000;
constexpr double kJoinEpsilon = 0.125;
constexpr double kJoinZoneHeight = 0.5;
constexpr std::size_t kMetaSpecs = 96;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void check(const pdc::Status& status, const char* what) {
  if (!status.ok()) die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T unwrap(pdc::Result<T> result, const char* what) {
  check(result.status(), what);
  return std::move(result).value();
}

/// Independent stream seeds derived from the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile (q in (0,1]) of `values`.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ------------------------------------------------- benchmark-side spans

/// Spans the benchmark records around its own calls into each layer
/// (setup builds, kernel probes, service operations).  Kept in memory and
/// written out as Chrome trace JSON when the run ends.
class BenchSpans {
 public:
  void record(const char* name, std::uint64_t start_us, std::uint64_t end_us,
              int thread) {
    std::lock_guard lock(mu_);
    spans_.push_back({name, start_us, end_us, thread});
  }

  void write_json(const fs::path& path) const {
    std::lock_guard lock(mu_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) die("cannot write " + path.string());
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Entry& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %llu, \"dur\": %llu}%s\n",
                   s.name, s.thread, static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end - s.start),
                   i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(out, "]}\n");
    std::fclose(out);
  }

 private:
  struct Entry {
    const char* name;  ///< string literal
    std::uint64_t start;
    std::uint64_t end;
    int thread;
  };
  mutable std::mutex mu_;
  std::vector<Entry> spans_;
};

/// Run `fn`, return its wall seconds, and record a span when `spans` is set.
template <typename F>
double timed(BenchSpans* spans, const char* name, F&& fn) {
  const std::uint64_t start_us = pdc::obs::now_us();
  const auto t0 = Clock::now();
  fn();
  const double seconds = seconds_since(t0);
  if (spans != nullptr) spans->record(name, start_us, pdc::obs::now_us(), -1);
  return seconds;
}

// ------------------------------------------------------------ clients

enum Op : int { kQuery = 0, kGetData, kWrite, kMeta, kJoin, kNumOps };
constexpr std::array<const char*, kNumOps> kOpNames = {
    "query", "get_data", "write", "meta", "join"};
/// Root span of each operation's trace.
constexpr std::array<const char*, kNumOps> kRootSpans = {
    "client.query", "client.get_data", "client.transfer_write",
    "client.meta_query", "client.join"};

/// One closed-loop client.  Only its own thread touches it while a phase
/// runs.
struct Client {
  Client(int id_in, std::uint64_t seed)
      : id(id_in), rng(mix(seed, 100 + id_in)) {}

  int id;
  pdc::Rng rng;           ///< the client's op stream, fixed by the seed
  std::uint64_t step = 0;  ///< steps taken (a step is one or two ops)
  bool recording = false;  ///< keep latencies (off during warm-up)
  bool tracing = false;    ///< run ops with QueryOptions::trace
  BenchSpans* spans = nullptr;

  std::array<std::vector<double>, kNumOps> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::array<std::uint64_t, kNumOps> failed_by_op{};
  std::uint64_t compactions = 0;  ///< WriteReport.compacted

  std::array<LayerTotals, kNumOps> layers;
  std::shared_ptr<const pdc::obs::Trace> last_seen;
  double stalled_s = 0.0;  ///< this phase's time spent folding span trees

  [[nodiscard]] pdc::query::QueryOptions options() const {
    return pdc::query::QueryOptions{.trace = tracing};
  }
};

/// Report the first few failed calls on stderr (the count goes in the
/// result either way).
bool failed_call(const pdc::Status& status, const char* what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
  }
  return false;
}

/// Time one service operation: `fn` returns true when the call succeeded
/// and its answer checked out.
template <typename F>
bool call(QueryService& service, Client& c, Op op, F&& fn) {
  const std::uint64_t start_us = pdc::obs::now_us();
  const auto t0 = Clock::now();
  const bool ok = fn();
  const double ms = seconds_since(t0) * 1e3;
  ++c.attempted;
  if (!ok) {
    ++c.failed;
    ++c.failed_by_op[op];
  }
  if (c.recording) c.latency_ms[op].push_back(ms);
  if (c.spans != nullptr) {
    c.spans->record(kOpNames[op], start_us, pdc::obs::now_us(), c.id);
  }
  if (c.tracing) {
    // Only this client traces in the current pass, so the shared
    // last-trace slot holds this op's tree (or an older one when the op
    // failed before publishing, which the pointer check skips).
    const auto t1 = Clock::now();
    auto trace = service.last_trace();
    if (trace != nullptr && trace != c.last_seen) {
      c.last_seen = trace;
      const auto root = std::find_if(
          trace->spans.begin(), trace->spans.end(),
          [](const pdc::obs::Span& s) { return s.parent == 0; });
      if (root != trace->spans.end() && root->name == kRootSpans[op]) {
        c.layers[op].add(*trace);
      }
    }
    c.stalled_s += seconds_since(t1);
  }
  return ok;
}

// ---------------------------------------------------------- workloads

struct SetupTimes {
  double total_s = 0.0;
  double import_s = 0.0;   ///< obj: column / catalog-pair ingest
  double bitmap_s = 0.0;   ///< bitmap index builds
  double sortrep_s = 0.0;  ///< sorted replica build
  double meta_ingest_s = 0.0;
  double service_s = 0.0;  ///< QueryService construction (metadata shards)
};

/// Options every workload shares: 4 servers and a 4-worker pool, with the
/// defaults elsewhere except the client's RPC attempt timeout.  A write
/// that rebuilds the sorted replica can outlast the default 250 ms; the
/// client then re-sends, and after four misses on a loaded machine it
/// declares a live server dead for good (README.md, finding 4).
pdc::query::ServiceOptions service_options() {
  pdc::query::ServiceOptions options;
  options.num_servers = kServers;
  options.eval_threads = kEvalThreads;
  options.retry.attempt_timeout = std::chrono::seconds(2);
  return options;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a deployment from an empty store under `dir`.
  virtual void setup(const fs::path& dir, SetupTimes& times,
                     BenchSpans* spans) = 0;
  virtual void teardown() = 0;
  /// Oracles that need the deployment (computed before any timed phase).
  virtual void prepare_checks() {}
  /// Untimed ops that fill caches and finish lazy set-up.
  virtual void warm_up(Client& c) = 0;
  /// One closed-loop step of client `c`.
  virtual void step(Client& c) = 0;
  /// Checks run once both clients stopped.
  virtual void final_check(Client& /*c*/) {}
  /// Direct kernel throughputs over this workload's data.
  virtual void probe_kernels(std::map<std::string, double>& out,
                             BenchSpans* spans) = 0;
  virtual QueryService& service() = 0;
  /// The op types behind the query_* and other_op_* metrics.
  [[nodiscard]] virtual Op query_op() const = 0;
  [[nodiscard]] virtual Op other_op() const = 0;
};

/// Median GB/s-style rate: passes of `fn` over `bytes` until `budget_s`.
template <typename F>
double probe_rate(double bytes, double budget_s, F&& fn) {
  std::vector<double> pass_s;
  const auto t0 = Clock::now();
  while (pass_s.size() < 5 || seconds_since(t0) < budget_s) {
    const auto t1 = Clock::now();
    fn();
    pass_s.push_back(seconds_since(t1));
  }
  return bytes / median(pass_s);
}

/// Keeps writes from overlapping reads, as ObjectStore::apply_write
/// requires of its callers: descriptor fields and index files are read
/// lock-free by the query pipeline.  Writer-preferring (a waiting writer
/// holds the turnstile, so new readers queue behind it).
class WriteExclusion {
 public:
  std::shared_lock<std::shared_mutex> read() {
    { std::lock_guard pass(turnstile_); }
    return std::shared_lock(rw_);
  }
  std::unique_lock<std::shared_mutex> write() {
    std::lock_guard hold(turnstile_);
    return std::unique_lock(rw_);
  }

 private:
  std::mutex turnstile_;
  std::shared_mutex rw_;
};

// ---- VPIC: the paper's 21 queries over 2^21 particles, PDC-A.

class VpicWorkload final : public Workload {
 public:
  /// `exclusive_writes` false lets writes overlap reads, and `strategy`
  /// picks the read strategy: the two knobs of the sizing-finding
  /// reproductions in README.md.
  VpicWorkload(std::uint64_t seed, bool writes, bool exclusive_writes,
               pdc::server::Strategy strategy)
      : writes_(writes),
        exclusive_writes_(writes && exclusive_writes),
        strategy_(strategy) {
    pdc::workloads::VpicConfig config;
    config.num_particles = kVpicParticles;
    config.seed = mix(seed, 1);
    data_ = pdc::workloads::generate_vpic(config);
    column_ = data_.energy;
    column_min_ = *std::min_element(column_.begin(), column_.end());
    for (const auto& s : pdc::workloads::vpic_single_queries()) {
      specs_.push_back({s.lo, s.hi, false, {}});
    }
    for (const auto& m : pdc::workloads::vpic_multi_queries()) {
      specs_.push_back({m.energy_min,
                        std::numeric_limits<double>::infinity(),
                        true,
                        {m.x_lo, m.x_hi, m.y_lo, m.y_hi, m.z_lo, m.z_hi}});
    }
    expected_ = count_hits(data_.energy);
  }

  void setup(const fs::path& dir, SetupTimes& t, BenchSpans* spans) override {
    fs::remove_all(dir);
    pdc::pfs::PfsConfig pfs_config;
    pfs_config.root_dir = dir.string();
    cluster_ = unwrap(pdc::pfs::PfsCluster::Create(pfs_config), "PFS create");
    store_ = std::make_unique<pdc::obj::ObjectStore>(*cluster_);

    const auto t0 = Clock::now();
    pdc::exec::ThreadPool pool(kBuildThreads);
    pdc::obj::ImportOptions import;
    import.region_size_bytes = kVpicRegionBytes;
    import.pool = &pool;
    t.import_s = timed(spans, "setup.obj.import", [&] {
      objects_ = unwrap(pdc::workloads::import_vpic(*store_, data_, import),
                        "VPIC import");
    });
    t.bitmap_s = timed(spans, "setup.bitmap.build", [&] {
      for (const ObjectId id :
           {objects_.energy, objects_.x, objects_.y, objects_.z}) {
        check(store_->build_bitmap_index(id, {}, &pool), "bitmap index");
      }
    });
    t.sortrep_s = timed(spans, "setup.sortrep.build", [&] {
      unwrap(pdc::sortrep::build_sorted_replica(*store_, objects_.energy,
                                                import),
             "sorted replica");
    });
    t.service_s = timed(spans, "setup.query.service", [&] {
      pdc::query::ServiceOptions options = service_options();
      options.strategy = strategy_;
      if (writes_) {
        service_ = std::make_unique<QueryService>(*store_, options);
      } else {
        service_ = std::make_unique<QueryService>(std::as_const(*store_),
                                                  options);
      }
    });
    t.total_s = seconds_since(t0);
  }

  void teardown() override {
    service_.reset();
    store_.reset();
    cluster_.reset();
  }

  void prepare_checks() override {
    queries_.clear();
    for (const Spec& s : specs_) {
      using pdc::query::create;
      using pdc::query::q_and;
      pdc::query::QueryPtr q =
          create(objects_.energy, QueryOp::kGT, s.energy_lo);
      if (s.compound) {
        const ObjectId axes[] = {objects_.x, objects_.y, objects_.z};
        for (int a = 0; a < 3; ++a) {
          q = q_and(q, q_and(create(axes[a], QueryOp::kGT, s.box[2 * a]),
                             create(axes[a], QueryOp::kLT, s.box[2 * a + 1])));
        }
      } else {
        q = q_and(q, create(objects_.energy, QueryOp::kLT, s.energy_hi));
      }
      queries_.push_back(std::move(q));
    }
  }

  void warm_up(Client& c) override {
    for (std::size_t q = 0; q < queries_.size(); ++q) read(c, q);
  }

  void step(Client& c) override {
    if (writes_ && c.step % kWriteEvery == kWriteEvery - 1) {
      write(c);
    } else {
      read(c, c.rng.bounded(queries_.size()));
    }
    ++c.step;
  }

  void final_check(Client& c) override {
    if (!writes_) return;  // every read was checked as it ran
    // Quiescent end: all 21 queries against the benchmark's own copy.
    const std::vector<std::uint64_t> expected = count_hits(column_);
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      call(*service_, c, kQuery, [&] {
        const auto selection = service_->get_selection(queries_[q]);
        if (!selection.ok()) {
          return failed_call(selection.status(), "final get_selection");
        }
        return selection->num_hits == expected[q];
      });
    }
  }

  void probe_kernels(std::map<std::string, double>& out,
                     BenchSpans* spans) override {
    const std::span<const float> energy(data_.energy);
    std::vector<std::uint64_t> hits;
    hits.reserve(energy.size());
    timed(spans, "kernels.scan_f32", [&] {
      out["kernels.scan_f32_gbps"] =
          probe_rate(static_cast<double>(energy.size_bytes()) *
                         static_cast<double>(specs_.size() - 6),
                     0.2, [&] {
                       for (const Spec& s : specs_) {
                         if (s.compound) continue;
                         hits.clear();
                         pdc::kernels::scan_interval(
                             energy, {s.energy_lo, s.energy_hi, false, false},
                             0, hits);
                       }
                     }) *
          1e-9;
    });

    // The energy index's bins, decoded once outside the timed passes.
    const pdc::obj::ObjectDescriptor* desc =
        unwrap(store_->get(objects_.energy), "energy descriptor");
    std::vector<std::pair<std::uint64_t, pdc::bitmap::WahBitVector>> bins;
    double word_bytes = 0.0;
    for (std::size_t r = 0; r < desc->regions.size(); ++r) {
      const auto index = unwrap(
          store_->load_region_index(*desc, r, pdc::pfs::ReadContext{}),
          "load region index");
      pdc::SerialWriter w;
      index.serialize(w);
      const std::vector<std::uint8_t> blob = w.take();
      const std::span<const std::uint8_t> bytes(blob);
      const auto view = unwrap(pdc::bitmap::PartitionedIndexView::ParseHeader(
                                   bytes.first(index.header_bytes())),
                               "index header");
      for (std::uint32_t b = 0; b < view.num_bins(); ++b) {
        const pdc::Extent1D e = view.bin_extent(b);
        auto bin = unwrap(pdc::bitmap::PartitionedIndexView::DecodeBin(
                              bytes.subspan(e.offset, e.count)),
                          "decode bin");
        word_bytes += static_cast<double>(bin.words().size_bytes());
        bins.emplace_back(desc->regions[r].extent.offset, std::move(bin));
      }
    }
    constexpr std::uint64_t kNoClip = std::numeric_limits<std::uint64_t>::max();
    timed(spans, "kernels.wah_expand", [&] {
      out["kernels.wah_expand_mbps"] =
          probe_rate(word_bytes, 0.2, [&] {
            for (const auto& [base, bin] : bins) {
              hits.clear();
              pdc::kernels::wah_expand(bin.words(), bin.active_word(),
                                       bin.active_bit_count(), base, 0,
                                       kNoClip, hits);
            }
          }) *
          1e-6;
    });
    out["kernels.scan_f64_gbps"] = 0.0;  // no f64 column in VPIC
  }

  QueryService& service() override { return *service_; }
  [[nodiscard]] Op query_op() const override { return kQuery; }
  [[nodiscard]] Op other_op() const override {
    return writes_ ? kWrite : kGetData;
  }

 private:
  struct Spec {
    double energy_lo = 0.0;
    double energy_hi = 0.0;
    bool compound = false;
    std::array<double, 6> box{};  ///< x_lo, x_hi, y_lo, y_hi, z_lo, z_hi
  };

  /// Hit count of every query over `energy` (and the generated x, y, z),
  /// comparing in the double domain like the service does.
  [[nodiscard]] std::vector<std::uint64_t> count_hits(
      const std::vector<float>& energy) const {
    std::vector<std::uint64_t> counts;
    for (const Spec& s : specs_) {
      std::uint64_t n = 0;
      for (std::size_t i = 0; i < energy.size(); ++i) {
        const double e = energy[i];
        if (!(e > s.energy_lo && e < s.energy_hi)) continue;
        if (s.compound) {
          const double x = data_.x[i];
          const double y = data_.y[i];
          const double z = data_.z[i];
          if (!(x > s.box[0] && x < s.box[1] && y > s.box[2] &&
                y < s.box[3] && z > s.box[4] && z < s.box[5])) {
            continue;
          }
        }
        ++n;
      }
      counts.push_back(n);
    }
    return counts;
  }

  /// get_selection on query `q`, then get_data on the energy values.
  void read(Client& c, std::size_t q) {
    const Spec& spec = specs_[q];
    pdc::query::Selection selection;
    bool answered = false;
    std::shared_lock<std::shared_mutex> guard;
    if (exclusive_writes_) guard = exclusion_.read();
    call(*service_, c, kQuery, [&] {
      auto result = service_->get_selection(queries_[q], c.options());
      if (!result.ok()) return failed_call(result.status(), "get_selection");
      selection = std::move(result).value();
      answered = true;
      // Concurrent writes move hit counts; vpic-write checks at the end.
      return writes_ || (selection.num_hits == expected_[q] &&
                         selection.positions.size() == selection.num_hits);
    });
    if (guard.owns_lock()) guard.unlock();
    if (!answered) return;
    std::vector<float> values(selection.num_hits);
    if (exclusive_writes_) guard = exclusion_.read();
    call(*service_, c, kGetData, [&] {
      const pdc::Status status = service_->get_data<float>(
          objects_.energy, selection, values, pdc::query::GetDataMode::kAuto,
          c.options());
      if (!status.ok()) return failed_call(status, "get_data");
      if (writes_) return true;
      return std::all_of(values.begin(), values.end(), [&](float v) {
        const double e = v;
        return e > spec.energy_lo && e < spec.energy_hi;
      });
    });
  }

  [[nodiscard]] float sample(Client& c) const {
    return data_.energy[c.rng.bounded(data_.energy.size())];
  }

  /// Overwrite 64 consecutive elements of one region in this client's half
  /// of the energy column with values copied from random positions of the
  /// original column (the value distribution, and so the selectivities,
  /// hold in expectation).  The op stream fixes what the index does with
  /// each write: every kCompactEvery-th write of a client puts 64 values
  /// strictly inside a fresh region's indexed range, so the delta-WAH
  /// sidecar absorbs them, reaches the compaction threshold and rebuilds
  /// the index; every other write carries the column minimum, which lies
  /// at or below every region's indexed range, so the region turns stale
  /// and queries scan it until the next compaction.  The sorted-replica
  /// delta log grows by 64 entries a write and is rebuilt every 64 writes.
  /// Without write exclusion (the overlap reproductions) writes are plain
  /// random samples at random offsets.
  void write(Client& c) {
    std::unique_lock<std::shared_mutex> guard;
    if (exclusive_writes_) guard = exclusion_.write();
    std::array<float, kWriteElements> values;
    for (float& v : values) v = sample(c);
    std::uint64_t dst = 0;
    std::uint64_t own = 0;  // region index within this client's half
    if (exclusive_writes_) {
      // No write runs concurrently, so the descriptor is stable here.
      const pdc::obj::ObjectDescriptor* energy =
          unwrap(store_->get(objects_.energy), "energy descriptor");
      const std::uint64_t share = energy->regions.size() / kClients;
      const std::uint64_t first = static_cast<std::uint64_t>(c.id) * share;
      std::vector<bool>& stale = stale_[c.id];
      stale.resize(share);
      own = c.rng.bounded(share);
      // Client 1 compacts halfway between client 0's compactions.
      const std::uint64_t write_index =
          c.step / kWriteEvery +
          static_cast<std::uint64_t>(c.id) * kCompactEvery / 2;
      if (write_index % kCompactEvery == kCompactEvery - 1) {
        // The client's own history alone picks the target: a region it has
        // not made stale since its own last compaction is fresh, and its
        // index header is fixed, whatever the other client's compactions
        // refreshed in between.
        for (std::uint64_t k = 0; k < share && stale[own]; ++k) {
          own = (own + 1) % share;
        }
        const auto view = pdc::bitmap::PartitionedIndexView::ParseHeader(
            energy->regions[first + own].index_header);
        for (float& v : values) {
          for (int tries = 0;
               view.ok() && !view->delta_bin_of(v) && tries < 1000; ++tries) {
            v = sample(c);
          }
        }
      } else {
        values[c.rng.bounded(kWriteElements)] = column_min_;
      }
      const pdc::Extent1D extent = energy->regions[first + own].extent;
      dst = extent.offset + c.rng.bounded(extent.count - kWriteElements);
    } else {
      const std::uint64_t half = column_.size() / kClients;
      dst = static_cast<std::uint64_t>(c.id) * half +
            c.rng.bounded(half - kWriteElements);
    }
    const std::span<const std::uint8_t> payload(
        reinterpret_cast<const std::uint8_t*>(values.data()),
        kWriteElements * sizeof(float));
    bool compacted = false;
    const bool ok = call(*service_, c, kWrite, [&] {
      const auto report = service_->overwrite(
          objects_.energy, pdc::Extent1D{dst, kWriteElements}, payload,
          c.options());
      if (!report.ok()) return failed_call(report.status(), "overwrite");
      // A duplicate ack is still exactly one applied write: the first
      // attempt outlived the client's attempt timeout and the retry was
      // deduplicated.
      compacted = report->compacted;
      if (compacted) ++c.compactions;
      return true;
    });
    if (!ok) return;
    std::copy(values.begin(), values.end(), column_.begin() + dst);
    if (exclusive_writes_) {
      // A compaction rebuilds every region's index; any other write leaves
      // its region stale.
      std::vector<bool>& stale = stale_[c.id];
      if (compacted) {
        stale.assign(stale.size(), false);
      } else {
        stale[own] = true;
      }
    }
  }

  const bool writes_;
  const bool exclusive_writes_;
  const pdc::server::Strategy strategy_;
  WriteExclusion exclusion_;
  pdc::workloads::VpicData data_;  ///< generated input (never written)
  std::vector<float> column_;      ///< expected energy column after writes
  float column_min_ = 0.0f;        ///< smallest generated energy
  /// Per writing client: the regions of its half it made stale since its
  /// own last compaction.
  std::array<std::vector<bool>, kClients> stale_;
  std::vector<Spec> specs_;
  std::vector<std::uint64_t> expected_;  ///< hit counts on data_
  std::vector<pdc::query::QueryPtr> queries_;

  std::unique_ptr<pdc::pfs::PfsCluster> cluster_;
  std::unique_ptr<pdc::obj::ObjectStore> store_;
  pdc::workloads::VpicObjects objects_;
  std::unique_ptr<QueryService> service_;
};

// ---- BOSS: sharded metadata queries beside zone-shuffle cross-match joins.

class BossWorkload final : public Workload {
 public:
  /// `all_join` makes both clients join (the stalled-join reproduction).
  BossWorkload(std::uint64_t seed, bool all_join)
      : seed_(seed), all_join_(all_join) {}

  void setup(const fs::path& dir, SetupTimes& t, BenchSpans* spans) override {
    fs::remove_all(dir);
    pdc::pfs::PfsConfig pfs_config;
    pfs_config.root_dir = dir.string();
    cluster_ = unwrap(pdc::pfs::PfsCluster::Create(pfs_config), "PFS create");
    store_ = std::make_unique<pdc::obj::ObjectStore>(*cluster_);
    meta_ = std::make_unique<pdc::meta::MetaStore>();

    const auto t0 = Clock::now();
    pdc::exec::ThreadPool pool(kBuildThreads);
    t.meta_ingest_s = timed(spans, "setup.metadata.ingest", [&] {
      pdc::workloads::BossMetaConfig config;
      config.num_objects = kBossObjects;
      summary_ = unwrap(
          pdc::workloads::generate_boss_metadata(*meta_, config, &pool),
          "BOSS metadata");
    });
    t.import_s = timed(spans, "setup.obj.import", [&] {
      pdc::workloads::BossJoinConfig config;
      config.num_a = kJoinSources;
      config.num_b = kJoinSources;
      config.zone_height = kJoinZoneHeight;
      config.seed = mix(seed_, 2);
      pair_ = unwrap(pdc::workloads::import_boss_join_pair(*store_, config),
                     "BOSS join pair");
    });
    t.service_s = timed(spans, "setup.metadata.shard_build", [&] {
      pdc::query::ServiceOptions options = service_options();
      options.metadata = meta_.get();
      service_ = std::make_unique<QueryService>(std::as_const(*store_),
                                                options);
    });
    t.total_s = seconds_since(t0);
  }

  void teardown() override {
    service_.reset();
    meta_.reset();
    store_.reset();
    cluster_.reset();
  }

  void prepare_checks() override {
    ra_ = read_column(pair_.ra_a);
    const std::vector<double> ra_b = read_column(pair_.ra_b);
    join_pairs_ = 0;
    for (const double a : ra_) {
      for (const double b : ra_b) {
        if (std::fabs(a - b) <= kJoinEpsilon) ++join_pairs_;
      }
    }
    ra_.insert(ra_.end(), ra_b.begin(), ra_b.end());
    spec_ = {};
    spec_.left = pair_.ra_a;
    spec_.right = pair_.ra_b;
    spec_.epsilon = kJoinEpsilon;
    spec_.zone_height = kJoinZoneHeight;

    // Metadata queries rotate exact / range / affix over seeded cells.
    pdc::Rng rng(mix(seed_, 3));
    meta_specs_.clear();
    for (std::size_t i = 0; i < kMetaSpecs; ++i) {
      const auto cell =
          static_cast<std::int64_t>(rng.bounded(summary_.num_cells - 2));
      std::vector<pdc::meta::MetaCondition> conditions;
      switch (i % 3) {
        case 0:
          conditions = {{"PLATE", QueryOp::kEQ, std::int64_t{3500} + cell,
                         pdc::meta::MetaMatchKind::kValue}};
          break;
        case 1:
          conditions = {{"PLATE", QueryOp::kGTE, std::int64_t{3500} + cell,
                         pdc::meta::MetaMatchKind::kValue},
                        {"PLATE", QueryOp::kLTE, std::int64_t{3502} + cell,
                         pdc::meta::MetaMatchKind::kValue}};
          break;
        default:
          conditions = {{"RUN", QueryOp::kEQ,
                         "r" + std::to_string(cell) + "_",
                         pdc::meta::MetaMatchKind::kPrefix}};
          break;
      }
      std::vector<ObjectId> expected = meta_->query(conditions);
      meta_specs_.push_back({std::move(conditions), std::move(expected)});
    }
  }

  void warm_up(Client& c) override {
    for (int i = 0; i < 3; ++i) join(c);
    for (std::size_t i = 0; i < kMetaSpecs; ++i) meta(c, i);
  }

  /// Client 0 joins back to back; client 1 runs metadata queries.
  void step(Client& c) override {
    if (c.id == 0 || all_join_) {
      join(c);
    } else {
      meta(c, c.step % kMetaSpecs);
    }
    ++c.step;
  }

  void probe_kernels(std::map<std::string, double>& out,
                     BenchSpans* spans) override {
    const std::span<const double> ra(ra_);
    std::vector<std::uint64_t> hits;
    hits.reserve(ra.size());
    constexpr int kWindows = 15;
    timed(spans, "kernels.scan_f64", [&] {
      out["kernels.scan_f64_gbps"] =
          probe_rate(static_cast<double>(ra.size_bytes()) * kWindows, 0.2,
                     [&] {
                       for (int w = 0; w < kWindows; ++w) {
                         const double lo = 10.0 + 22.0 * w;
                         hits.clear();
                         pdc::kernels::scan_interval(
                             ra, {lo, lo + 2.0, false, false}, 0, hits);
                       }
                     }) *
          1e-9;
    });
    out["kernels.scan_f32_gbps"] = 0.0;   // no f32 column here
    out["kernels.wah_expand_mbps"] = 0.0;  // no bitmap index here
  }

  QueryService& service() override { return *service_; }
  [[nodiscard]] Op query_op() const override { return kMeta; }
  [[nodiscard]] Op other_op() const override { return kJoin; }

 private:
  struct MetaSpec {
    std::vector<pdc::meta::MetaCondition> conditions;
    std::vector<ObjectId> expected;  ///< MetaStore::query on the same store
  };

  [[nodiscard]] std::vector<double> read_column(ObjectId id) const {
    const pdc::obj::ObjectDescriptor* desc =
        unwrap(store_->get(id), "RADEG descriptor");
    std::vector<double> values(desc->num_elements);
    check(store_->read_elements(
              *desc, {0, desc->num_elements},
              {reinterpret_cast<std::uint8_t*>(values.data()),
               values.size() * sizeof(double)},
              pdc::pfs::ReadContext{}),
          "RADEG read");
    return values;
  }

  void join(Client& c) {
    call(*service_, c, kJoin, [&] {
      const auto result = service_->join(spec_, c.options());
      if (!result.ok()) return failed_call(result.status(), "join");
      return result->pairs.size() == join_pairs_;
    });
  }

  void meta(Client& c, std::size_t i) {
    const MetaSpec& spec = meta_specs_[i];
    call(*service_, c, kMeta, [&] {
      const auto result = service_->meta_query(spec.conditions, c.options());
      if (!result.ok()) return failed_call(result.status(), "meta_query");
      return *result == spec.expected;
    });
  }

  const std::uint64_t seed_;
  const bool all_join_;
  std::unique_ptr<pdc::pfs::PfsCluster> cluster_;
  std::unique_ptr<pdc::obj::ObjectStore> store_;
  std::unique_ptr<pdc::meta::MetaStore> meta_;
  std::unique_ptr<QueryService> service_;
  pdc::workloads::BossMetaSummary summary_;
  pdc::workloads::BossJoinPair pair_;

  pdc::query::JoinSpec spec_;
  std::uint64_t join_pairs_ = 0;
  std::vector<double> ra_;  ///< both RADEG columns (kernel probe input)
  std::vector<MetaSpec> meta_specs_;
};

// ------------------------------------------------------------- phases

/// Both clients run closed-loop until `seconds` have passed; returns the
/// phase's wall time (until the last client finished its step).
double run_phase(Workload& workload, std::vector<Client>& clients,
                 double seconds) {
  for (Client& c : clients) c.stalled_s = 0.0;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  Clock::time_point deadline;
  for (Client& c : clients) {
    threads.emplace_back([&workload, &c, &go, &deadline] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (Clock::now() < deadline) workload.step(c);
    });
  }
  const auto t0 = Clock::now();
  deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return seconds_since(t0);
}

std::uint64_t total_ops(const std::vector<Client>& clients) {
  std::uint64_t n = 0;
  for (const Client& c : clients) n += c.attempted;
  return n;
}

/// Summed bucket counts of every server's handle-time histogram.
std::vector<std::uint64_t> handle_buckets(
    const pdc::obs::MetricsSnapshot& snapshot) {
  std::vector<std::uint64_t> sum(pdc::obs::LatencyHistogram::kNumBuckets, 0);
  for (std::uint32_t s = 0; s < kServers; ++s) {
    const auto* sample = snapshot.find("rpc.server" + std::to_string(s) +
                                       ".handle_seconds");
    if (sample == nullptr) continue;
    for (std::size_t b = 0; b < sample->buckets.size() && b < sum.size(); ++b) {
      sum[b] += sample->buckets[b];
    }
  }
  return sum;
}

/// Current resident set, in MiB.
double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Bytes the program holds from malloc, in MiB: chunks in use in every
/// arena plus mmapped chunks.  Unlike the resident set it leaves out free
/// memory the allocator keeps.  mallinfo2() holds each arena's lock while
/// it walks the free lists (0.1-3 ms on vpic-write), so it is only called
/// while no client runs.
double heap_in_use_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Aggregate CPU time of the machine, in jiffies, from /proc/stat.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran other guests instead
};

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": the sum over all CPUs
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double jiffies = 0.0;
    stat >> jiffies;
    t.total += jiffies;
    if (field == 7) t.steal = jiffies;
  }
  return t;
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;
  /// "" (the benchmark) or a sizing-finding reproduction (README.md).
  std::string variant;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pdc_perfbench --workload vpic-read|vpic-write|"
               "boss-catalog --seed N --seconds S --trace 0|1 --dir DIR "
               "[--variant overlap-writes|"
               "overlap-writes-sorted|concurrent-joins]\n"
               "       pdc_perfbench --selftest\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--variant") {
      args.variant = value;
    } else {
      usage();
    }
  }
  if (args.dir.empty() || !(args.seconds > 0.0)) usage();
  return args;
}

int run(const Args& args) {
  const bool overlap = args.variant == "overlap-writes" ||
                       args.variant == "overlap-writes-sorted";
  std::unique_ptr<Workload> workload;
  if (args.workload == "vpic-read" ||
      (args.workload == "vpic-write" &&
       (args.variant.empty() || overlap))) {
    workload = std::make_unique<VpicWorkload>(
        args.seed, args.workload == "vpic-write", !overlap,
        args.variant == "overlap-writes-sorted"
            ? pdc::server::Strategy::kSortedHistogram
            : pdc::server::Strategy::kAdaptive);
  } else if (args.workload == "boss-catalog" &&
             (args.variant.empty() || args.variant == "concurrent-joins")) {
    workload = std::make_unique<BossWorkload>(
        args.seed, args.variant == "concurrent-joins");
  } else {
    usage();
  }
  BenchSpans bench_spans;
  BenchSpans* spans = args.trace ? &bench_spans : nullptr;

  // Set-up from an empty store, several times; the last deployment runs.
  std::vector<SetupTimes> setups(kSetupReps);
  for (std::size_t r = 0; r < setups.size(); ++r) {
    if (r > 0) workload->teardown();
    workload->setup(args.dir / "store", setups[r], spans);
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return median(v);
  };
  workload->prepare_checks();
  QueryService& service = workload->service();

  std::map<std::string, double> kernel_rates;
  if (args.trace) workload->probe_kernels(kernel_rates, spans);

  Client checker(-1, args.seed);
  workload->warm_up(checker);

  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(c, args.seed);
    clients.back().recording = true;
    clients.back().spans = spans;
  }

  std::vector<std::pair<std::string, Metric>> metrics;
  double untraced_rate = 0.0;
  double traced_rate = 0.0;
  double phase_s = 0.0;
  std::uint64_t phase_ops = 0;
  pdc::obs::MetricsSnapshot before;
  pdc::obs::MetricsSnapshot after;
  const CpuTimes cpu_before = cpu_times();
  double heap_mib = 0.0;
  double rss_mib = 0.0;
  if (!args.trace) {
    phase_s = run_phase(*workload, clients, args.seconds);
    heap_mib = heap_in_use_mib();
    rss_mib = resident_mib();
    phase_ops = total_ops(clients);
  } else {
    // Untraced half: metric-counter deltas and the untraced rate.
    before = service.metrics().snapshot();
    phase_s = run_phase(*workload, clients, args.seconds / 2);
    after = service.metrics().snapshot();
    phase_ops = total_ops(clients);
    untraced_rate = static_cast<double>(phase_ops) / phase_s;
    // Traced half: one client traces per pass, so the shared last-trace
    // slot only ever holds the tracing client's trees.  For boss-catalog
    // this traces joins in one pass and metadata queries in the other.
    double traced_ops = 0.0;
    double traced_s = 0.0;
    for (int c = 0; c < kClients; ++c) {
      clients[c].tracing = true;
      const std::uint64_t ops_before = total_ops(clients);
      const double pass_s =
          run_phase(*workload, clients, args.seconds / (2 * kClients));
      clients[c].tracing = false;
      traced_ops += static_cast<double>(total_ops(clients) - ops_before);
      // Folding span trees is the benchmark's own work, not tracing cost.
      traced_s += pass_s - clients[c].stalled_s;
    }
    traced_rate = traced_ops / traced_s;
  }
  const CpuTimes cpu_after = cpu_times();
  const double steal_pct =
      cpu_after.total > cpu_before.total
          ? 100.0 * (cpu_after.steal - cpu_before.steal) /
                (cpu_after.total - cpu_before.total)
          : 0.0;
  workload->final_check(checker);

  std::uint64_t attempted = checker.attempted;
  std::uint64_t failed = checker.failed;
  for (const Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
  }
  std::array<std::vector<double>, kNumOps> latency;
  std::array<std::uint64_t, kNumOps> failed_by_op = checker.failed_by_op;
  for (const Client& c : clients) {
    for (int op = 0; op < kNumOps; ++op) {
      latency[op].insert(latency[op].end(), c.latency_ms[op].begin(),
                         c.latency_ms[op].end());
      failed_by_op[op] += c.failed_by_op[op];
    }
  }

  std::printf("# workload=%s seed=%llu hardware_threads=%u kernels=%s "
              "trace=%d seconds=%.3f steal_pct=%.2f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(),
              pdc::kernels::backend_name(pdc::kernels::active_backend()),
              args.trace ? 1 : 0, phase_s, steal_pct);
  for (int op = 0; op < kNumOps; ++op) {
    if (latency[op].empty()) continue;
    std::printf("# %s_p50_ms=%.4f %s_p99_ms=%.4f samples=%zu failed=%llu\n",
                kOpNames[op], percentile(latency[op], 0.50), kOpNames[op],
                percentile(latency[op], 0.99), latency[op].size(),
                static_cast<unsigned long long>(failed_by_op[op]));
  }
  std::printf("# fail_ratio=%.6g (%llu of %llu ops)\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  bool enough_samples = true;
  if (!args.trace) {
    const Op q = workload->query_op();
    const Op o = workload->other_op();
    for (int op = 0; op < kNumOps; ++op) {
      const bool reported = op == q || op == o;
      if ((reported || !latency[op].empty()) &&
          latency[op].size() < kMinSamples) {
        std::fprintf(stderr,
                     "perfbench: %zu %s samples, fewer than the %zu a p99 "
                     "needs\n",
                     latency[op].size(), kOpNames[op], kMinSamples);
        enough_samples = false;
      }
    }
    std::printf("# heap_mb=%.1f rss_mb=%.1f\n", heap_mib, rss_mib);
    metrics = {
        {"setup_s", {setup_median(&SetupTimes::total_s), "s"}},
        {"ops_per_s", {static_cast<double>(phase_ops) / phase_s, "1/s"}},
        {"query_p50_ms", {percentile(latency[q], 0.50), "ms"}},
        {"query_p99_ms", {percentile(latency[q], 0.99), "ms"}},
        {"other_op_p50_ms", {percentile(latency[o], 0.50), "ms"}},
        {"other_op_p99_ms", {percentile(latency[o], 0.99), "ms"}},
        {"heap_mb", {heap_mib, "MiB"}},
    };
  } else {
    std::array<LayerTotals, kNumOps> by_op;
    LayerTotals all;
    std::uint64_t compactions = 0;
    for (const Client& c : clients) {
      compactions += c.compactions;
      for (int op = 0; op < kNumOps; ++op) {
        by_op[op].merge(c.layers[op]);
        all.merge(c.layers[op]);
      }
    }
    const auto per_op = [](const LayerTotals& t, double total) {
      return t.ops == 0 ? 0.0 : total / static_cast<double>(t.ops);
    };
    const auto self = [&](Op op, const char* span) {
      return per_op(by_op[op], by_op[op].self(span));
    };
    const auto arg = [&](Op op, const char* span, const char* key) {
      return per_op(by_op[op], by_op[op].arg(span, key));
    };
    const auto self_all = [&](const char* span) {
      return per_op(all, all.self(span));
    };
    const auto delta_per_op = [&](const char* name) {
      return (after.value(name) - before.value(name)) /
             static_cast<double>(std::max<std::uint64_t>(1, phase_ops));
    };
    std::vector<std::uint64_t> handle = handle_buckets(after);
    const std::vector<std::uint64_t> handle_before = handle_buckets(before);
    for (std::size_t b = 0; b < handle.size(); ++b) {
      handle[b] -= handle_before[b];
    }
    const double join_reruns =
        by_op[kJoin].arg("client.join", "epoch") -
        static_cast<double>(by_op[kJoin].ops);

    metrics = {
        {"query.plan_us", {self(kQuery, "client.plan"), "us"}},
        {"query.merge_us", {self(kQuery, "client.merge"), "us"}},
        {"query.get_data_us", {self(kGetData, "client.get_data"), "us"}},
        {"query.meta_merge_us", {self(kMeta, "client.meta_merge"), "us"}},
        {"query.join_us", {self(kJoin, "client.join"), "us"}},
        {"query.join_epoch_reruns", {join_reruns, "count"}},
        {"query.sim_wall_ratio",
         {all.root_wall_s > 0 ? all.root_sim_s / all.root_wall_s : 0.0, "1"}},
        {"rpc.transit_us", {self_all("rpc.request"), "us"}},
        {"rpc.msgs_per_op", {delta_per_op("bus.messages"), "count"}},
        {"rpc.bytes_per_op", {delta_per_op("bus.bytes"), "B"}},
        {"rpc.queue_wait_us", {self_all("server.queue"), "us"}},
        {"rpc.handle_p99_ms",
         {pdc::obs::histogram_quantile(handle, 0.99) * 1e3, "ms"}},
        {"rpc.retries", {all.arg("rpc.gather", "retries"), "count"}},
        {"rpc.shuffle_bytes_per_join",
         {arg(kJoin, "server.join_eval", "shuffle_bytes"), "B"}},
        {"rpc.shuffle_retransmits",
         {by_op[kJoin].arg("server.join_eval", "retransmits"), "count"}},
        {"server.eval_us", {self(kQuery, "server.eval"), "us"}},
        {"server.phase.adaptive_plan_us",
         {self(kQuery, "phase.adaptive_plan"), "us"}},
        {"server.phase.bin_decode_us",
         {self(kQuery, "phase.bin_decode"), "us"}},
        {"server.phase.region_scan_us",
         {self(kQuery, "phase.region_scan"), "us"}},
        {"server.phase.restrict_us", {self(kQuery, "phase.restrict"), "us"}},
        {"server.phase.candidate_check_us",
         {self(kQuery, "phase.candidate_check"), "us"}},
        {"server.regions_scanned_per_query",
         {arg(kQuery, "server.eval", "regions_scanned"), "count"}},
        {"server.regions_indexed_per_query",
         {arg(kQuery, "server.eval", "regions_indexed"), "count"}},
        {"server.regions_allhit_per_query",
         {arg(kQuery, "server.eval", "regions_allhit"), "count"}},
        {"server.regions_stale_per_query",
         {arg(kQuery, "server.eval", "regions_stale"), "count"}},
        {"server.get_data_us", {self(kGetData, "server.get_data"), "us"}},
        {"server.transfer_write_us",
         {self(kWrite, "server.transfer_write"), "us"}},
        {"server.join_eval_us", {self(kJoin, "server.join_eval"), "us"}},
        {"server.meta_query_us", {self(kMeta, "server.meta_query"), "us"}},
        {"server.cache_bytes",
         {static_cast<double>(service.cached_bytes()), "B"}},
        {"pool.tasks_per_op", {delta_per_op("pool.executed"), "count"}},
        {"pool.steals_per_op", {delta_per_op("pool.steals"), "count"}},
        {"pool.queue_peak", {after.value("pool.queue_peak"), "count"}},
        {"pool.task_us", {per_op(all, all.pool_task_us), "us"}},
        {"pfs.read_us", {self_all("pfs.read"), "us"}},
        {"pfs.read_ops_per_op", {delta_per_op("pfs.read_ops"), "count"}},
        {"pfs.bytes_per_op", {delta_per_op("pfs.bytes_read"), "B"}},
        {"kernels.scan_f32_gbps",
         {kernel_rates["kernels.scan_f32_gbps"], "GB/s"}},
        {"kernels.scan_f64_gbps",
         {kernel_rates["kernels.scan_f64_gbps"], "GB/s"}},
        {"kernels.wah_expand_mbps",
         {kernel_rates["kernels.wah_expand_mbps"], "MB/s"}},
        {"bitmap.build_s", {setup_median(&SetupTimes::bitmap_s), "s"}},
        {"bitmap.compactions", {static_cast<double>(compactions), "count"}},
        {"sortrep.build_s", {setup_median(&SetupTimes::sortrep_s), "s"}},
        {"sortrep.rebuilds",
         {by_op[kWrite].arg("server.transfer_write", "replica_rebuilt"),
          "count"}},
        {"obj.import_s", {setup_median(&SetupTimes::import_s), "s"}},
        {"metadata.ingest_s", {setup_median(&SetupTimes::meta_ingest_s), "s"}},
        {"metadata.shard_build_s",
         {workload->query_op() == kMeta ? setup_median(&SetupTimes::service_s)
                                        : 0.0,
          "s"}},
        {"metadata.probes_per_query",
         {arg(kMeta, "server.meta_query", "probes"), "count"}},
        {"obs.trace_overhead_pct",
         {100.0 * (untraced_rate - traced_rate) / untraced_rate, "%"}},
    };
    std::printf("# traced ops: query=%llu get_data=%llu write=%llu meta=%llu "
                "join=%llu\n",
                static_cast<unsigned long long>(by_op[kQuery].ops),
                static_cast<unsigned long long>(by_op[kGetData].ops),
                static_cast<unsigned long long>(by_op[kWrite].ops),
                static_cast<unsigned long long>(by_op[kMeta].ops),
                static_cast<unsigned long long>(by_op[kJoin].ops));
    const fs::path spans_path =
        args.dir / ("bench_spans_" + args.workload + ".json");
    bench_spans.write_json(spans_path);
    std::printf("# benchmark spans: %s\n", spans_path.c_str());
  }

  workload->teardown();
  fs::remove_all(args.dir / "store");
  print_result(failed == 0 && enough_samples, attempted, failed, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") {
    const bool ok = perfbench::self_test();
    std::printf("selftest %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
  }
  return perfbench::run(perfbench::parse_args(argc, argv));
}
