#include "testing/joincheck.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <memory>
#include <sstream>
#include <thread>
#include <tuple>

#include "obj/object_store.h"
#include "pfs/pfs.h"
#include "server/zone_join.h"

namespace pdc::testing {
namespace {

/// Same seed->width derivation as QueryCheck's, so one PDC_QC_THREADS knob
/// bisects both batteries and a bare seed replay re-derives the width.
std::uint32_t effective_threads(const JoinRunOptions& options,
                                std::uint64_t seed) {
  if (options.eval_threads != 0) return options.eval_threads;
  return 1 +
         static_cast<std::uint32_t>(((seed * 0x9E3779B97F4A7C15ull) >> 60) % 8);
}

struct JoinEnv {
  std::unique_ptr<pfs::PfsCluster> cluster;
  std::unique_ptr<obj::ObjectStore> store;
  ObjectId left = kInvalidObjectId;
  ObjectId right = kInvalidObjectId;
};

Result<JoinEnv> build_join_env(const JoinCase& c, const std::string& temp_root) {
  static std::atomic<std::uint64_t> counter{0};
  JoinEnv env;
  std::ostringstream dir;
  dir << temp_root << "/case_" << c.seed << "_" << counter.fetch_add(1);
  std::error_code ec;
  std::filesystem::remove_all(dir.str(), ec);

  pfs::PfsConfig config;
  config.root_dir = dir.str();
  PDC_ASSIGN_OR_RETURN(env.cluster, pfs::PfsCluster::Create(config));
  env.store = std::make_unique<obj::ObjectStore>(*env.cluster);
  PDC_ASSIGN_OR_RETURN(ObjectId container,
                       env.store->create_container("joincheck"));

  obj::ImportOptions import;
  import.region_size_bytes = c.region_size_bytes;
  PDC_ASSIGN_OR_RETURN(
      env.left,
      env.store->import_object<double>(container, "join_a", c.a, import));
  PDC_ASSIGN_OR_RETURN(
      env.right,
      env.store->import_object<double>(container, "join_b", c.b, import));
  return env;
}

std::string pairs_summary(const std::vector<query::JoinPair>& want,
                          const std::vector<query::JoinPair>& got) {
  std::ostringstream os;
  os << "expected " << want.size() << " pairs, got " << got.size();
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const bool w_ok = i < want.size();
    const bool g_ok = i < got.size();
    if (w_ok && g_ok && want[i].left_pos == got[i].left_pos &&
        want[i].right_pos == got[i].right_pos) {
      continue;
    }
    os << "; first divergence at rank " << i << " (expected ";
    if (w_ok) {
      os << "(" << want[i].left_pos << "," << want[i].right_pos << ")";
    } else {
      os << "<none>";
    }
    os << ", got ";
    if (g_ok) {
      os << "(" << got[i].left_pos << "," << got[i].right_pos << ")";
    } else {
      os << "<none>";
    }
    os << ")";
    break;
  }
  return os.str();
}

}  // namespace

JoinCase JoinGen::draw_case() {
  JoinCase c;
  c.seed = seed_;

  static constexpr double kZoneMenu[] = {0.25, 0.5, 1.0,
                                         2.0,  64.0, 1.0 / 1024.0};
  c.zone_height = kZoneMenu[rng_.bounded(6)];
  switch (rng_.bounded(5)) {
    case 0:
      c.epsilon = 0.0;  // exact-equality join
      break;
    case 1:
      c.epsilon = c.zone_height;  // widest admissible band (3 zones)
      break;
    case 2:
      c.epsilon = c.zone_height / 2.0;
      break;
    case 3:
      // Just under the admissibility edge: bands still span 3 zones but
      // the +/- epsilon arithmetic rounds close to zone boundaries.
      c.epsilon = std::nextafter(c.zone_height, 0.0);
      break;
    default:
      c.epsilon = rng_.uniform(0.0, c.zone_height);
      break;
  }
  static constexpr std::uint64_t kRegionMenu[] = {64, 256, 1024};
  c.region_size_bytes = kRegionMenu[rng_.bounded(3)];

  // Negative values matter: negative zone ids exercise floor semantics and
  // the ((z % p) + p) % p ownership map.
  const double lo = -32.0 * c.zone_height;
  const double hi = 32.0 * c.zone_height;
  const auto draw_catalog = [&](std::vector<double>& out, std::uint32_t n,
                                const std::vector<double>& other) {
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      double v = rng_.uniform(lo, hi);
      switch (rng_.bounded(16)) {
        case 0:
        case 1: {
          // Exactly on a k*zone_height zone edge: the case band expansion
          // and floor-based zone assignment must agree on.
          const std::int64_t k =
              static_cast<std::int64_t>(rng_.bounded(65)) - 32;
          v = static_cast<double>(k) * c.zone_height;
          break;
        }
        case 2: {
          // One ulp off a zone edge, both directions.
          const std::int64_t k =
              static_cast<std::int64_t>(rng_.bounded(65)) - 32;
          const double edge = static_cast<double>(k) * c.zone_height;
          v = std::nextafter(edge, rng_.bounded(2) == 0
                                       ? -std::numeric_limits<double>::infinity()
                                       : std::numeric_limits<double>::infinity());
          break;
        }
        case 3:
          if (!out.empty()) v = out[rng_.bounded(out.size())];
          break;
        case 4:
          // Cross-catalog duplicate: exact hit even at epsilon = 0.
          if (!other.empty()) v = other[rng_.bounded(other.size())];
          break;
        case 5:
          // Exactly epsilon away from an existing value on the other side:
          // the inclusive predicate boundary |va - vb| == epsilon.
          if (!other.empty()) {
            v = other[rng_.bounded(other.size())] +
                (rng_.bounded(2) == 0 ? c.epsilon : -c.epsilon);
          }
          break;
        case 6:
          // Just past the boundary: must NOT match that partner.
          if (!other.empty()) {
            const double base = other[rng_.bounded(other.size())];
            v = std::nextafter(base + c.epsilon,
                               std::numeric_limits<double>::infinity());
          }
          break;
        case 7: {
          // Non-finite: skipped by candidate production and the oracle.
          const std::uint64_t which = rng_.bounded(3);
          v = which == 0 ? std::numeric_limits<double>::quiet_NaN()
              : which == 1 ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
          break;
        }
        default:
          break;  // keep the uniform draw
      }
      out.push_back(v);
    }
  };
  const std::uint32_t na = 1 + static_cast<std::uint32_t>(rng_.bounded(96));
  const std::uint32_t nb = 1 + static_cast<std::uint32_t>(rng_.bounded(96));
  draw_catalog(c.a, na, c.b);
  draw_catalog(c.b, nb, c.a);

  const auto draw_filter = [&](ValueInterval& filter) {
    if (rng_.bounded(4) != 0) return;  // usually unfiltered
    double f_lo = rng_.uniform(lo, hi);
    double f_hi = rng_.uniform(lo, hi);
    if (f_lo > f_hi) std::swap(f_lo, f_hi);
    filter.lo = f_lo;
    filter.hi = f_hi;
    filter.lo_inclusive = rng_.bounded(2) == 0;
    filter.hi_inclusive = rng_.bounded(2) == 0;
  };
  draw_filter(c.filter_a);
  draw_filter(c.filter_b);
  return c;
}

std::vector<query::JoinPair> join_oracle(const JoinCase& c) {
  std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint64_t>> rows;
  for (std::size_t i = 0; i < c.a.size(); ++i) {
    const double va = c.a[i];
    if (!std::isfinite(va) || !c.filter_a.contains(va)) continue;
    for (std::size_t j = 0; j < c.b.size(); ++j) {
      const double vb = c.b[j];
      if (!std::isfinite(vb) || !c.filter_b.contains(vb)) continue;
      if (!(std::fabs(va - vb) <= c.epsilon)) continue;
      rows.emplace_back(server::zone_of(va, c.zone_height),
                        static_cast<std::uint64_t>(i),
                        static_cast<std::uint64_t>(j));
    }
  }
  std::sort(rows.begin(), rows.end());
  std::vector<query::JoinPair> pairs;
  pairs.reserve(rows.size());
  for (const auto& [zone, l, r] : rows) pairs.push_back({l, r});
  return pairs;
}

namespace {

/// Concurrent mode: `inflight` joins at once on one 4-server service of
/// pool width `width`; each must equal `want` without an epoch re-run.
std::optional<Mismatch> run_concurrent_joins(
    const JoinEnv& env, const JoinCase& c,
    const std::vector<query::JoinPair>& want, std::uint32_t width,
    std::uint32_t inflight) {
  std::ostringstream path;
  path << "concurrent/joins=" << inflight << "/servers=4/threads=" << width;
  query::ServiceOptions service_options;
  service_options.num_servers = 4;
  service_options.eval_threads = width;
  query::QueryService service(*env.store, service_options);
  std::vector<std::optional<Result<query::JoinResult>>> got(inflight);
  std::vector<std::thread> clients;
  for (std::uint32_t i = 0; i < inflight; ++i) {
    clients.emplace_back([&, i] {
      query::JoinSpec spec;
      spec.left = env.left;
      spec.right = env.right;
      spec.epsilon = c.epsilon;
      spec.zone_height = c.zone_height;
      spec.left_filter = c.filter_a;
      spec.right_filter = c.filter_b;
      spec.strategy = i % 2 == 0 ? server::JoinStrategy::kZoneShuffle
                                 : server::JoinStrategy::kBroadcast;
      got[i] = service.join(spec);
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::uint32_t i = 0; i < inflight; ++i) {
    const Result<query::JoinResult>& r = *got[i];
    const std::string where = path.str() + "/join=" + std::to_string(i);
    if (!r.ok()) {
      return Mismatch{0, where,
                      std::string("join failed: ") +
                          std::string(status_code_name(r.status().code())) +
                          ": " + r.status().message()};
    }
    if (!std::equal(r->pairs.begin(), r->pairs.end(), want.begin(),
                    want.end(),
                    [](const query::JoinPair& x, const query::JoinPair& y) {
                      return x.left_pos == y.left_pos &&
                             x.right_pos == y.right_pos;
                    })) {
      return Mismatch{0, where, pairs_summary(want, r->pairs)};
    }
  }
  const auto metrics = service.scrape_metrics();
  if (!metrics.ok()) {
    return Mismatch{0, path.str(),
                    "metrics scrape failed: " + metrics.status().ToString()};
  }
  const double reruns = metrics->value("client.join_epoch_reruns");
  if (reruns != 0.0) {
    return Mismatch{0, path.str(),
                    std::to_string(static_cast<int>(reruns)) +
                        " join epoch re-runs (every join must finish in "
                        "epoch 1)"};
  }
  return std::nullopt;
}

}  // namespace

Result<std::optional<Mismatch>> run_join_case(const JoinCase& c,
                                              const JoinRunOptions& options) {
  // Invalid parameters are a harness bug (the generator only draws
  // admissible ones); surface them as setup errors, not mismatches.
  PDC_RETURN_IF_ERROR(server::validate_join_params(c.epsilon, c.zone_height));
  PDC_ASSIGN_OR_RETURN(JoinEnv env, build_join_env(c, options.temp_root));
  const std::vector<query::JoinPair> want = join_oracle(c);
  const std::uint32_t threads = effective_threads(options, c.seed);

  std::vector<server::Strategy> evals = options.eval_strategies;
  if (evals.empty()) {
    evals = {server::Strategy::kFullScan, server::Strategy::kHistogram};
  }
  static constexpr server::JoinStrategy kShuffles[] = {
      server::JoinStrategy::kZoneShuffle, server::JoinStrategy::kBroadcast};

  for (const std::uint32_t servers : options.server_counts) {
    for (const server::JoinStrategy shuffle : kShuffles) {
      for (const server::Strategy eval : evals) {
        std::ostringstream path;
        path << server::join_strategy_name(shuffle) << "/servers=" << servers
             << "/" << server::strategy_name(eval) << "/threads=" << threads;

        query::ServiceOptions service_options;
        service_options.num_servers = servers;
        service_options.strategy = eval;
        service_options.eval_threads = threads;
        query::QueryService service(*env.store, service_options);

        query::JoinSpec spec;
        spec.left = env.left;
        spec.right = env.right;
        spec.epsilon = c.epsilon;
        spec.zone_height = c.zone_height;
        spec.left_filter = c.filter_a;
        spec.right_filter = c.filter_b;
        spec.strategy = shuffle;

        const Result<query::JoinResult> got = service.join(spec);
        if (!got.ok()) {
          return std::optional<Mismatch>(Mismatch{
              0, path.str(),
              std::string("join failed: ") +
                  std::string(status_code_name(got.status().code())) + ": " +
                  got.status().message()});
        }
        const bool equal =
            got->pairs.size() == want.size() &&
            std::equal(got->pairs.begin(), got->pairs.end(), want.begin(),
                       [](const query::JoinPair& x, const query::JoinPair& y) {
                         return x.left_pos == y.left_pos &&
                                x.right_pos == y.right_pos;
                       });
        if (!equal) {
          return std::optional<Mismatch>(
              Mismatch{0, path.str(), pairs_summary(want, got->pairs)});
        }
      }
    }
  }
  if (!options.concurrent) return std::optional<Mismatch>();
  for (const std::uint32_t width : {1u, 4u}) {
    for (const std::uint32_t inflight : {2u, 4u}) {
      if (auto mismatch = run_concurrent_joins(env, c, want, width, inflight);
          mismatch.has_value()) {
        return mismatch;
      }
    }
  }
  return std::optional<Mismatch>();
}

JoinShrinkResult shrink_join(JoinCase failing,
                             const std::function<bool(const JoinCase&)>&
                                 still_fails,
                             std::size_t max_attempts) {
  JoinShrinkResult out;
  const auto whole_line = ValueInterval{};
  bool progressed = true;
  while (progressed && out.attempts < max_attempts) {
    progressed = false;
    const auto try_candidate = [&](JoinCase candidate) {
      if (candidate == failing) return;
      if (out.attempts >= max_attempts) return;
      ++out.attempts;
      if (still_fails(candidate)) {
        failing = std::move(candidate);
        ++out.accepted_steps;
        progressed = true;
      }
    };

    // Halve either catalog, keeping front or back.
    for (const bool left : {true, false}) {
      const std::vector<double>& src = left ? failing.a : failing.b;
      if (src.size() < 2) continue;
      for (const bool front : {true, false}) {
        JoinCase candidate = failing;
        std::vector<double>& dst = left ? candidate.a : candidate.b;
        const std::size_t half = src.size() / 2;
        if (front) {
          dst.assign(src.begin(), src.begin() + half);
        } else {
          dst.assign(src.begin() + half, src.end());
        }
        try_candidate(std::move(candidate));
        if (progressed) break;
      }
      if (progressed) break;
    }
    if (progressed) continue;

    // Drop single elements.
    for (const bool left : {true, false}) {
      const std::vector<double>& src = left ? failing.a : failing.b;
      for (std::size_t i = 0; i < src.size() && !progressed; ++i) {
        JoinCase candidate = failing;
        std::vector<double>& dst = left ? candidate.a : candidate.b;
        dst.erase(dst.begin() + static_cast<std::ptrdiff_t>(i));
        try_candidate(std::move(candidate));
      }
      if (progressed) break;
    }
    if (progressed) continue;

    // Widen the filters back to the whole line.
    for (const bool left : {true, false}) {
      JoinCase candidate = failing;
      (left ? candidate.filter_a : candidate.filter_b) = whole_line;
      try_candidate(std::move(candidate));
      if (progressed) break;
    }
  }
  out.minimal = std::move(failing);
  return out;
}

Status run_joincheck(std::uint64_t base_seed, std::size_t num_cases,
                     const JoinRunOptions& options) {
  JoinRunOptions run_options = options;
  if (const char* env = std::getenv("PDC_QC_SEED")) {
    base_seed = std::strtoull(env, nullptr, 10);
    num_cases = 1;
  }
  if (const char* env = std::getenv("PDC_QC_CASES")) {
    num_cases = std::strtoull(env, nullptr, 10);
    if (num_cases == 0) num_cases = 1;
  }
  if (const char* env = std::getenv("PDC_QC_THREADS")) {
    run_options.eval_threads = static_cast<std::uint32_t>(
        std::min(64ul, std::strtoul(env, nullptr, 10)));
  }

  for (std::size_t i = 0; i < num_cases; ++i) {
    const std::uint64_t seed = base_seed + i;
    JoinGen gen(seed);
    const JoinCase c = gen.draw_case();
    PDC_ASSIGN_OR_RETURN(std::optional<Mismatch> mismatch,
                         run_join_case(c, run_options));
    if (!mismatch) continue;

    const auto pred = [&run_options](const JoinCase& candidate) {
      Result<std::optional<Mismatch>> r = run_join_case(candidate, run_options);
      return r.ok() && r->has_value();
    };
    const JoinShrinkResult shrunk = shrink_join(c, pred);
    Result<std::optional<Mismatch>> minimal_run =
        run_join_case(shrunk.minimal, run_options);
    const Mismatch& report =
        (minimal_run.ok() && minimal_run->has_value()) ? **minimal_run
                                                       : *mismatch;
    std::ostringstream os;
    os << "JoinCheck failure on path '" << report.path
       << "': " << report.detail << "\n  PDC_QC_SEED=" << seed
       << " (re-run the joincheck battery with this environment variable to"
          " replay)\n  eval_threads="
       << effective_threads(run_options, shrunk.minimal.seed)
       << (run_options.eval_threads == 0 ? " (seed-derived)" : " (pinned)")
       << "\n  minimal " << describe_join_case(shrunk.minimal)
       << "\n  (shrunk in " << shrunk.accepted_steps << " steps, "
       << shrunk.attempts << " attempts)";
    return Status::Internal(os.str());
  }
  return Status::Ok();
}

std::string describe_join_case(const JoinCase& c) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "case{seed=" << c.seed << ", epsilon=" << c.epsilon
     << ", zone_height=" << c.zone_height
     << ", region_size=" << c.region_size_bytes << ", |a|=" << c.a.size()
     << ", |b|=" << c.b.size();
  const auto dump = [&os](const char* name, const std::vector<double>& v) {
    os << ", " << name << "=[";
    const std::size_t shown = std::min<std::size_t>(v.size(), 16);
    for (std::size_t i = 0; i < shown; ++i) {
      if (i != 0) os << ", ";
      os << v[i];
    }
    if (shown < v.size()) os << ", ... (" << v.size() - shown << " more)";
    os << "]";
  };
  dump("a", c.a);
  dump("b", c.b);
  const auto dump_filter = [&os](const char* name, const ValueInterval& f) {
    const ValueInterval whole;
    if (f.lo == whole.lo && f.hi == whole.hi && f.lo_inclusive &&
        f.hi_inclusive) {
      return;
    }
    os << ", " << name << "=" << (f.lo_inclusive ? "[" : "(") << f.lo << ", "
       << f.hi << (f.hi_inclusive ? "]" : ")");
  };
  dump_filter("filter_a", c.filter_a);
  dump_filter("filter_b", c.filter_b);
  os << "}";
  return os.str();
}

}  // namespace pdc::testing
