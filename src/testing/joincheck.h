// JoinCheck — seed-reproducible differential testing of the cross-object
// epsilon join (QueryService::join).
//
// The join's correctness claim mirrors QueryCheck's: the zone-shuffle
// exchange plan and the broadcast baseline are *transparent* distribution
// strategies — at any server count, pool width and eval strategy they must
// return byte-identical pairs, equal to the element-wise nested-loop
// oracle.  A JoinGen draws adversarial two-catalog cases: values sitting
// EXACTLY on k*zone_height zone edges (band-expansion boundaries), values
// exactly epsilon apart (the inclusive predicate boundary), duplicates
// within and across catalogs, non-finite values (skipped by candidate
// production and by the oracle alike), epsilon = 0 and
// epsilon = zone_height extremes, negative values (negative zone ids
// through the modulo ownership map), and optional per-side pre-filters.
//
// On mismatch the harness auto-shrinks both catalogs and reports a
// one-line `PDC_QC_SEED=<n>` reproduction (replayed through the joincheck
// entry point).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "common/status.h"
#include "query/service.h"
#include "testing/querycheck.h"

namespace pdc::testing {

/// One generated join case: two f64 catalogs plus the join parameters.
/// Equality is bit-exact (memcmp) so cases containing NaN still satisfy
/// the seed-replay reproducibility contract.
struct JoinCase {
  std::uint64_t seed = 0;
  std::vector<double> a;  ///< build-side catalog (left)
  std::vector<double> b;  ///< probe-side catalog (right)
  double epsilon = 0.0;
  double zone_height = 1.0;
  std::uint64_t region_size_bytes = 256;
  ValueInterval filter_a;  ///< pre-filter on the build side
  ValueInterval filter_b;  ///< pre-filter on the probe side

  bool operator==(const JoinCase& o) const noexcept {
    const auto bits_eq = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
      return x.size() == y.size() &&
             (x.empty() || std::memcmp(x.data(), y.data(),
                                       x.size() * sizeof(double)) == 0);
    };
    const auto iv_eq = [](const ValueInterval& x, const ValueInterval& y) {
      return std::memcmp(&x.lo, &y.lo, sizeof(double)) == 0 &&
             std::memcmp(&x.hi, &y.hi, sizeof(double)) == 0 &&
             x.lo_inclusive == y.lo_inclusive &&
             x.hi_inclusive == y.hi_inclusive;
    };
    return seed == o.seed && bits_eq(a, o.a) && bits_eq(b, o.b) &&
           std::memcmp(&epsilon, &o.epsilon, sizeof(double)) == 0 &&
           std::memcmp(&zone_height, &o.zone_height, sizeof(double)) == 0 &&
           region_size_bytes == o.region_size_bytes &&
           iv_eq(filter_a, o.filter_a) && iv_eq(filter_b, o.filter_b);
  }
};

/// Deterministic case generator: two JoinGens with the same seed produce
/// identical cases.
class JoinGen {
 public:
  explicit JoinGen(std::uint64_t seed) : seed_(seed), rng_(seed) {}

  JoinCase draw_case();

 private:
  std::uint64_t seed_;
  Rng rng_;
};

/// Element-wise nested-loop oracle with exactly the server's semantics:
/// non-finite values are skipped on both sides, pre-filters use
/// ValueInterval::contains, the predicate is the exact
/// |va - vb| <= epsilon, and the output is ordered by
/// (zone_of(va), left_pos, right_pos) — the deterministic order the
/// client-side zone merge produces.
[[nodiscard]] std::vector<query::JoinPair> join_oracle(const JoinCase& c);

struct JoinRunOptions {
  /// Deployment sizes to sweep; every (server count x shuffle strategy x
  /// eval strategy) cell must match the oracle byte-for-byte.
  std::vector<std::uint32_t> server_counts{1, 2, 4};
  /// Candidate-production strategies to sweep.  Empty = full scan +
  /// histogram.
  std::vector<server::Strategy> eval_strategies;
  /// Evaluation pool width.  0 = derive per seed (1..8), the same
  /// derivation QueryCheck uses, overridable with PDC_QC_THREADS.
  std::uint32_t eval_threads = 0;
  /// Scratch directory root; each case uses a fresh subdirectory.
  std::string temp_root = "/tmp/pdc_joincheck";
  /// Concurrent mode: after the serial sweep, run 2 and then 4 joins at
  /// once on one 4-server service (shuffle strategies alternating), at
  /// pool widths 1 and 4.  Every join must return the oracle's (= the
  /// serial run's) pairs in its first epoch.
  bool concurrent = false;
};

/// Build the two-catalog environment for `c` and run the full sweep.
/// Returns the first mismatch (path names the diverging cell), nullopt
/// when every cell equals the oracle; non-Ok only on environment errors.
Result<std::optional<Mismatch>> run_join_case(const JoinCase& c,
                                              const JoinRunOptions& options);

struct JoinShrinkResult {
  JoinCase minimal;
  std::size_t accepted_steps = 0;
  std::size_t attempts = 0;
};

/// Greedily minimize `failing` while `still_fails` holds: halve either
/// catalog (front/back), drop single elements, widen the filters back to
/// the whole line.  Every accepted step strictly simplifies the case.
JoinShrinkResult shrink_join(JoinCase failing,
                             const std::function<bool(const JoinCase&)>&
                                 still_fails,
                             std::size_t max_attempts = 300);

/// Run `num_cases` generated cases starting at `base_seed` (case i uses
/// seed base_seed + i); PDC_QC_SEED / PDC_QC_CASES / PDC_QC_THREADS
/// override the arguments exactly as in run_querycheck.  On the first
/// mismatch, shrinks it and returns Internal with a replayable report.
Status run_joincheck(std::uint64_t base_seed, std::size_t num_cases,
                     const JoinRunOptions& options);

/// Render a JoinCase for failure reports.
[[nodiscard]] std::string describe_join_case(const JoinCase& c);

}  // namespace pdc::testing
