// The gated bench suites run by bench/pdc_bench and the one row schema they
// all emit.
//
// A suite measures one claim family (query shapes, overload, writes, joins,
// metadata, kernels), records every number the gate diffs as a Row, and
// checks its own claims (orderings, floors, determinism) through
// Suite::expect, which fails the run on a violation.  tools/check_bench.py
// then diffs the rows against the committed BENCH.json by
// (suite, case, metric) without knowing what any suite measures.
#pragma once

#include <string>
#include <vector>

namespace pdc::bench {

/// kSim rows are deterministic cost-model (or virtual-time) output and are
/// gated on every machine; kWall rows measure this host and are gated only
/// against a baseline recorded on a matching machine.
enum class Kind { kSim, kWall };
enum class Better { kLower, kHigher };

struct Row {
  std::string suite;
  std::string case_name;
  std::string metric;
  std::string unit;
  Better better = Better::kLower;
  Kind kind = Kind::kSim;
  double value = 0.0;
};

class Suite {
 public:
  explicit Suite(std::string name) : name_(std::move(name)) {}

  void add(Kind kind, std::string case_name, std::string metric,
           std::string unit, Better better, double value) {
    rows_.push_back({name_, std::move(case_name), std::move(metric),
                     std::move(unit), better, kind, value});
  }

  /// A claim the suite checks on its own numbers: when `ok` is false the
  /// printf-style message goes to stderr and the run exits non-zero.
  [[gnu::format(printf, 3, 4)]] void expect(bool ok, const char* fmt, ...);

  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] int violations() const noexcept { return violations_; }

 private:
  std::string name_;
  std::vector<Row> rows_;
  int violations_ = 0;
};

void run_query(Suite& suite);
void run_traffic(Suite& suite);
void run_writes(Suite& suite);
void run_join(Suite& suite);
void run_meta(Suite& suite);
void run_kernels(Suite& suite);

}  // namespace pdc::bench
