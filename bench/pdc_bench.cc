// Bench-gate runner: runs the named suites (no argument = all of them) and
// writes every row they record to one JSON report next to a `machine`
// stanza, the report tools/check_bench.py diffs against the committed
// BENCH.json.
//
//   pdc_bench [query|traffic|writes|join|meta|kernels]...
//
// Environment: PDC_BENCH_JSON (output path, default BENCH.json) and
// PDC_BENCH_DIR (scratch directory).  Sizes and seeds are fixed in the
// suites, so the gate always measures the baseline's configuration.
//
// Exits 1 when any suite's self-check fails (the report is still written)
// and 2 on an unknown suite name.
#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/suite.h"
#include "kernels/kernels.h"

namespace pdc::bench {

void Suite::expect(bool ok, const char* fmt, ...) {
  if (ok) return;
  ++violations_;
  std::fprintf(stderr, "SELF-CHECK FAILED [%s]: ", name_.c_str());
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

namespace {

struct SuiteEntry {
  const char* name;
  void (*run)(Suite&);
};

constexpr SuiteEntry kSuites[] = {
    {"query", run_query}, {"traffic", run_traffic}, {"writes", run_writes},
    {"join", run_join},   {"meta", run_meta},       {"kernels", run_kernels},
};

const SuiteEntry* find_suite(std::string_view name) {
  for (const SuiteEntry& entry : kSuites) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

/// Seconds print to the nanosecond (the resolution the sim claims are
/// made at); rates and throughputs to six decimals.
void emit_row(std::FILE* out, const Row& row, bool last) {
  std::fprintf(out,
               "    {\"suite\": \"%s\", \"case\": \"%s\", \"metric\": \"%s\", "
               "\"unit\": \"%s\", \"better\": \"%s\", \"kind\": \"%s\", "
               "\"value\": ",
               row.suite.c_str(), row.case_name.c_str(), row.metric.c_str(),
               row.unit.c_str(),
               row.better == Better::kLower ? "lower" : "higher",
               row.kind == Kind::kSim ? "sim" : "wall");
  std::fprintf(out, row.unit == "s" ? "%.9f}%s\n" : "%.6f}%s\n", row.value,
               last ? "" : ",");
}

}  // namespace
}  // namespace pdc::bench

int main(int argc, char** argv) {
  using namespace pdc::bench;

  std::vector<const SuiteEntry*> selected;
  for (int i = 1; i < argc; ++i) {
    const SuiteEntry* entry = find_suite(argv[i]);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown suite '%s'; suites:", argv[i]);
      for (const SuiteEntry& e : kSuites) std::fprintf(stderr, " %s", e.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(entry);
  }
  if (selected.empty()) {
    for (const SuiteEntry& entry : kSuites) selected.push_back(&entry);
  }

  std::vector<Row> rows;
  int violations = 0;
  for (const SuiteEntry* entry : selected) {
    std::printf("\n=== suite %s\n", entry->name);
    std::fflush(stdout);
    Suite suite(entry->name);
    entry->run(suite);
    rows.insert(rows.end(), suite.rows().begin(), suite.rows().end());
    violations += suite.violations();
  }

  const std::string json_path = env_str("PDC_BENCH_JSON", "BENCH.json");
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"machine\": {\n");
  std::fprintf(out, "    \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "    \"avx2\": %s,\n",
               pdc::kernels::cpu_has_avx2() ? "true" : "false");
  std::fprintf(out, "    \"default_backend\": \"%s\"\n",
               pdc::kernels::backend_name(pdc::kernels::active_backend()));
  std::fprintf(out, "  },\n  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    emit_row(out, rows[i], i + 1 == rows.size());
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s (%zu rows)\n", json_path.c_str(), rows.size());

  if (violations > 0) {
    std::fprintf(stderr, "%d self-check violation(s)\n", violations);
    return 1;
  }
  return 0;
}
