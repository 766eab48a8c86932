// CI perf-regression gate: compares two BENCH_<suite>.json artifacts
// (baseline vs current) and exits nonzero when any cell regressed beyond
// the fixed thresholds in bench_diff_core.cc. Improvements and new cells
// are reported but never fail.
//
// Usage:
//   bench_diff --baseline bench/baselines/BENCH_smoke.json
//              --current BENCH_smoke.json
//
// Exit codes: 0 no regression, 1 regression(s) found, 2 usage/input error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_diff_core.h"

namespace eeb {
namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff --baseline <path> --current <path>\n"
      "exit: 0 = no regression, 1 = regression, 2 = usage/input error\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg != "--baseline" && arg != "--current") {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return Usage();
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
      return Usage();
    }
    (arg == "--baseline" ? baseline_path : current_path) = argv[++i];
  }
  if (baseline_path.empty() || current_path.empty()) return Usage();

  std::string baseline_json, current_json;
  if (!ReadFile(baseline_path, &baseline_json)) {
    std::fprintf(stderr, "error: cannot read %s\n", baseline_path.c_str());
    return 2;
  }
  if (!ReadFile(current_path, &current_json)) {
    std::fprintf(stderr, "error: cannot read %s\n", current_path.c_str());
    return 2;
  }

  benchdiff::DiffResult result;
  const Status st = benchdiff::DiffBench(baseline_json, current_json, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 2;
  }
  for (const std::string& n : result.notes) {
    std::printf("note: %s\n", n.c_str());
  }
  for (const std::string& r : result.regressions) {
    std::printf("REGRESSION: %s\n", r.c_str());
  }
  if (!result.ok()) {
    std::printf("bench_diff: %zu regression(s) vs %s\n",
                result.regressions.size(), baseline_path.c_str());
    return 1;
  }
  std::printf("bench_diff: no regressions vs %s\n", baseline_path.c_str());
  return 0;
}

}  // namespace
}  // namespace eeb

int main(int argc, char** argv) { return eeb::Main(argc, argv); }
