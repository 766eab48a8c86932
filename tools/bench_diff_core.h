// Comparison engine for BENCH_<suite>.json artifacts (the bench_diff
// binary adds file I/O and flag parsing around it; tests feed it in-memory
// fixtures). Includes a minimal recursive-descent JSON reader — the project
// deliberately has no third-party JSON dependency, and the artifact schema
// only needs objects, arrays, strings, numbers, bools and null.

#ifndef EEB_TOOLS_BENCH_DIFF_CORE_H_
#define EEB_TOOLS_BENCH_DIFF_CORE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace eeb::benchdiff {

/// Parsed JSON value. Numbers are doubles (the artifact never exceeds 2^53
/// integer precision); object keys keep insertion order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                          // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
[[nodiscard]] Status ParseJson(std::string_view text, JsonValue* out);

/// Outcome of one comparison.
struct DiffResult {
  std::vector<std::string> regressions;  ///< each fails the gate
  std::vector<std::string> notes;        ///< improvements, new cells, ...
  bool ok() const { return regressions.empty(); }
};

/// Compares two artifact documents (full JSON text) against the fixed
/// thresholds in bench_diff_core.cc (docs/BENCHMARKING.md lists them).
/// Returns non-OK only when an input is unusable (parse error, wrong
/// schema); threshold violations land in `out->regressions` with the
/// comparison still OK.
[[nodiscard]] Status DiffBench(std::string_view baseline_json,
                               std::string_view current_json,
                               DiffResult* out);

}  // namespace eeb::benchdiff

#endif  // EEB_TOOLS_BENCH_DIFF_CORE_H_
