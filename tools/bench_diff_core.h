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

/// Regression thresholds, all expressed as relative increases (ratios) or
/// absolute drops (hit ratio). A current value beyond
/// baseline * (1 + threshold) — or below baseline - max_hit_drop for the
/// hit ratio — is a regression.
struct DiffOptions {
  double max_avg_latency_increase = 0.15;
  double max_tail_latency_increase = 0.25;  ///< p95
  double max_io_increase = 0.10;            ///< refine+gen pages per query
  double max_hit_drop = 0.05;               ///< absolute hit-ratio drop
  /// Absolute increase allowed in robustness.degraded_rate. The default 0
  /// means any degraded query on a clean-disk bench run is a regression —
  /// degradation must never happen silently. A baseline without a
  /// robustness section counts as rate 0.
  double max_degraded_rate_increase = 0.0;
  /// Relative drop allowed in throughput.capacity_qps (concurrency-suite
  /// cells): current below baseline * (1 - max_qps_drop) is a regression.
  /// Cells without a throughput section are unaffected. Independently of
  /// any threshold, a current cell with "bit_exact": false always fails —
  /// a concurrent run that diverged from the serial reference is broken,
  /// however fast it is.
  double max_qps_drop = 0.25;
  /// Absolute MRC-prediction error allowed in analytics-suite cells:
  /// a current cell whose analytics.prediction_error (|MRC-predicted −
  /// measured miss ratio|) exceeds this fails regardless of the baseline —
  /// an introspection layer that mispredicts is broken, not merely
  /// regressed. Likewise, "reconciled": false (miss-cause counters not
  /// summing to total misses) always fails. Cells without an analytics
  /// section are unaffected.
  double max_mrc_error = 0.05;
};

/// Outcome of one comparison.
struct DiffResult {
  std::vector<std::string> regressions;  ///< each fails the gate
  std::vector<std::string> notes;        ///< improvements, new cells, ...
  bool ok() const { return regressions.empty(); }
};

/// Compares two artifact documents (full JSON text). Returns non-OK only
/// when an input is unusable (parse error, wrong schema); threshold
/// violations land in `out->regressions` with the comparison still OK.
[[nodiscard]] Status DiffBench(std::string_view baseline_json,
                               std::string_view current_json,
                               const DiffOptions& options, DiffResult* out);

}  // namespace eeb::benchdiff

#endif  // EEB_TOOLS_BENCH_DIFF_CORE_H_
