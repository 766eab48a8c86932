// Metrics exporters: Prometheus text exposition (counters, gauges, and
// histograms as summaries with quantile labels) and a JSON snapshot. Both
// read a consistent point-in-time view of the registry; neither perturbs
// the instruments.
//
// Every exporter writes to an injectable std::ostream sink — tests pass an
// std::ostringstream, servers a socket stream — so nothing in this layer
// ever touches stdout/stderr directly. The std::string overloads are thin
// wrappers kept for callers that want a buffer.

#ifndef EEB_OBS_EXPORT_H_
#define EEB_OBS_EXPORT_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace eeb::obs {

/// Registry naming convention: non-empty dotted lowercase, i.e. dot-joined
/// segments of [a-z0-9_] (e.g. "cache.hits"). Exporters skip names that
/// violate it (counting the skips) instead of emitting output a Prometheus
/// scraper would reject wholesale.
bool IsValidMetricName(const std::string& name);

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// per the text exposition format.
std::string PromEscapeLabelValue(const std::string& value);

/// A set of labels attached to every exported sample (e.g. instance/job).
using PromLabels = std::vector<std::pair<std::string, std::string>>;

/// Prometheus text exposition format. Names are prefixed with "eeb_" and
/// dots become underscores; counters get the "_total" suffix. Names failing
/// IsValidMetricName are skipped and reported via the
/// eeb_export_skipped_invalid_names gauge; label values are escaped.
void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os);
void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os,
                      const PromLabels& labels);
std::string ExportPrometheus(const MetricsRegistry& registry);

/// One JSON object: {"counters": {...}, "gauges": {...},
/// "histograms": {name: {count, sum, max, p50, p95, p99}}}.
void ExportJson(const MetricsRegistry& registry, std::ostream& os);
std::string ExportJson(const MetricsRegistry& registry);

class CacheAnalytics;

/// The miss-ratio-curve artifact: one JSON object with the sampling
/// configuration, miss classification, working-set view, and the MRC points
/// (see CacheAnalytics::MrcJson for the schema).
void ExportMrcJson(const CacheAnalytics& analytics, std::ostream& os);
std::string ExportMrcJson(const CacheAnalytics& analytics);

/// Writes `content` to `path` (truncating). Shared by the CLI flags and the
/// bench harness.
Status WriteStringToFile(const std::string& path, const std::string& content);

/// printf-style append to `out`, the building block of every JSON writer.
/// One call renders at most 511 bytes; longer output is truncated.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Escapes `s` for a JSON string literal: quote, backslash, and control
/// characters (\n, \r, \t, else \uXXXX).
std::string JsonEscape(const std::string& s);

}  // namespace eeb::obs

#endif  // EEB_OBS_EXPORT_H_
