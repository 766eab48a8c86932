#include "obs/export.h"

#include <algorithm>
#include "obs/cache_analytics.h"
#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace eeb::obs {
namespace {

std::string PromName(const std::string& name) {
  std::string out = "eeb_";
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

// Renders the shared label set as `{k="v",...}` (empty string when there
// are no labels) and with a `quantile` slot for summary samples.
std::string LabelBlock(const PromLabels& labels, const char* quantile) {
  if (labels.empty() && quantile == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    out += k;
    out += "=\"";
    out += PromEscapeLabelValue(v);
    out += "\"";
    first = false;
  }
  if (quantile != nullptr) {
    if (!first) out += ",";
    out += "quantile=\"";
    out += quantile;
    out += "\"";
  }
  out += "}";
  return out;
}

// printf-style formatting into the sink: snapshot values keep the exact
// rendering (%.9g, PRIu64) the exporters have always produced, independent
// of any stream formatting state the caller left behind.
void StreamF(std::ostream& os, const char* fmt, ...) {
  char buf[320];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) os.write(buf, std::min<std::streamsize>(n, sizeof(buf) - 1));
}

}  // namespace

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  bool segment_has_char = false;
  for (char c : name) {
    if (c == '.') {
      if (!segment_has_char) return false;  // empty segment ("", "a..b")
      segment_has_char = false;
      continue;
    }
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
    segment_has_char = true;
  }
  return segment_has_char;  // also rejects a trailing dot
}

std::string PromEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os) {
  ExportPrometheus(registry, os, PromLabels{});
}

void ExportPrometheus(const MetricsRegistry& registry, std::ostream& os,
                      const PromLabels& labels) {
  uint64_t skipped = 0;
  const std::string lb = LabelBlock(labels, nullptr);
  for (const auto& [name, value] : registry.Counters()) {
    if (!IsValidMetricName(name)) {
      ++skipped;
      continue;
    }
    const std::string pn = PromName(name);
    StreamF(os, "# HELP %s %s (counter)\n", pn.c_str(), name.c_str());
    StreamF(os, "# TYPE %s counter\n", pn.c_str());
    StreamF(os, "%s_total%s %" PRIu64 "\n", pn.c_str(), lb.c_str(), value);
  }
  for (const auto& [name, value] : registry.Gauges()) {
    if (!IsValidMetricName(name)) {
      ++skipped;
      continue;
    }
    const std::string pn = PromName(name);
    StreamF(os, "# HELP %s %s (gauge)\n", pn.c_str(), name.c_str());
    StreamF(os, "# TYPE %s gauge\n", pn.c_str());
    StreamF(os, "%s%s %.9g\n", pn.c_str(), lb.c_str(), value);
  }
  for (const auto& [name, s] : registry.Histograms()) {
    if (!IsValidMetricName(name)) {
      ++skipped;
      continue;
    }
    const std::string pn = PromName(name);
    StreamF(os, "# HELP %s %s (histogram)\n", pn.c_str(), name.c_str());
    StreamF(os, "# TYPE %s summary\n", pn.c_str());
    StreamF(os, "%s%s %.9g\n", pn.c_str(),
            LabelBlock(labels, "0.5").c_str(), s.p50);
    StreamF(os, "%s%s %.9g\n", pn.c_str(),
            LabelBlock(labels, "0.95").c_str(), s.p95);
    StreamF(os, "%s%s %.9g\n", pn.c_str(),
            LabelBlock(labels, "0.99").c_str(), s.p99);
    StreamF(os, "%s_sum%s %.9g\n", pn.c_str(), lb.c_str(), s.sum);
    StreamF(os, "%s_count%s %" PRIu64 "\n", pn.c_str(), lb.c_str(), s.count);
    StreamF(os, "%s_max%s %.9g\n", pn.c_str(), lb.c_str(), s.max);
  }
  if (skipped > 0) {
    // Invalid names are a caller bug; surface the drop instead of emitting
    // output a scraper would reject wholesale.
    StreamF(os,
            "# HELP eeb_export_skipped_invalid_names registry names the "
            "exporter refused to emit\n");
    StreamF(os, "# TYPE eeb_export_skipped_invalid_names gauge\n");
    StreamF(os, "eeb_export_skipped_invalid_names%s %" PRIu64 "\n",
            lb.c_str(), skipped);
  }
}

std::string ExportPrometheus(const MetricsRegistry& registry) {
  std::ostringstream os;
  ExportPrometheus(registry, os);
  return std::move(os).str();
}

void ExportJson(const MetricsRegistry& registry, std::ostream& os) {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.Counters()) {
    StreamF(os, "%s\"%s\":%" PRIu64, first ? "" : ",",
            JsonEscape(name).c_str(), value);
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.Gauges()) {
    StreamF(os, "%s\"%s\":%.9g", first ? "" : ",", JsonEscape(name).c_str(),
            value);
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, s] : registry.Histograms()) {
    StreamF(os,
            "%s\"%s\":{\"count\":%" PRIu64
            ",\"sum\":%.9g,\"max\":%.9g,\"p50\":%.9g,\"p95\":%.9g,"
            "\"p99\":%.9g}",
            first ? "" : ",", JsonEscape(name).c_str(), s.count, s.sum, s.max,
            s.p50, s.p95, s.p99);
    first = false;
  }
  os << "}}";
}

std::string ExportJson(const MetricsRegistry& registry) {
  std::ostringstream os;
  ExportJson(registry, os);
  return std::move(os).str();
}

void ExportMrcJson(const CacheAnalytics& analytics, std::ostream& os) {
  const std::string body = analytics.MrcJson();
  os.write(body.data(), static_cast<std::streamsize>(body.size()));
  os.put('\n');
}

std::string ExportMrcJson(const CacheAnalytics& analytics) {
  return analytics.MrcJson() + "\n";
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  // The one place in obs that touches the filesystem directly: obs sits
  // below storage in the link order, so routing through storage::Env would
  // invert the dependency. eeb-lint: allow(env-io)
  std::FILE* f = std::fopen(path.c_str(), "w");
  // These really are I/O failures of this raw write path, and exporter
  // output is never read back through the retrying storage stack.
  // eeb-lint: allow(raw-ioerror)
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_rc = std::fclose(f);
  if (written != content.size() || close_rc != 0) {
    return Status::IOError("short write to " + path);  // eeb-lint: allow(raw-ioerror)
  }
  return Status::OK();
}

}  // namespace eeb::obs
