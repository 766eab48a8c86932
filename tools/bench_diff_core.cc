#include "bench_diff_core.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace eeb::benchdiff {
namespace {

// Regression thresholds. Latency and page bounds are relative increases
// over the baseline; the hit-ratio bound is an absolute drop.
constexpr double kMaxAvgLatencyIncrease = 0.15;
constexpr double kMaxTailLatencyIncrease = 0.25;  // p95
constexpr double kMaxIoIncrease = 0.10;           // refine + gen pages/query
constexpr double kMaxHitDrop = 0.05;
// Absolute increase allowed in robustness.degraded_rate: any degraded query
// on the clean bench disk is a regression, so degradation never happens
// silently. A baseline without a robustness section counts as rate 0.
constexpr double kMaxDegradedRateIncrease = 0.0;
// Absolute |MRC-predicted - measured| miss ratio allowed in an analytics
// cell. Like the reconciliation flag, it is checked on the current artifact
// alone: an introspection layer that mispredicts is broken, whatever the
// baseline said.
constexpr double kMaxMrcError = 0.05;

// ------------------------------------------------------------ JSON parser --

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Status Parse(JsonValue* out) {
    EEB_RETURN_IF_ERROR(Value(out, /*depth=*/0));
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters");
    return Status::OK();
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Fail(const char* what) const {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "JSON parse error at offset %zu: %s",
                  pos_, what);
    return Status::InvalidArgument(buf);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status String(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // Artifact strings are ASCII; decode the escape to '?' rather
            // than implementing full UTF-16 surrogate handling.
            if (text_.size() - pos_ < 4) return Fail("bad \\u escape");
            pos_ += 4;
            out->push_back('?');
            break;
          }
          default:
            return Fail("bad escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  Status Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = JsonValue::Type::kObject;
      SkipSpace();
      if (Consume('}')) return Status::OK();
      while (true) {
        SkipSpace();
        std::string key;
        EEB_RETURN_IF_ERROR(String(&key));
        SkipSpace();
        if (!Consume(':')) return Fail("expected ':'");
        JsonValue v;
        EEB_RETURN_IF_ERROR(Value(&v, depth + 1));
        out->members.emplace_back(std::move(key), std::move(v));
        SkipSpace();
        if (Consume(',')) continue;
        if (Consume('}')) return Status::OK();
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out->type = JsonValue::Type::kArray;
      SkipSpace();
      if (Consume(']')) return Status::OK();
      while (true) {
        JsonValue v;
        EEB_RETURN_IF_ERROR(Value(&v, depth + 1));
        out->items.push_back(std::move(v));
        SkipSpace();
        if (Consume(',')) continue;
        if (Consume(']')) return Status::OK();
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->str);
    }
    if (ConsumeWord("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Status::OK();
    }
    if (ConsumeWord("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Status::OK();
    }
    if (ConsumeWord("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    // Number: delegate validation to strtod over the longest plausible span.
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("bad number");
    out->type = JsonValue::Type::kNumber;
    out->number = d;
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// -------------------------------------------------------------- diff body --

// Nested numeric lookup: Num(cell, "latency", "avg_seconds").
const JsonValue* Find2(const JsonValue& v, const std::string& a,
                       const std::string& b) {
  const JsonValue* inner = v.Find(a);
  return inner != nullptr ? inner->Find(b) : nullptr;
}

bool Num2(const JsonValue& v, const std::string& a, const std::string& b,
          double* out) {
  const JsonValue* n = Find2(v, a, b);
  if (n == nullptr || n->type != JsonValue::Type::kNumber) return false;
  *out = n->number;
  return true;
}

std::string FormatF(const char* fmt, double a, double b, double pct) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, a, b, pct);
  return std::string(buf);
}

// One bounded-increase check; returns true when it produced a verdict.
void CheckIncrease(const std::string& cell, const char* what, double base,
                   double cur, double max_increase, double abs_slack,
                   DiffResult* out) {
  // Guard tiny baselines: a 0.001 -> 0.002 page jump is not a regression.
  const double limit = base * (1.0 + max_increase) + abs_slack;
  if (cur > limit) {
    out->regressions.push_back(
        cell + ": " + what + " " +
        FormatF("%.4g -> %.4g (+%.1f%% over threshold)", base, cur,
                100.0 * (cur - base) / (base > 0 ? base : 1.0)));
  } else if (base > abs_slack && cur < base * 0.9) {
    out->notes.push_back(cell + ": " + what + " improved " +
                         FormatF("%.4g -> %.4g (%.1f%%)", base, cur,
                                 100.0 * (cur - base) / base));
  }
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

Status ParseJson(std::string_view text, JsonValue* out) {
  *out = JsonValue{};
  Parser p(text);
  return p.Parse(out);
}

Status DiffBench(std::string_view baseline_json, std::string_view current_json,
                 DiffResult* out) {
  *out = DiffResult{};
  JsonValue base, cur;
  Status st = ParseJson(baseline_json, &base);
  if (!st.ok()) return Status::InvalidArgument("baseline: " + st.ToString());
  st = ParseJson(current_json, &cur);
  if (!st.ok()) return Status::InvalidArgument("current: " + st.ToString());

  const JsonValue* bver = base.Find("schema_version");
  const JsonValue* cver = cur.Find("schema_version");
  if (bver == nullptr || cver == nullptr ||
      bver->number != cver->number) {
    return Status::InvalidArgument("schema_version missing or mismatched");
  }
  const JsonValue* bsuite = base.Find("suite");
  const JsonValue* csuite = cur.Find("suite");
  if (bsuite == nullptr || csuite == nullptr || bsuite->str != csuite->str) {
    return Status::InvalidArgument("suite missing or mismatched");
  }
  // A quick-mode artifact uses shrunken datasets; comparing it against a
  // full run would flag meaningless "regressions".
  const JsonValue* bq = base.Find("quick");
  const JsonValue* cq = cur.Find("quick");
  if (bq != nullptr && cq != nullptr && bq->boolean != cq->boolean) {
    return Status::InvalidArgument(
        "quick-mode mismatch between baseline and current");
  }

  const JsonValue* bcells = base.Find("cells");
  const JsonValue* ccells = cur.Find("cells");
  if (bcells == nullptr || ccells == nullptr ||
      bcells->type != JsonValue::Type::kArray ||
      ccells->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("cells array missing");
  }

  auto cell_name = [](const JsonValue& c) {
    const JsonValue* n = c.Find("name");
    return n != nullptr ? n->str : std::string("<unnamed>");
  };
  auto find_cell = [&](const std::string& name) -> const JsonValue* {
    for (const JsonValue& c : ccells->items) {
      if (cell_name(c) == name) return &c;
    }
    return nullptr;
  };

  for (const JsonValue& bc : bcells->items) {
    const std::string name = cell_name(bc);
    const JsonValue* cc = find_cell(name);
    if (cc == nullptr) {
      out->regressions.push_back(name + ": cell missing from current run");
      continue;
    }
    double b = 0.0, c = 0.0;
    if (Num2(bc, "latency", "avg_seconds", &b) &&
        Num2(*cc, "latency", "avg_seconds", &c)) {
      CheckIncrease(name, "avg latency", b, c, kMaxAvgLatencyIncrease, 1e-6,
                    out);
    }
    if (Num2(bc, "latency", "p95_seconds", &b) &&
        Num2(*cc, "latency", "p95_seconds", &c)) {
      CheckIncrease(name, "p95 latency", b, c, kMaxTailLatencyIncrease, 1e-6,
                    out);
    }
    double brp = 0.0, bgp = 0.0, crp = 0.0, cgp = 0.0;
    if (Num2(bc, "io", "avg_refine_pages", &brp) &&
        Num2(bc, "io", "avg_gen_pages", &bgp) &&
        Num2(*cc, "io", "avg_refine_pages", &crp) &&
        Num2(*cc, "io", "avg_gen_pages", &cgp)) {
      CheckIncrease(name, "pages/query", brp + bgp, crp + cgp, kMaxIoIncrease,
                    0.5, out);
    }
    if (Num2(bc, "cache", "hit_ratio", &b) &&
        Num2(*cc, "cache", "hit_ratio", &c)) {
      if (c < b - kMaxHitDrop) {
        out->regressions.push_back(
            name + ": hit ratio " +
            FormatF("%.4g -> %.4g (drop > %.2g)", b, c, kMaxHitDrop));
      }
    }
    // Degraded-query rate: pre-robustness baselines have no section, which
    // reads as rate 0 — exactly the clean-disk expectation.
    double bdr = 0.0;
    double cdr = 0.0;
    Num2(bc, "robustness", "degraded_rate", &bdr);
    if (Num2(*cc, "robustness", "degraded_rate", &cdr) &&
        cdr > bdr + kMaxDegradedRateIncrease + 1e-12) {
      out->regressions.push_back(
          name + ": degraded rate " +
          FormatF("%.4g -> %.4g (max increase %.2g)", bdr, cdr,
                  kMaxDegradedRateIncrease));
    }
    // Analytics-suite cells: both gates are current-only — an
    // introspection layer whose MRC misprediction exceeds the budget, or
    // whose miss-cause counters don't reconcile, is broken outright.
    if (Num2(*cc, "analytics", "prediction_error", &c) &&
        c > kMaxMrcError + 1e-12) {
      out->regressions.push_back(
          name + ": MRC prediction error " +
          FormatF("%.4g (max %.2g)", c, kMaxMrcError, 0.0));
    }
    const JsonValue* analytics = cc->Find("analytics");
    const JsonValue* reconciled =
        analytics != nullptr ? analytics->Find("reconciled") : nullptr;
    if (reconciled != nullptr &&
        reconciled->type == JsonValue::Type::kBool && !reconciled->boolean) {
      out->regressions.push_back(
          name + ": miss classes do not reconcile with total misses");
    }
  }
  for (const JsonValue& cc : ccells->items) {
    const std::string name = cell_name(cc);
    bool in_base = false;
    for (const JsonValue& bc : bcells->items) {
      if (cell_name(bc) == name) {
        in_base = true;
        break;
      }
    }
    if (!in_base) {
      out->notes.push_back(name + ": new cell (no baseline to compare)");
    }
  }
  return Status::OK();
}

}  // namespace eeb::benchdiff
