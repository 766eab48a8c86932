// Modeled CI suite runner. Executes a fixed suite of (method, cache size,
// k) cells through the same System/RunCell path the figure benches use, and
// emits one canonical, schema-versioned BENCH_<suite>.json artifact per
// run: per-cell latency percentiles (from the observability histograms),
// candidate-reduction ratios, modeled page I/O, cache hit rate, measured
// per-phase wall time, and a cost-model validation section (predicted vs
// observed rho_hit / rho_prune / Crefine). bench_diff compares two such
// artifacts and gates CI on regressions. The paper's figures come from the
// bench/ binaries and measured wall-clock time from perfbench/.
//
// Usage:
//   eeb_bench --suite smoke [--out BENCH_smoke.json]
//   eeb_bench --suite analytics [--out BENCH_analytics.json]
//             [--mrc-out MRC_analytics.json]
// Either suite also takes [--recorder-out RECORDER_<suite>.json].
//
// The analytics suite validates the cache-introspection layer end to end:
// LRU cells run with the sampled reuse-distance tracker attached, and the
// artifact records the MRC-predicted miss ratio next to the measured one
// (bench_diff gates on their absolute difference) plus the exact miss-cause
// breakdown and the LRU what-if panel. When a suite fails mid-run (miss-class
// reconciliation), the flight recorder's recent per-query ring is dumped to
// --recorder-out for post-mortem. A failed artifact write exits 1.
//
// Determinism: every suite pins its dataset/log RNG seeds (recorded in the
// artifact) and all latencies are dominated by the modeled disk (fixed
// ms/page), so artifacts are comparable across machines. EEB_QUICK shrinks
// the datasets; the artifact records the flag and bench_diff refuses to
// compare quick against non-quick runs.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "workload/registry.h"

namespace eeb {
namespace {

// Result size of every cell in both suites.
constexpr size_t kK = 10;

struct CellSpec {
  std::string name;
  core::CacheMethod method = core::CacheMethod::kNone;
  double cs_frac = 0.0;  // cache size as a fraction of the point-file bytes
  bool lru = false;
};

workload::DatasetSpec SmokeSpec() {
  workload::DatasetSpec s;
  s.name = "smoke";
  s.n = 20000;
  s.dim = 32;
  s.ndom = 256;
  s.clusters = 16;
  s.seed = 5;
  return s;
}

// --------------------------------------------------------- JSON emission --

using obs::AppendF;
using obs::JsonEscape;

// The fields every artifact opens with, up to and including the comma
// before the suite's own sections: schema, suite, dataset, log, quick and
// build.
std::string ArtifactHead(const char* suite, const bench::Workbench& wb) {
  const workload::QueryLogSpec log_spec =
      workload::MaybeQuick(workload::DefaultLogSpec());
  std::string json;
  AppendF(&json, "{\"schema_version\":1,\"suite\":\"%s\",",
          JsonEscape(suite).c_str());
  AppendF(&json, "\"dataset\":{\"name\":\"%s\",\"n\":%zu,\"dim\":%zu,",
          JsonEscape(wb.spec.name).c_str(), wb.spec.n, wb.spec.dim);
  AppendF(&json, "\"ndom\":%u,\"seed\":%" PRIu64 "},", wb.spec.ndom,
          wb.spec.seed);
  AppendF(&json, "\"log\":{\"test_size\":%zu,\"seed\":%" PRIu64 "},",
          wb.log.test.size(), log_spec.seed);
  const char* quick = std::getenv("EEB_QUICK");
  AppendF(&json, "\"quick\":%s,",
          quick != nullptr && quick[0] != '\0' ? "true" : "false");
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  AppendF(&json, "\"build\":{\"compiler\":\"%s\",\"type\":\"%s\"},",
          JsonEscape(__VERSION__).c_str(), build_type);
  return json;
}

// Writes one artifact; a failed open, write or close is reported and
// returns false, so the run exits 1 instead of claiming an artifact it
// never wrote.
bool WriteArtifact(const char* suite, const std::string& path,
                   const std::string& json) {
  const Status st = obs::WriteStringToFile(path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "[%s] wrote %s\n", suite, path.c_str());
  return true;
}

// Post-mortem dump for in-run failures: when a gated invariant breaks
// mid-run, the recent per-query ring is worth more than the aggregate
// numbers (the chaos_test idiom).
void DumpRecorder(const obs::FlightRecorder& recorder,
                  const std::string& path) {
  const Status st = obs::WriteStringToFile(path, recorder.DumpJson());
  if (st.ok()) {
    std::fprintf(stderr, "flight recorder dumped to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: flight recorder dump to %s failed: %s\n",
                 path.c_str(), st.ToString().c_str());
  }
}

struct CellResult {
  CellSpec spec;
  size_t cache_bytes = 0;
  uint32_t effective_tau = 0;
  core::AggregateResult agg;
  bool model_supported = false;
  core::ModelValidation model;
};

void AppendCellJson(std::string* out, const CellResult& c) {
  AppendF(out, "{\"name\":\"%s\",\"method\":\"%s\",\"cache_bytes\":%zu,",
          JsonEscape(c.spec.name).c_str(),
          core::CacheMethodName(c.spec.method), c.cache_bytes);
  AppendF(out, "\"k\":%zu,\"tau\":%u,\"lru\":%s,", kK, c.effective_tau,
          c.spec.lru ? "true" : "false");
  AppendF(out,
          "\"latency\":{\"avg_seconds\":%.9g,\"p50_seconds\":%.9g,"
          "\"p95_seconds\":%.9g,\"p99_seconds\":%.9g},",
          c.agg.avg_response_seconds, c.agg.p50_response_seconds,
          c.agg.p95_response_seconds, c.agg.p99_response_seconds);
  const double cand_ratio =
      c.agg.avg_candidates > 0 ? c.agg.avg_remaining / c.agg.avg_candidates
                               : 0.0;
  AppendF(out,
          "\"candidates\":{\"avg\":%.9g,\"avg_remaining\":%.9g,"
          "\"refine_ratio\":%.9g},",
          c.agg.avg_candidates, c.agg.avg_remaining, cand_ratio);
  AppendF(out,
          "\"io\":{\"avg_refine_pages\":%.9g,\"avg_gen_pages\":%.9g,"
          "\"avg_gen_seq_pages\":%.9g},",
          c.agg.avg_refine_pages, c.agg.avg_gen_pages,
          c.agg.avg_gen_seq_pages);
  AppendF(out, "\"cache\":{\"hit_ratio\":%.9g,\"prune_ratio\":%.9g},",
          c.agg.hit_ratio, c.agg.prune_ratio);
  // Expected all-zero on the clean bench disk; bench_diff gates on
  // degraded_rate so a change that silently degrades queries fails CI.
  AppendF(out,
          "\"robustness\":{\"degraded_rate\":%.9g,\"degraded_queries\":%zu,"
          "\"avg_substituted\":%.9g,\"read_failures\":%zu},",
          c.agg.degraded_rate, c.agg.degraded_queries, c.agg.avg_substituted,
          c.agg.read_failures);
  // Measured wall seconds per query and phase, from the per-query records;
  // informational (machine-dependent), so bench_diff never reads them.
  AppendF(out,
          "\"phase_seconds\":{\"gen\":%.9g,\"reduce\":%.9g,\"refine\":%.9g},",
          c.agg.avg_gen_cpu, c.agg.avg_reduce_cpu, c.agg.avg_refine_cpu);
  if (c.model_supported) {
    AppendF(out,
            "\"model_error\":{\"predicted_hit\":%.9g,\"observed_hit\":%.9g,"
            "\"predicted_prune\":%.9g,\"observed_prune\":%.9g,"
            "\"predicted_crefine\":%.9g,\"observed_crefine\":%.9g,"
            "\"hit_error\":%.9g,\"prune_error\":%.9g,"
            "\"crefine_rel_error\":%.9g}",
            c.model.predicted_hit, c.model.observed_hit,
            c.model.predicted_prune, c.model.observed_prune,
            c.model.predicted_crefine, c.model.observed_crefine,
            c.model.hit_error, c.model.prune_error,
            c.model.crefine_rel_error);
  } else {
    out->append("\"model_error\":null");
  }
  out->push_back('}');
}

// The CI gate: a small custom dataset and the headline methods. It runs in
// seconds and is the committed-baseline suite.
int RunSmokeSuite(const std::string& out_path) {
  const std::vector<CellSpec> cells = {
      {"no_cache", core::CacheMethod::kNone, 0.0},
      {"exact_30", core::CacheMethod::kExact, 0.30},
      {"hc_w_30", core::CacheMethod::kHcW, 0.30},
      {"hc_o_30", core::CacheMethod::kHcO, 0.30},
      {"hc_o_10", core::CacheMethod::kHcO, 0.10},
      {"hc_o_lru_30", core::CacheMethod::kHcO, 0.30, true},
  };
  auto wb = bench::MakeWorkbench(SmokeSpec());
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);

  // Telemetry stays attached, as in a serving process, so the gated
  // latencies include its cost.
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  wb->system->SetWindow(&window);
  wb->system->SetRecorder(&recorder);

  std::vector<CellResult> results;
  for (const CellSpec& cell : cells) {
    std::fprintf(stderr, "[smoke] cell %s...\n", cell.name.c_str());
    // Per-cell epoch: instruments restart at zero so the recorded
    // percentiles describe exactly this cell.
    wb->metrics.ResetAll();

    CellResult r;
    r.spec = cell;
    r.cache_bytes = static_cast<size_t>(file_bytes * cell.cs_frac);
    r.agg = bench::RunCell(*wb, cell.method, r.cache_bytes, kK, /*tau=*/0,
                           cell.lru);
    r.effective_tau = wb->system->last_tau();

    core::CostEstimate est;
    if (wb->system->EstimateCurrentCache(kK, &est).ok()) {
      r.model_supported = true;
      r.model = core::ValidateEstimate(est, r.agg.hit_ratio,
                                       r.agg.prune_ratio,
                                       r.agg.avg_remaining);
    }
    results.push_back(std::move(r));
  }

  std::string json = ArtifactHead("smoke", *wb);
  json.append("\"cells\":[");
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) json.push_back(',');
    AppendCellJson(&json, results[i]);
  }
  json.append("]}\n");
  return WriteArtifact("smoke", out_path, json) ? 0 : 1;
}

// ------------------------------------------------------- analytics suite --
//
// Validates the cache-introspection layer against ground truth. Every cell
// is an LRU cache run with eager_miss_fetch on, so every probe miss is
// admitted at once, close to the admit-on-miss LRU that the Mattson
// stack-distance model (and hence the sampled MRC) predicts for. Not
// exactly: refinement also admits every fetched survivor, probe hits
// included, and re-admitting a resident id refreshes its recency, which
// the probe-only model never sees. The MRC-predicted miss ratio at the
// live capacity must match the measured one to within bench_diff's MRC
// error bound. The artifact also records the exact miss-cause breakdown
// (compulsory + capacity + invalidation must equal misses — a reconciliation
// failure fails the run and dumps the flight recorder) and the what-if
// panel: LRU hit ratios at 1/2x, 1x and 2x the live capacity, from the same
// sampled stack distances.

int RunAnalyticsSuite(const std::string& out_path, const std::string& mrc_path,
                      const std::string& recorder_path) {
  core::SystemOptions opt;
  // Eager miss fetch turns every probe miss into an immediate admit, so the
  // --lru cells below approximate the admit-on-miss LRU over the candidate
  // stream that the MRC models. Refinement still re-admits the probe hits
  // it fetches, which refreshes their recency: the live hit ratio can
  // differ a little from the probe-only model's.
  opt.engine.eager_miss_fetch = true;
  auto wb = bench::MakeWorkbench(SmokeSpec(), opt);
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);

  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  wb->system->SetWindow(&window);
  wb->system->SetRecorder(&recorder);

  // 0.25 keeps the sampled substream statistically meaningful on the small
  // smoke stream (the production default is ~0.01 on streams orders of
  // magnitude longer) while still exercising real spatial sampling.
  constexpr double kSamplingRate = 0.25;

  struct AnalyticsCellSpec {
    std::string name;
    core::CacheMethod method;
    double cs_frac;
  };
  const std::vector<AnalyticsCellSpec> cell_specs = {
      {"exact_lru_10", core::CacheMethod::kExact, 0.10},
      {"exact_lru_30", core::CacheMethod::kExact, 0.30},
      {"hc_o_lru_30", core::CacheMethod::kHcO, 0.30},
  };

  struct AnalyticsCell {
    AnalyticsCellSpec spec;
    size_t cache_bytes = 0;
    uint64_t capacity_items = 0;
    core::AggregateResult agg;
    double predicted_miss = 0.0;
    double measured_miss = 0.0;
    double prediction_error = 0.0;
    uint64_t sampled_accesses = 0;
    uint64_t tracked_keys = 0;
    obs::CacheAnalytics::MissBreakdown mb;
    bool reconciled = false;
    std::array<obs::CacheAnalytics::WhatIfPoint, 3> lru_what_if;
    std::string mrc_json;
  };

  std::vector<AnalyticsCell> cells;
  bool all_reconciled = true;
  for (const AnalyticsCellSpec& spec : cell_specs) {
    std::fprintf(stderr, "[analytics] cell %s...\n", spec.name.c_str());
    wb->metrics.ResetAll();

    AnalyticsCell c;
    c.spec = spec;
    c.cache_bytes = static_cast<size_t>(file_bytes * spec.cs_frac);

    obs::CacheAnalytics::Options aopt;
    aopt.sampling_rate = kSamplingRate;
    aopt.key_space = std::max<uint64_t>(64, wb->data.size());
    obs::CacheAnalytics analytics(aopt);
    analytics.BindMetrics(&wb->metrics);
    wb->system->SetCacheAnalytics(&analytics);

    bench::Check(wb->system->ConfigureCache(spec.method, c.cache_bytes,
                                            /*tau=*/0, /*lru=*/true),
                 "ConfigureCache");
    c.capacity_items = wb->system->cache()->capacity_items();

    bench::Check(wb->system->Serve(wb->log.test, kK, 1, &c.agg), "Serve");
    analytics.PublishMetrics();

    c.predicted_miss = analytics.PredictedMissRatioAt(c.capacity_items);
    c.measured_miss = 1.0 - c.agg.hit_ratio;
    c.prediction_error = std::fabs(c.predicted_miss - c.measured_miss);
    c.sampled_accesses = analytics.sampled_accesses();
    c.tracked_keys = analytics.tracked_keys();
    c.mb = analytics.miss_breakdown();
    c.reconciled =
        c.mb.compulsory + c.mb.capacity + c.mb.invalidation == c.mb.misses;
    all_reconciled = all_reconciled && c.reconciled;
    c.lru_what_if = analytics.LruWhatIf();
    c.mrc_json = analytics.MrcJson();
    std::fprintf(stderr,
                 "[analytics] %s: predicted_miss=%.4f measured_miss=%.4f "
                 "err=%.4f sampled=%" PRIu64 " reconciled=%s\n",
                 spec.name.c_str(), c.predicted_miss, c.measured_miss,
                 c.prediction_error, c.sampled_accesses,
                 c.reconciled ? "yes" : "NO");

    // Detach before the per-cell instrument goes out of scope.
    wb->system->SetCacheAnalytics(nullptr);
    cells.push_back(std::move(c));
  }

  std::string json = ArtifactHead("analytics", *wb);
  AppendF(&json,
          "\"config\":{\"sampling_rate\":%.9g,\"k\":%zu,"
          "\"eager_miss_fetch\":true,\"lru\":true},",
          kSamplingRate, kK);
  json.append("\"cells\":[");
  for (size_t i = 0; i < cells.size(); ++i) {
    const AnalyticsCell& c = cells[i];
    if (i > 0) json.push_back(',');
    AppendF(&json, "{\"name\":\"%s\",\"method\":\"%s\",\"cache_bytes\":%zu,",
            JsonEscape(c.spec.name).c_str(),
            core::CacheMethodName(c.spec.method), c.cache_bytes);
    AppendF(&json, "\"k\":%zu,\"lru\":true,", kK);
    AppendF(&json,
            "\"latency\":{\"avg_seconds\":%.9g,\"p50_seconds\":%.9g,"
            "\"p95_seconds\":%.9g,\"p99_seconds\":%.9g},",
            c.agg.avg_response_seconds, c.agg.p50_response_seconds,
            c.agg.p95_response_seconds, c.agg.p99_response_seconds);
    AppendF(&json,
            "\"io\":{\"avg_refine_pages\":%.9g,\"avg_gen_pages\":%.9g,"
            "\"avg_gen_seq_pages\":%.9g},",
            c.agg.avg_refine_pages, c.agg.avg_gen_pages,
            c.agg.avg_gen_seq_pages);
    AppendF(&json, "\"cache\":{\"hit_ratio\":%.9g,\"prune_ratio\":%.9g},",
            c.agg.hit_ratio, c.agg.prune_ratio);
    AppendF(&json,
            "\"robustness\":{\"degraded_rate\":%.9g,"
            "\"degraded_queries\":%zu,\"read_failures\":%zu},",
            c.agg.degraded_rate, c.agg.degraded_queries,
            c.agg.read_failures);
    AppendF(&json,
            "\"analytics\":{\"sampling_rate\":%.9g,"
            "\"sampled_accesses\":%" PRIu64 ",\"tracked_keys\":%" PRIu64
            ",\"capacity_items\":%" PRIu64 ",",
            kSamplingRate, c.sampled_accesses, c.tracked_keys,
            c.capacity_items);
    AppendF(&json,
            "\"predicted_miss_ratio\":%.9g,\"measured_miss_ratio\":%.9g,"
            "\"prediction_error\":%.9g,\"reconciled\":%s,",
            c.predicted_miss, c.measured_miss, c.prediction_error,
            c.reconciled ? "true" : "false");
    AppendF(&json,
            "\"miss_classes\":{\"accesses\":%" PRIu64 ",\"hits\":%" PRIu64
            ",\"misses\":%" PRIu64 ",\"compulsory\":%" PRIu64
            ",\"capacity\":%" PRIu64 ",\"invalidation\":%" PRIu64 "},",
            c.mb.accesses, c.mb.hits, c.mb.misses, c.mb.compulsory,
            c.mb.capacity, c.mb.invalidation);
    json.append("\"lru_what_if\":[");
    for (size_t j = 0; j < c.lru_what_if.size(); ++j) {
      AppendF(&json, "%s{\"size_items\":%" PRIu64 ",\"hit_ratio\":%.9g}",
              j == 0 ? "" : ",", c.lru_what_if[j].size_items,
              c.lru_what_if[j].hit_ratio);
    }
    json.append("]}}");
  }
  json.append("]}\n");

  if (!WriteArtifact("analytics", out_path, json)) return 1;

  // Companion artifact: the full per-cell miss-ratio curves (the BENCH
  // artifact carries only the single predicted-vs-measured point).
  std::string mrc;
  mrc.append("{\"schema_version\":1,\"suite\":\"analytics\",\"cells\":[");
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) mrc.push_back(',');
    AppendF(&mrc, "{\"name\":\"%s\",\"mrc\":",
            JsonEscape(cells[i].spec.name).c_str());
    mrc.append(cells[i].mrc_json);
    mrc.push_back('}');
  }
  mrc.append("]}\n");
  if (!WriteArtifact("analytics", mrc_path, mrc)) return 1;

  if (!all_reconciled) {
    std::fprintf(stderr,
                 "error: miss classification failed to reconcile (see "
                 "reconciled flags)\n");
    DumpRecorder(recorder, recorder_path);
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: eeb_bench --suite smoke|analytics [--out <path>]\n"
               "                 [--mrc-out <path>] [--recorder-out <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string suite_name;
  std::string out_path;
  std::string mrc_path;
  std::string recorder_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--suite" || arg == "--out" || arg == "--mrc-out" ||
        arg == "--recorder-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        return Usage();
      }
      const std::string value = argv[++i];
      if (arg == "--suite") {
        suite_name = value;
      } else if (arg == "--out") {
        out_path = value;
      } else if (arg == "--mrc-out") {
        mrc_path = value;
      } else {
        recorder_path = value;
      }
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }

  if (suite_name.empty()) return Usage();
  if (out_path.empty()) out_path = "BENCH_" + suite_name + ".json";
  if (recorder_path.empty()) {
    recorder_path = "RECORDER_" + suite_name + ".json";
  }
  if (suite_name == "smoke") return RunSmokeSuite(out_path);
  if (suite_name == "analytics") {
    if (mrc_path.empty()) mrc_path = "MRC_analytics.json";
    return RunAnalyticsSuite(out_path, mrc_path, recorder_path);
  }
  std::fprintf(stderr, "error: unknown suite '%s'\n", suite_name.c_str());
  return Usage();
}

}  // namespace
}  // namespace eeb

int main(int argc, char** argv) { return eeb::Main(argc, argv); }
