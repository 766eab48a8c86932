// Unified benchmark suite runner. Executes a named suite of (dataset,
// method, cache size, k) cells through the same System/RunCell path the
// figure benches use, and emits one canonical, schema-versioned
// BENCH_<suite>.json artifact per run: per-cell latency percentiles (from
// the observability histograms), candidate-reduction ratios, modeled page
// I/O, cache hit rate, measured per-phase wall time, and a cost-model
// validation section (predicted vs observed rho_hit / rho_prune / Crefine).
// bench_diff compares two such artifacts and gates CI on regressions.
//
// Usage:
//   eeb_bench --suite smoke [--out BENCH_smoke.json]
//   eeb_bench --suite analytics [--mrc-out MRC_analytics.json]
//   eeb_bench --list
//
// The analytics suite validates the cache-introspection layer end to end:
// LRU cells run with the sampled reuse-distance tracker attached, and the
// artifact records the MRC-predicted miss ratio next to the measured one
// (bench_diff gates on their absolute difference) plus the exact miss-cause
// breakdown and the LRU what-if panel. When a suite fails mid-run (bit
// exactness, miss-class reconciliation), the flight recorder's recent
// per-query ring is dumped to --recorder-out for post-mortem.
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
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/cost_model.h"
#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "workload/registry.h"

namespace eeb {
namespace {

struct CellSpec {
  std::string name;
  core::CacheMethod method = core::CacheMethod::kNone;
  double cs_frac = 0.0;  // cache size as a fraction of the point-file bytes
  size_t k = 10;
  uint32_t tau = 0;  // 0: cost-model choice
  bool lru = false;
};

struct SuiteSpec {
  std::string name;
  std::string what;
  workload::DatasetSpec dataset;
  std::vector<CellSpec> cells;
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

std::vector<SuiteSpec> AllSuites() {
  std::vector<SuiteSpec> suites;

  // CI gate: small custom dataset, the headline methods. Must stay fast in
  // Release (~1-2 min) — this is the committed-baseline suite.
  suites.push_back(
      {"smoke",
       "CI smoke cells: NO-CACHE baseline + headline methods at 10%/30% CS",
       SmokeSpec(),
       {
           {"no_cache", core::CacheMethod::kNone, 0.0, 10},
           {"exact_30", core::CacheMethod::kExact, 0.30, 10},
           {"hc_w_30", core::CacheMethod::kHcW, 0.30, 10},
           {"hc_o_30", core::CacheMethod::kHcO, 0.30, 10},
           {"hc_o_10", core::CacheMethod::kHcO, 0.10, 10},
           {"hc_o_lru_30", core::CacheMethod::kHcO, 0.30, 10, 0, true},
       }});

  // Figure subsets: the paper cells most sensitive to perf drift, on the
  // NUS-WIDE surrogate (the smallest real spec).
  suites.push_back(
      {"fig13",
       "Fig. 13 subset: response time vs cache size (EXACT / HC-D / HC-O)",
       workload::NuswSimSpec(),
       {
           {"exact_05", core::CacheMethod::kExact, 0.05, 10},
           {"exact_15", core::CacheMethod::kExact, 0.15, 10},
           {"exact_30", core::CacheMethod::kExact, 0.30, 10},
           {"hc_d_05", core::CacheMethod::kHcD, 0.05, 10},
           {"hc_d_15", core::CacheMethod::kHcD, 0.15, 10},
           {"hc_d_30", core::CacheMethod::kHcD, 0.30, 10},
           {"hc_o_05", core::CacheMethod::kHcO, 0.05, 10},
           {"hc_o_15", core::CacheMethod::kHcO, 0.15, 10},
           {"hc_o_30", core::CacheMethod::kHcO, 0.30, 10},
       }});

  suites.push_back({"fig14",
                    "Fig. 14 subset: response time vs k for HC-O at 30% CS",
                    workload::NuswSimSpec(),
                    {
                        {"hc_o_k1", core::CacheMethod::kHcO, 0.30, 1},
                        {"hc_o_k10", core::CacheMethod::kHcO, 0.30, 10},
                        {"hc_o_k25", core::CacheMethod::kHcO, 0.30, 25},
                        {"hc_o_k50", core::CacheMethod::kHcO, 0.30, 50},
                    }});

  suites.push_back(
      {"tab03",
       "Table 3 subset: every cache category at the default 30% CS",
       workload::NuswSimSpec(),
       {
           {"no_cache", core::CacheMethod::kNone, 0.0, 10},
           {"exact", core::CacheMethod::kExact, 0.30, 10},
           {"c_va", core::CacheMethod::kCVa, 0.30, 10},
           {"hc_w", core::CacheMethod::kHcW, 0.30, 10},
           {"hc_d", core::CacheMethod::kHcD, 0.30, 10},
           {"hc_o", core::CacheMethod::kHcO, 0.30, 10},
           {"ihc_o", core::CacheMethod::kIHcO, 0.30, 10},
           {"mhc_r", core::CacheMethod::kMHcR, 0.30, 10},
       }});
  return suites;
}

// --------------------------------------------------------- JSON emission --

using obs::AppendF;
using obs::JsonEscape;

// Post-mortem dump for in-run failures (satellite of the chaos_test idiom:
// when a gated invariant breaks mid-run, the recent per-query ring is worth
// more than the aggregate numbers).
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
  AppendF(out, "\"k\":%zu,\"tau\":%u,\"lru\":%s,", c.spec.k, c.effective_tau,
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

int RunSuite(const SuiteSpec& suite, const std::string& out_path) {
  const workload::QueryLogSpec log_spec =
      workload::MaybeQuick(workload::DefaultLogSpec());
  auto wb = bench::MakeWorkbench(suite.dataset);
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);

  // Telemetry stays attached for the gated runs: the bench numbers are the
  // overhead budget, so the artifact must be produced with the windowed
  // metrics and the flight recorder live, exactly like a serving process.
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  wb->system->SetWindow(&window);
  wb->system->SetRecorder(&recorder);

  std::vector<CellResult> results;
  for (const CellSpec& cell : suite.cells) {
    std::fprintf(stderr, "[%s] cell %s...\n", suite.name.c_str(),
                 cell.name.c_str());
    // Per-cell epoch: instruments restart at zero so the recorded
    // percentiles describe exactly this cell.
    wb->metrics.ResetAll();

    CellResult r;
    r.spec = cell;
    r.cache_bytes = static_cast<size_t>(file_bytes * cell.cs_frac);
    r.agg = bench::RunCell(*wb, cell.method, r.cache_bytes, cell.k, cell.tau,
                           cell.lru);
    r.effective_tau = wb->system->last_tau();

    core::CostEstimate est;
    if (wb->system->EstimateCurrentCache(cell.k, &est).ok()) {
      r.model_supported = true;
      r.model = core::ValidateEstimate(est, r.agg.hit_ratio,
                                       r.agg.prune_ratio,
                                       r.agg.avg_remaining);
      // Mirror the validation into gauges so metric exporters see it too.
      wb->metrics.GetGauge("model.predicted_hit")->Set(r.model.predicted_hit);
      wb->metrics.GetGauge("model.observed_hit")->Set(r.model.observed_hit);
      wb->metrics.GetGauge("model.predicted_prune")
          ->Set(r.model.predicted_prune);
      wb->metrics.GetGauge("model.observed_prune")
          ->Set(r.model.observed_prune);
      wb->metrics.GetGauge("model.predicted_crefine")
          ->Set(r.model.predicted_crefine);
      wb->metrics.GetGauge("model.observed_crefine")
          ->Set(r.model.observed_crefine);
      wb->metrics.GetGauge("model.crefine_rel_error")
          ->Set(r.model.crefine_rel_error);
    }
    results.push_back(std::move(r));
  }

  std::string json;
  AppendF(&json, "{\"schema_version\":1,\"suite\":\"%s\",",
          JsonEscape(suite.name).c_str());
  AppendF(&json, "\"dataset\":{\"name\":\"%s\",\"n\":%zu,\"dim\":%zu,",
          JsonEscape(wb->spec.name).c_str(), wb->spec.n, wb->spec.dim);
  AppendF(&json, "\"ndom\":%u,\"seed\":%" PRIu64 "},", wb->spec.ndom,
          wb->spec.seed);
  AppendF(&json, "\"log\":{\"test_size\":%zu,\"seed\":%" PRIu64 "},",
          wb->log.test.size(), log_spec.seed);
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
  json.append("\"cells\":[");
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) json.push_back(',');
    AppendCellJson(&json, results[i]);
  }
  json.append("]}\n");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[%s] wrote %s (%zu cells)\n", suite.name.c_str(),
               out_path.c_str(), results.size());
  return 0;
}

// ------------------------------------------------------ concurrency suite --
//
// Thread-scaling cells for the concurrent query engine (docs/CONCURRENCY.md).
// The gated numbers are modeled, not wall-clock: the box running the bench
// may have a single core, where wall-clock QPS cannot show scaling, and the
// latency suites already established the convention that exact I/O counts x
// the disk model dominate measured CPU. Each query's modeled service time is
// its CPU seconds plus DiskModel seconds; capacity QPS at n threads is the
// FCFS makespan over n servers (all queries arrive at t=0, each runs on the
// earliest-free server), and the open-loop percentiles replay the same
// service times against a fixed-rate arrival process at 80% of capacity.
// Wall-clock QPS from a real n-thread Serve run is recorded per cell
// (wall_qps) but informational only — bench_diff never gates on it. Every
// cell also re-checks the concurrent results bit-exact against the serial
// reference; a mismatch fails the run AND marks the artifact so bench_diff
// fails too.

double FcfsMakespan(const std::vector<double>& service, size_t n_servers) {
  std::vector<double> free_at(n_servers, 0.0);
  for (double s : service) {
    *std::min_element(free_at.begin(), free_at.end()) += s;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

// FCFS sojourn times (queue wait + service) under a deterministic bursty
// open-loop arrival process: queries arrive in groups of `burst` at the
// given mean rate (one burst every burst * interarrival seconds). Smooth
// fixed-interval arrivals below saturation never queue, which would make
// the percentiles identical at every thread count; bursts are what expose
// the latency benefit of more workers while staying fully deterministic.
std::vector<double> OpenLoopSojourns(const std::vector<double>& service,
                                     size_t n_servers,
                                     double interarrival_seconds,
                                     size_t burst) {
  std::vector<double> free_at(n_servers, 0.0);
  std::vector<double> sojourn;
  sojourn.reserve(service.size());
  for (size_t i = 0; i < service.size(); ++i) {
    const double arrival = interarrival_seconds *
                           static_cast<double>(burst) *
                           static_cast<double>(i / burst);
    double& server = *std::min_element(free_at.begin(), free_at.end());
    const double start = std::max(arrival, server);
    server = start + service[i];
    sojourn.push_back(server - arrival);
  }
  return sojourn;
}

// Exact nearest-rank percentile (the batches here are 50 queries, so the
// O(1)-memory log-bucket histogram the engine uses would be overkill).
double SortedPercentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  size_t i = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  if (i >= v.size()) i = v.size() - 1;
  return v[i];
}

int RunConcurrencySuite(const std::string& out_path,
                        const std::string& recorder_path) {
  const workload::QueryLogSpec log_spec =
      workload::MaybeQuick(workload::DefaultLogSpec());
  auto wb = bench::MakeWorkbench(SmokeSpec());
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);
  const size_t cache_bytes = static_cast<size_t>(file_bytes * 0.30);
  const size_t k = 10;
  bench::Check(
      wb->system->ConfigureCache(core::CacheMethod::kHcO, cache_bytes),
      "ConfigureCache");

  // As in RunSuite: the gated wall-clock-adjacent numbers are measured with
  // live telemetry attached, so the overhead budget is part of the gate.
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  wb->system->SetWindow(&window);
  wb->system->SetRecorder(&recorder);

  // Serial reference pass: the bit-exactness baseline and the per-query
  // modeled service times every simulation below reuses.
  std::fprintf(stderr, "[concurrency] serial reference pass...\n");
  std::vector<core::QueryResult> serial(wb->log.test.size());
  std::vector<double> service;
  service.reserve(serial.size());
  double total_service = 0.0;
  for (size_t i = 0; i < wb->log.test.size(); ++i) {
    bench::Check(wb->system->Query(wb->log.test[i], k, &serial[i]), "Query");
    storage::IoStats io = serial[i].gen_io;
    io += serial[i].refine_io;
    service.push_back(serial[i].gen_seconds + serial[i].reduce_seconds +
                      serial[i].refine_seconds +
                      wb->system->disk_model().Seconds(io));
    total_service += service.back();
  }

  struct ConcCell {
    size_t threads = 0;
    double capacity_qps = 0.0;
    double speedup = 0.0;   // vs the threads=1 cell
    double wall_qps = 0.0;  // measured, machine-dependent, never gated
    double arrival_qps = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    bool bit_exact = false;
  };
  constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
  constexpr double kUtilization = 0.8;
  constexpr size_t kBurst = 8;  // clients arriving together per burst
  std::vector<ConcCell> cells;
  double base_qps = 0.0;
  bool all_exact = true;
  for (size_t n : kThreadCounts) {
    ConcCell c;
    c.threads = n;
    c.capacity_qps =
        static_cast<double>(service.size()) / FcfsMakespan(service, n);
    if (n == 1) base_qps = c.capacity_qps;
    c.speedup = base_qps > 0 ? c.capacity_qps / base_qps : 0.0;
    c.arrival_qps = kUtilization * c.capacity_qps;
    const std::vector<double> sojourns =
        OpenLoopSojourns(service, n, 1.0 / c.arrival_qps, kBurst);
    c.p50 = SortedPercentile(sojourns, 0.50);
    c.p95 = SortedPercentile(sojourns, 0.95);
    c.p99 = SortedPercentile(sojourns, 0.99);

    core::AggregateResult agg;
    std::vector<core::QueryResult> results;
    Timer wall;
    bench::Check(wb->system->Serve(wb->log.test, k, n, &agg, &results),
                 "Serve");
    const double wall_seconds = wall.ElapsedSeconds();
    c.wall_qps = wall_seconds > 0
                     ? static_cast<double>(results.size()) / wall_seconds
                     : 0.0;
    c.bit_exact = results.size() == serial.size();
    for (size_t i = 0; c.bit_exact && i < results.size(); ++i) {
      c.bit_exact = results[i].result_ids == serial[i].result_ids &&
                    results[i].candidates == serial[i].candidates &&
                    results[i].cache_hits == serial[i].cache_hits &&
                    results[i].remaining == serial[i].remaining;
    }
    all_exact = all_exact && c.bit_exact;
    std::fprintf(stderr,
                 "[concurrency] threads=%zu capacity=%.1f qps (x%.2f) "
                 "wall=%.1f qps p95=%.3fs bit_exact=%s\n",
                 n, c.capacity_qps, c.speedup, c.wall_qps, c.p95,
                 c.bit_exact ? "yes" : "NO");
    cells.push_back(c);
  }

  std::string json;
  AppendF(&json, "{\"schema_version\":1,\"suite\":\"concurrency\",");
  AppendF(&json, "\"dataset\":{\"name\":\"%s\",\"n\":%zu,\"dim\":%zu,",
          JsonEscape(wb->spec.name).c_str(), wb->spec.n, wb->spec.dim);
  AppendF(&json, "\"ndom\":%u,\"seed\":%" PRIu64 "},", wb->spec.ndom,
          wb->spec.seed);
  AppendF(&json, "\"log\":{\"test_size\":%zu,\"seed\":%" PRIu64 "},",
          wb->log.test.size(), log_spec.seed);
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
  AppendF(&json,
          "\"config\":{\"method\":\"HC-O\",\"cache_bytes\":%zu,\"k\":%zu,"
          "\"utilization\":%.9g,\"burst\":%zu,"
          "\"avg_service_seconds\":%.9g},",
          cache_bytes, k, kUtilization, kBurst,
          total_service / static_cast<double>(service.size()));
  json.append("\"cells\":[");
  for (size_t i = 0; i < cells.size(); ++i) {
    const ConcCell& c = cells[i];
    if (i > 0) json.push_back(',');
    AppendF(&json, "{\"name\":\"threads_%zu\",\"threads\":%zu,", c.threads,
            c.threads);
    AppendF(&json,
            "\"throughput\":{\"capacity_qps\":%.9g,\"speedup_vs_1\":%.9g,"
            "\"wall_qps\":%.9g},",
            c.capacity_qps, c.speedup, c.wall_qps);
    AppendF(&json,
            "\"open_loop\":{\"utilization\":%.9g,\"arrival_qps\":%.9g,"
            "\"p50_seconds\":%.9g,\"p95_seconds\":%.9g,"
            "\"p99_seconds\":%.9g},",
            kUtilization, c.arrival_qps, c.p50, c.p95, c.p99);
    AppendF(&json, "\"bit_exact\":%s}", c.bit_exact ? "true" : "false");
  }
  json.append("]}\n");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "[concurrency] wrote %s (%zu cells)\n",
               out_path.c_str(), cells.size());
  if (!all_exact) {
    std::fprintf(stderr,
                 "error: concurrent results diverged from the serial "
                 "reference (see bit_exact flags)\n");
    DumpRecorder(recorder, recorder_path);
    return 1;
  }
  return 0;
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
// live capacity must match the measured one to within bench_diff's
// max_mrc_error. The artifact also records the exact miss-cause breakdown
// (compulsory + capacity + invalidation must equal misses — a reconciliation
// failure fails the run and dumps the flight recorder) and the what-if
// panel: LRU hit ratios at 1/2x, 1x and 2x the live capacity, from the same
// sampled stack distances.

int RunAnalyticsSuite(const std::string& out_path, const std::string& mrc_path,
                      const std::string& recorder_path) {
  const workload::QueryLogSpec log_spec =
      workload::MaybeQuick(workload::DefaultLogSpec());
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
  constexpr size_t kK = 10;

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
    obs::CacheAnalytics::WorkingSet ws;
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

    c.predicted_miss = analytics.PredictedMissRatioAt(c.capacity_items);
    c.measured_miss = 1.0 - c.agg.hit_ratio;
    c.prediction_error = std::fabs(c.predicted_miss - c.measured_miss);
    c.sampled_accesses = analytics.sampled_accesses();
    c.tracked_keys = analytics.tracked_keys();
    c.mb = analytics.miss_breakdown();
    c.reconciled =
        c.mb.compulsory + c.mb.capacity + c.mb.invalidation == c.mb.misses;
    all_reconciled = all_reconciled && c.reconciled;
    c.ws = analytics.working_set();
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

  std::string json;
  AppendF(&json, "{\"schema_version\":1,\"suite\":\"analytics\",");
  AppendF(&json, "\"dataset\":{\"name\":\"%s\",\"n\":%zu,\"dim\":%zu,",
          JsonEscape(wb->spec.name).c_str(), wb->spec.n, wb->spec.dim);
  AppendF(&json, "\"ndom\":%u,\"seed\":%" PRIu64 "},", wb->spec.ndom,
          wb->spec.seed);
  AppendF(&json, "\"log\":{\"test_size\":%zu,\"seed\":%" PRIu64 "},",
          wb->log.test.size(), log_spec.seed);
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
    AppendF(&json,
            "\"working_set\":{\"current_cardinality\":%.9g,"
            "\"previous_cardinality\":%.9g,\"jaccard\":%.9g,"
            "\"windows\":%" PRIu64 "},",
            c.ws.current_cardinality, c.ws.previous_cardinality,
            c.ws.jaccard, c.ws.windows);
    json.append("\"lru_what_if\":[");
    for (size_t j = 0; j < c.lru_what_if.size(); ++j) {
      AppendF(&json, "%s{\"size_items\":%" PRIu64 ",\"hit_ratio\":%.9g}",
              j == 0 ? "" : ",", c.lru_what_if[j].size_items,
              c.lru_what_if[j].hit_ratio);
    }
    json.append("]}}");
  }
  json.append("]}\n");

  Status st = obs::WriteStringToFile(out_path, json);
  if (!st.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", out_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[analytics] wrote %s (%zu cells)\n", out_path.c_str(),
               cells.size());

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
  st = obs::WriteStringToFile(mrc_path, mrc);
  if (!st.ok()) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", mrc_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[analytics] wrote %s\n", mrc_path.c_str());

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
               "usage: eeb_bench --suite <name> [--out <path>]\n"
               "                 [--mrc-out <path>] [--recorder-out <path>]\n"
               "       eeb_bench --list\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string suite_name;
  std::string out_path;
  std::string mrc_path;
  std::string recorder_path;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--suite" || arg == "--out" || arg == "--mrc-out" ||
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

  const std::vector<SuiteSpec> suites = AllSuites();
  if (list) {
    for (const SuiteSpec& s : suites) {
      std::printf("%-8s %zu cells  %s\n", s.name.c_str(), s.cells.size(),
                  s.what.c_str());
    }
    std::printf("%-8s %zu cells  %s\n", "concurrency", size_t{4},
                "Thread scaling: modeled QPS + open-loop latency at "
                "1/2/4/8 threads (HC-O, smoke)");
    std::printf("%-8s %zu cells  %s\n", "analytics", size_t{3},
                "Cache introspection: MRC prediction vs measured LRU miss "
                "ratio, miss classes, LRU what-if panel (smoke)");
    return 0;
  }
  if (suite_name.empty()) return Usage();
  if (recorder_path.empty()) {
    recorder_path = "RECORDER_" + suite_name + ".json";
  }
  if (suite_name == "concurrency") {
    if (out_path.empty()) out_path = "BENCH_concurrency.json";
    return RunConcurrencySuite(out_path, recorder_path);
  }
  if (suite_name == "analytics") {
    if (out_path.empty()) out_path = "BENCH_analytics.json";
    if (mrc_path.empty()) mrc_path = "MRC_analytics.json";
    return RunAnalyticsSuite(out_path, mrc_path, recorder_path);
  }
  for (const SuiteSpec& s : suites) {
    if (s.name == suite_name) {
      if (out_path.empty()) out_path = "BENCH_" + s.name + ".json";
      return RunSuite(s, out_path);
    }
  }
  std::fprintf(stderr, "error: unknown suite '%s' (try --list)\n",
               suite_name.c_str());
  return 2;
}

}  // namespace
}  // namespace eeb

int main(int argc, char** argv) { return eeb::Main(argc, argv); }
