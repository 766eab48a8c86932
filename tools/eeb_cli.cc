// eeb_cli — command-line front end for the library.
//
//   eeb_cli gen   --out data.fvecs [--n 50000] [--dim 64] [--ndom 1024]
//                 [--clusters 32] [--stddev S] [--sparsity 0.0] [--seed 1]
//   eeb_cli info  --data data.fvecs
//   eeb_cli query --data data.fvecs [--queries q.fvecs] [--k 10]
//                 [--cache none|exact|hc-w|hc-v|hc-m|hc-d|hc-o|c-va]
//                 [--cache-mb 8] [--tau 0] [--ndom V] [--integral 1]
//                 [--workload 1000] [--test 50] [--lru] [--eager]
//                 [--deadline-ms MS] [--io-retries N]
//                 [--metrics-out m.json] [--metrics-prom m.prom]
//                 [--trace-out t.jsonl]
//                 [--threads N] [--explain]
//                 [--stats-interval-ms MS] [--stats-out s.jsonl]
//                 [--recorder-out r.json] [--mrc-out mrc.json]
//                 [--mrc-rate 0.01]
//
// `query` builds the full pipeline (point file, C2LSH, workload analysis,
// cache) in a temp directory and reports the paper-style statistics. When
// --queries is omitted a Zipf query log is synthesized from the data.
// --metrics-out / --metrics-prom dump the full metrics registry (JSON /
// Prometheus text); --trace-out writes one JSON line per executed query
// (its explain record plus per-candidate events).
//
// The test batch runs through one System::Serve call. Live serving mode:
// --threads sets how many threads run it (default 1),
// --stats-interval-ms/--stats-out stream one live.* JSON snapshot line per
// interval, --explain prints a per-query explain record, and
// --recorder-out dumps the flight recorder (recent ring + retained
// slow/degraded queries). --deadline-ms sets the engine's per-query
// deadline (EngineOptions::deadline_ms).
//
// Each command accepts only the flags listed above; any other --flag exits
// 2 naming it, so a typo never silently runs a default.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "workload/fvecs.h"
#include "workload/generator.h"

namespace {

using namespace eeb;

// Minimal --key value argument parser over the flags a command accepts.
// Flags in `bool_flags` take no value (present means "1"); flags in
// `value_flags` require one — a trailing --flag with no value is an error,
// not silently ignored — and any other --flag exits 2.
class Args {
 public:
  Args(int argc, char** argv, int start,
       const std::set<std::string>& value_flags,
       const std::set<std::string>& bool_flags = {}) {
    int i = start;
    while (i < argc) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got %s\n", argv[i]);
        std::exit(2);
      }
      const std::string key = argv[i] + 2;
      if (bool_flags.count(key) > 0) {
        kv_[key] = "1";
        i += 1;
        continue;
      }
      if (value_flags.count(key) == 0) {
        std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for --%s\n", key.c_str());
        std::exit(2);
      }
      kv_[key] = argv[i + 1];
      i += 2;
    }
  }

  std::string Str(const std::string& key, const std::string& dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }

  // Numeric flags: the whole value must parse, with no trailing junk, and
  // lie in [lo, hi]; anything else exits 2 naming the flag. The default
  // lower bound of 0 rejects negative counts and sizes, and a double flag
  // never accepts NaN or an infinity.
  long Int(const std::string& key, long dflt, long lo = 0,
           long hi = std::numeric_limits<long>::max()) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
      BadValue(key, text,
               hi == std::numeric_limits<long>::max()
                   ? "an integer >= " + std::to_string(lo)
                   : "an integer in [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
    }
    return v;
  }
  double Dbl(const std::string& key, double dflt, double lo = 0.0,
             double hi = std::numeric_limits<double>::max()) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return dflt;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= lo && v <= hi)) {
      char want[96];
      if (hi == std::numeric_limits<double>::max()) {
        std::snprintf(want, sizeof(want), "a finite number >= %.15g", lo);
      } else {
        std::snprintf(want, sizeof(want), "a number in [%.15g, %.15g]", lo,
                      hi);
      }
      BadValue(key, text, want);
    }
    return v;
  }
  bool Has(const std::string& key) const { return kv_.count(key) > 0; }

 private:
  [[noreturn]] static void BadValue(const std::string& key, const char* text,
                                    const std::string& want) {
    std::fprintf(stderr, "invalid value for --%s: '%s' (want %s)\n",
                 key.c_str(), text, want.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> kv_;
};

constexpr long kMaxU32 = std::numeric_limits<uint32_t>::max();
// The histogram DP allocates buckets x ndom cells, and its run time grows
// faster than ndom: 16384 is the largest domain a query run accepts.
constexpr long kMaxNdom = 16384;
// The synthesized query log holds (--workload + --test) vectors in memory.
constexpr double kMaxQueryLogBytes = 1 << 30;

// Cleanup run by Die before std::exit. std::exit performs no stack
// unwinding, so without this an early error path would abandon the stats
// publisher thread and lose buffered --stats-out / --mrc-out output that
// was already collected.
std::function<void()> g_die_cleanup;

[[noreturn]] void Die(const Status& st, const char* what) {
  std::fprintf(stderr, "error: %s: %s\n", what, st.ToString().c_str());
  if (g_die_cleanup) g_die_cleanup();
  std::exit(1);
}

int CmdGen(const Args& args) {
  const std::string out = args.Str("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen: --out is required\n");
    return 2;
  }
  workload::DatasetSpec spec;
  spec.name = "cli";
  // Point ids are 32-bit, so a dataset holds at most kMaxU32 points.
  spec.n = args.Int("n", 50000, 0, kMaxU32);
  spec.dim = args.Int("dim", 64, 1);
  spec.ndom = static_cast<uint32_t>(args.Int("ndom", 1024, 1, kMaxU32));
  spec.clusters = static_cast<uint32_t>(args.Int("clusters", 32, 1, kMaxU32));
  spec.cluster_stddev = args.Dbl("stddev", 0.05 * spec.ndom);
  spec.sparsity = args.Dbl("sparsity", 0.0, 0.0, 1.0);
  spec.seed = args.Int("seed", 1, std::numeric_limits<long>::min());

  Dataset data = workload::GenerateClustered(spec);
  Status st = workload::WriteFvecs(storage::Env::Default(), out, data);
  if (!st.ok()) Die(st, "write fvecs");
  std::printf("wrote %zu x %zu-d vectors to %s\n", data.size(), data.dim(),
              out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  const std::string path = args.Str("data", "");
  Dataset data;
  Status st = workload::ReadFvecs(storage::Env::Default(), path, &data);
  if (!st.ok()) Die(st, "read fvecs");
  std::printf("%s: %zu vectors, %zu dimensions, max value %.2f, %.1f MB "
              "as float32\n",
              path.c_str(), data.size(), data.dim(), data.MaxValue(),
              data.size() * data.dim() * 4.0 / (1 << 20));
  return 0;
}

core::CacheMethod ParseMethod(const std::string& name) {
  if (name == "none") return core::CacheMethod::kNone;
  if (name == "exact") return core::CacheMethod::kExact;
  if (name == "hc-w") return core::CacheMethod::kHcW;
  if (name == "hc-v") return core::CacheMethod::kHcV;
  if (name == "hc-m") return core::CacheMethod::kHcM;
  if (name == "hc-d") return core::CacheMethod::kHcD;
  if (name == "hc-o") return core::CacheMethod::kHcO;
  if (name == "c-va") return core::CacheMethod::kCVa;
  std::fprintf(stderr, "unknown cache method: %s\n", name.c_str());
  std::exit(2);
}

int CmdQuery(const Args& args) {
  // Strict flag validation first: a bad number or sampling rate fails
  // before any dataset or index work (and before live outputs exist).
  const uint32_t ndom_flag =
      static_cast<uint32_t>(args.Int("ndom", 0, 0, kMaxNdom));
  const size_t test_size = static_cast<size_t>(args.Int("test", 50));
  const size_t workload_size = static_cast<size_t>(args.Int("workload", 1000));
  const bool integral = args.Int("integral", 1, 0, 1) != 0;
  const double deadline_ms = args.Dbl("deadline-ms", 0.0);
  const int io_retries = static_cast<int>(
      args.Int("io-retries", storage::RetryPolicy{}.max_retries, 0,
               std::numeric_limits<int>::max()));
  const core::CacheMethod method = ParseMethod(args.Str("cache", "hc-o"));
  // Capped at 2^43 MB so the byte count (MB * 2^20) fits size_t.
  const size_t cache_bytes = static_cast<size_t>(
      args.Dbl("cache-mb", 8.0, 0.0, 8796093022208.0) * (1 << 20));
  const uint32_t tau = static_cast<uint32_t>(args.Int("tau", 0, 0, kMaxU32));
  const int stats_interval_ms = static_cast<int>(
      args.Int("stats-interval-ms", 1000, 0, std::numeric_limits<int>::max()));
  // k is 32-bit in the per-query record.
  const size_t k = static_cast<size_t>(args.Int("k", 10, 1, kMaxU32));
  // --threads 0 also means one thread; the cap keeps a typo from spawning
  // millions of threads.
  const size_t threads =
      static_cast<size_t>(std::max<long>(1, args.Int("threads", 1, 0, 1024)));
  const double mrc_rate = args.Dbl("mrc-rate", 0.01);
  if (args.Has("mrc-rate") && !(mrc_rate > 0.0 && mrc_rate <= 1.0)) {
    Die(Status::InvalidArgument("--mrc-rate must be in (0, 1]"),
        "parse --mrc-rate");
  }

  Dataset data;
  Status st = workload::ReadFvecs(storage::Env::Default(),
                                  args.Str("data", ""), &data);
  if (!st.ok()) Die(st, "read data");
  if (data.empty()) {
    std::fprintf(stderr, "query: dataset is empty\n");
    return 2;
  }
  // Bounds that depend on the data. Values outside [0, ndom) are left to
  // System::Create, which names the offending coordinate.
  const double max_value = data.MaxValue();  // >= 0; NaN never wins
  if (ndom_flag == 0 && max_value >= kMaxNdom) {
    std::fprintf(stderr,
                 "invalid value for --ndom: none given, and the data's max "
                 "value %.9g needs one above %ld\n",
                 max_value, kMaxNdom);
    return 2;
  }
  const double row_bytes = static_cast<double>(data.dim() * sizeof(Scalar));
  if (!args.Has("queries") &&
      static_cast<double>(workload_size + test_size) * row_bytes >
          kMaxQueryLogBytes) {
    std::fprintf(stderr,
                 "invalid value for --%s: --workload %zu + --test %zu "
                 "queries of %zu dims exceed the 1 GiB query-log bound\n",
                 workload_size >= test_size ? "workload" : "test",
                 workload_size, test_size, data.dim());
    return 2;
  }
  const uint32_t ndom = ndom_flag != 0
                            ? ndom_flag
                            : static_cast<uint32_t>(max_value) + 1;

  workload::QueryLog log;
  if (args.Has("queries")) {
    Dataset qs;
    st = workload::ReadFvecs(storage::Env::Default(),
                             args.Str("queries", ""), &qs);
    if (!st.ok()) Die(st, "read queries");
    // First part warms the workload analysis, tail is the test set.
    const size_t test = std::min(qs.size(), test_size);
    for (size_t i = 0; i + test < qs.size(); ++i) {
      auto p = qs.point(static_cast<PointId>(i));
      log.workload.emplace_back(p.begin(), p.end());
    }
    for (size_t i = qs.size() - test; i < qs.size(); ++i) {
      auto p = qs.point(static_cast<PointId>(i));
      log.test.emplace_back(p.begin(), p.end());
    }
  } else {
    workload::QueryLogSpec lspec;
    lspec.workload_size = workload_size;
    lspec.test_size = test_size;
    lspec.jitter_stddev = 0.015 * ndom;
    log = workload::GenerateQueryLog(data, lspec);
  }

  const std::string dir =
      (std::filesystem::temp_directory_path() / "eeb_cli").string();
  std::filesystem::create_directories(dir);

  core::SystemOptions opt;
  opt.ndom = ndom;
  opt.integral_values = integral;
  opt.engine.eager_miss_fetch = args.Has("eager");
  opt.engine.deadline_ms = deadline_ms;
  opt.engine.trace_events = args.Has("trace-out");
  opt.io_retry.max_retries = io_retries;
  std::unique_ptr<core::System> system;
  st = core::System::Create(storage::Env::Default(), dir, data,
                            log.workload, opt, &system);
  if (!st.ok()) Die(st, "build system");

  obs::MetricsRegistry metrics;
  const bool want_metrics =
      args.Has("metrics-out") || args.Has("metrics-prom");
  if (want_metrics) system->EnableMetrics(&metrics);

  // Live serving mode: periodic live.* snapshots, flight recorder +
  // per-query explain (docs/OBSERVABILITY.md).
  const bool explain = args.Has("explain");
  const bool trace = args.Has("trace-out");
  const bool live_stats =
      args.Has("stats-interval-ms") || args.Has("stats-out");
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  system->SetWindow(&window);
  system->SetRecorder(&recorder);

  // Cache introspection (docs/OBSERVABILITY.md "Cache analytics"):
  // --mrc-out / --mrc-rate attach the reuse-distance sampler, miss
  // classifier and working-set sketches to every cache probe.
  std::unique_ptr<obs::CacheAnalytics> analytics;
  if (args.Has("mrc-out") || args.Has("mrc-rate")) {
    obs::CacheAnalytics::Options aopt;
    aopt.sampling_rate = mrc_rate;
    aopt.key_space = std::max<uint64_t>(64, data.size());
    analytics = std::make_unique<obs::CacheAnalytics>(aopt);
    if (want_metrics) analytics->BindMetrics(&metrics);
    system->SetCacheAnalytics(analytics.get());
  }

  // Live outputs must survive Die paths: std::exit runs no destructors, so
  // the registered cleanup stops the publisher (emitting its final line),
  // closes the stats file, and dumps whatever MRC data was collected.
  std::ofstream stats_file;
  std::unique_ptr<obs::StatsPublisher> publisher;
  auto write_mrc = [&]() -> Status {
    if (!args.Has("mrc-out") || analytics == nullptr) return Status::OK();
    return obs::WriteStringToFile(args.Str("mrc-out", ""),
                                  obs::ExportMrcJson(*analytics));
  };
  g_die_cleanup = [&] {
    if (publisher != nullptr) publisher->Stop();
    if (stats_file.is_open()) stats_file.close();
    (void)write_mrc();
  };

  st = system->ConfigureCache(method, cache_bytes, tau, args.Has("lru"));
  if (!st.ok()) Die(st, "configure cache");

  // The stats publisher starts after the cache is configured so its first
  // interval already observes serving traffic.
  if (live_stats) {
    std::ostream* sink = &std::cerr;
    if (args.Has("stats-out")) {
      stats_file.open(args.Str("stats-out", ""));
      if (!stats_file) {
        std::fprintf(stderr, "query: cannot open --stats-out file\n");
        return 2;
      }
      sink = &stats_file;
    }
    obs::StatsPublisher::Options pub_opt;
    pub_opt.interval_ms = stats_interval_ms;
    publisher = std::make_unique<obs::StatsPublisher>(
        &window, want_metrics ? &metrics : nullptr, sink, pub_opt);
  }

  core::AggregateResult agg;
  // --explain and --trace-out both read the per-query results.
  std::vector<core::QueryResult> per_query;
  std::vector<core::QueryResult>* const want_per_query =
      explain || trace ? &per_query : nullptr;
  st = system->Serve(log.test, k, threads, &agg, want_per_query);
  if (!st.ok()) Die(st, "run queries");
  std::string trace_jsonl;
  for (size_t i = 0; trace && i < per_query.size(); ++i) {
    obs::AppendTraceJson(i, per_query[i], per_query[i].events, &trace_jsonl);
    trace_jsonl.push_back('\n');
  }
  if (publisher != nullptr) publisher->Stop();

  // Mirror the final live window into gauges before the registry dumps, so
  // --metrics-out is self-contained without --stats-interval-ms.
  if (want_metrics) window.PublishTo(&metrics);
  if (args.Has("metrics-out")) {
    st = obs::WriteStringToFile(args.Str("metrics-out", ""),
                                obs::ExportJson(metrics));
    if (!st.ok()) Die(st, "write metrics json");
  }
  if (args.Has("metrics-prom")) {
    st = obs::WriteStringToFile(args.Str("metrics-prom", ""),
                                obs::ExportPrometheus(metrics));
    if (!st.ok()) Die(st, "write metrics prom");
  }
  if (trace) {
    st = obs::WriteStringToFile(args.Str("trace-out", ""), trace_jsonl);
    if (!st.ok()) Die(st, "write trace jsonl");
  }
  if (args.Has("recorder-out")) {
    st = obs::WriteStringToFile(args.Str("recorder-out", ""),
                                recorder.DumpJson());
    if (!st.ok()) Die(st, "write recorder json");
  }
  if (args.Has("mrc-out")) {
    st = write_mrc();
    if (!st.ok()) Die(st, "write mrc json");
  }
  if (explain) {
    for (size_t i = 0; i < per_query.size(); ++i) {
      std::printf("explain[%zu] %s\n", i,
                  obs::ExplainJson(per_query[i]).c_str());
    }
  }

  std::printf("dataset: %zu x %zu-d, ndom=%u | cache: %s %.1f MB tau=%u\n",
              data.size(), data.dim(), ndom, core::CacheMethodName(method),
              cache_bytes / double(1 << 20), system->last_tau());
  std::printf("queries: %zu | avg |C(q)|=%.1f remaining=%.1f fetched=%.1f\n",
              agg.queries, agg.avg_candidates, agg.avg_remaining,
              agg.avg_fetched);
  std::printf("hit ratio %.3f | prune ratio %.3f\n", agg.hit_ratio,
              agg.prune_ratio);
  std::printf("modeled response: avg %.3f s (gen %.3f + refine %.3f), "
              "p50 %.3f, p95 %.3f, p99 %.3f\n",
              agg.avg_response_seconds, agg.avg_gen_seconds,
              agg.avg_refine_seconds, agg.p50_response_seconds,
              agg.p95_response_seconds, agg.p99_response_seconds);
  std::printf("robustness: degraded %zu/%zu (rate %.3f) | substituted/q "
              "%.2f | read failures %zu | deadline cuts %zu\n",
              agg.degraded_queries, agg.queries, agg.degraded_rate,
              agg.avg_substituted, agg.read_failures, agg.deadline_cuts);
  {
    const obs::WindowSnapshot live = window.GetSnapshot();
    std::printf("live: window %.1fs qps %.1f | p95 %.4fs ewma %.4fs | "
                "hit ratio %.3f | recorded %llu (slow/degraded %llu)\n",
                live.window_seconds, live.qps, live.p95_seconds,
                live.ewma_seconds, live.hit_ratio,
                static_cast<unsigned long long>(recorder.recorded()),
                static_cast<unsigned long long>(
                    recorder.retained_slow_total()));
  }
  if (analytics != nullptr) {
    const obs::CacheAnalytics::MissBreakdown mb = analytics->miss_breakdown();
    std::printf("analytics: rate %.3g sampled %llu | misses %llu "
                "(compulsory %llu capacity %llu invalidation %llu) | "
                "predicted miss@cap %.3f\n",
                analytics->sampling_rate(),
                static_cast<unsigned long long>(analytics->sampled_accesses()),
                static_cast<unsigned long long>(mb.misses),
                static_cast<unsigned long long>(mb.compulsory),
                static_cast<unsigned long long>(mb.capacity),
                static_cast<unsigned long long>(mb.invalidation),
                analytics->PredictedMissRatioAt(analytics->reference_size()));
    for (const obs::CacheAnalytics::WhatIfPoint& p : analytics->LruWhatIf()) {
      std::printf("what-if[lru cap=%llu]: hit ratio %.3f\n",
                  static_cast<unsigned long long>(p.size_items), p.hit_ratio);
    }
  }
  // Locals referenced by the Die cleanup are about to go out of scope
  // normally; destructors handle the flushing from here.
  g_die_cleanup = nullptr;
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: eeb_cli <gen|info|query> [--flag value ...]\n"
               "  gen   --out F [--n N --dim D --ndom V --clusters C "
               "--stddev S --sparsity S --seed X]\n"
               "  info  --data F\n"
               "  query --data F [--queries F --k K --cache M --cache-mb MB "
               "--tau T]\n"
               "        [--ndom V --integral 0|1 --workload N --test N]\n"
               "        [--lru] [--eager] [--deadline-ms MS] [--io-retries N]\n"
               "        [--metrics-out F.json] [--metrics-prom F.prom] "
               "[--trace-out F.jsonl]\n"
               "        [--threads N] [--explain]\n"
               "        [--stats-interval-ms MS] [--stats-out F.jsonl] "
               "[--recorder-out F.json]\n"
               "        [--mrc-out F.json] [--mrc-rate R]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") {
    return CmdGen(Args(argc, argv, 2,
                       {"out", "n", "dim", "ndom", "clusters", "stddev",
                        "sparsity", "seed"}));
  }
  if (cmd == "info") return CmdInfo(Args(argc, argv, 2, {"data"}));
  if (cmd == "query") {
    return CmdQuery(Args(
        argc, argv, 2,
        {"data", "queries", "k", "cache", "cache-mb", "tau", "ndom",
         "integral", "workload", "test", "deadline-ms", "io-retries",
         "metrics-out", "metrics-prom", "trace-out", "threads",
         "stats-interval-ms", "stats-out", "recorder-out", "mrc-out",
         "mrc-rate"},
        {"lru", "eager", "explain"}));
  }
  Usage();
  return 2;
}
