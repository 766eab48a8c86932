// Tests for the observability subsystem: instruments (counter, gauge,
// log-bucketed latency histogram), registry semantics, exporters, per-query
// trace lines, and an end-to-end System smoke test that checks the pipeline
// instruments and trace events fire during real queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "cache/exact_cache.h"
#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "storage/mem_env.h"
#include "workload/generator.h"
#include "scoped_temp_dir.h"

namespace eeb::obs {
namespace {

// ---------------------------------------------------------------- Counter --

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

// ------------------------------------------------------------------ Gauge --

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Add(-4.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(GaugeTest, ConcurrentAddsSumExactlyWithIntegralDeltas) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  // Integral doubles up to 2^53 add without rounding, so the CAS loop must
  // lose no increment.
  EXPECT_DOUBLE_EQ(g.value(), double(kThreads) * kPerThread);
}

// ------------------------------------------------------ LatencyHistogram --

TEST(LatencyHistogramTest, CountSumMaxMean) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  h.Record(0.001);
  h.Record(0.003);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.004);
  EXPECT_DOUBLE_EQ(h.max(), 0.003);
  EXPECT_DOUBLE_EQ(h.mean(), 0.002);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(LatencyHistogramTest, OutOfRangeValuesAreClamped) {
  LatencyHistogram h;
  h.Record(0.0);      // below range -> underflow bucket
  h.Record(-5.0);     // negative -> underflow bucket
  h.Record(1e9);      // above range -> top bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // p0 lands in the underflow bucket, represented as the range minimum.
  EXPECT_LE(h.Percentile(0.0), LatencyHistogram::kMinValue);
}

// Percentiles from the histogram must match the exact sorted quantiles
// within one relative bucket width (the acceptance bound of the histogram
// design) on a distribution spanning several orders of magnitude.
TEST(LatencyHistogramTest, PercentilesMatchExactQuantilesWithinBucketWidth) {
  LatencyHistogram h;
  std::mt19937_64 rng(123);
  // Log-uniform in [10 us, 1 s]: every decade gets mass, like real latency.
  std::uniform_real_distribution<double> exp_dist(std::log(1e-5),
                                                  std::log(1.0));
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double v = std::exp(exp_dist(rng));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());

  const double width = LatencyHistogram::RelativeBucketWidth();
  for (double p : {0.0, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    const size_t idx =
        static_cast<size_t>(p * static_cast<double>(values.size() - 1));
    const double exact = values[idx];
    const double approx = h.Percentile(p);
    EXPECT_GE(approx, exact / width) << "p=" << p;
    EXPECT_LE(approx, exact * width) << "p=" << p;
  }
  // Monotone in p.
  EXPECT_LE(h.Percentile(0.50), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(0.99));
}

TEST(LatencyHistogramTest, SingleValuePercentileIsTight) {
  LatencyHistogram h;
  h.Record(0.0125);
  const double width = LatencyHistogram::RelativeBucketWidth();
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h.Percentile(p), 0.0125 / width);
    EXPECT_LE(h.Percentile(p), 0.0125 * width);
  }
}

// --------------------------------------------------------------- Registry --

TEST(MetricsRegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry reg;
  Counter* c1 = reg.GetCounter("cache.hits");
  Counter* c2 = reg.GetCounter("cache.hits");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, reg.GetCounter("cache.misses"));
  EXPECT_EQ(reg.GetGauge("cache.items"), reg.GetGauge("cache.items"));
  EXPECT_EQ(reg.GetHistogram("lat"), reg.GetHistogram("lat"));
}

TEST(MetricsRegistryTest, SnapshotsAreSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b.second")->Add(2);
  reg.GetCounter("a.first")->Add(1);
  reg.GetGauge("g")->Set(1.5);
  reg.GetHistogram("h")->Record(0.25);

  auto counters = reg.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.first");
  EXPECT_EQ(counters[0].second, 1u);
  EXPECT_EQ(counters[1].first, "b.second");
  EXPECT_EQ(counters[1].second, 2u);

  auto gauges = reg.Gauges();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(gauges[0].second, 1.5);

  auto hists = reg.Histograms();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(hists[0].second.max, 0.25);
  EXPECT_LE(hists[0].second.p50, hists[0].second.p95);
  EXPECT_LE(hists[0].second.p95, hists[0].second.p99);

  reg.ResetAll();
  EXPECT_EQ(reg.Counters()[0].second, 0u);
  EXPECT_DOUBLE_EQ(reg.Gauges()[0].second, 0.0);
  EXPECT_EQ(reg.Histograms()[0].second.count, 0u);
}

TEST(MetricsRegistryTest, RecordIfErrorTagsByCause) {
  MetricsRegistry reg;
  RecordIfError(&reg, Status::OK(), "flush");  // OK is free
  EXPECT_TRUE(reg.Counters().empty());

  RecordIfError(&reg, Status::IOError("disk gone"), "flush");
  RecordIfError(&reg, Status::IOError("disk gone"), "flush");
  RecordIfError(&reg, Status::Corruption("bad page"), "reload");
  RecordIfError(nullptr, Status::IOError("x"), "flush");  // null registry: no-op

  EXPECT_EQ(reg.GetCounter("status.dropped.flush")->value(), 2u);
  EXPECT_EQ(reg.GetCounter("status.dropped.reload")->value(), 1u);
}

// -------------------------------------------------------------- Exporters --

TEST(ExportTest, StreamSinkMatchesStringOverloads) {
  MetricsRegistry reg;
  reg.GetCounter("cache.hits")->Add(7);
  reg.GetGauge("cache.bytes")->Set(1024.0);
  reg.GetHistogram("query.seconds")->Record(0.25);

  std::ostringstream prom;
  ExportPrometheus(reg, prom);
  EXPECT_EQ(prom.str(), ExportPrometheus(reg));

  std::ostringstream json;
  ExportJson(reg, json);
  EXPECT_EQ(json.str(), ExportJson(reg));

  // Caller stream formatting state must not leak into the output.
  std::ostringstream weird;
  weird.precision(1);
  weird.setf(std::ios::fixed);
  ExportJson(reg, weird);
  EXPECT_EQ(weird.str(), ExportJson(reg));
}

TEST(ExportTest, PrometheusFormat) {
  MetricsRegistry reg;
  reg.GetCounter("cache.hits")->Add(7);
  reg.GetGauge("cache.items")->Set(42.0);
  reg.GetHistogram("engine.gen_seconds")->Record(0.5);

  const std::string text = ExportPrometheus(reg);
  EXPECT_NE(text.find("# TYPE eeb_cache_hits counter"), std::string::npos);
  EXPECT_NE(text.find("eeb_cache_hits_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eeb_cache_items gauge"), std::string::npos);
  EXPECT_NE(text.find("eeb_cache_items 42"), std::string::npos);
  EXPECT_NE(text.find("eeb_engine_gen_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("eeb_engine_gen_seconds_count 1"), std::string::npos);
}

TEST(ExportTest, JsonFormat) {
  MetricsRegistry reg;
  reg.GetCounter("n")->Add(3);
  reg.GetGauge("g")->Set(0.25);
  reg.GetHistogram("h")->Record(1.0);

  const std::string json = ExportJson(reg);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"n\":3"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ExportTest, ValidatesMetricNames) {
  EXPECT_TRUE(IsValidMetricName("cache.hits"));
  EXPECT_TRUE(IsValidMetricName("live.latency.p95_seconds"));
  EXPECT_TRUE(IsValidMetricName("n0"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("Cache.Hits"));     // uppercase
  EXPECT_FALSE(IsValidMetricName("cache..hits"));    // empty segment
  EXPECT_FALSE(IsValidMetricName(".hits"));          // leading dot
  EXPECT_FALSE(IsValidMetricName("cache.hits."));    // trailing dot
  EXPECT_FALSE(IsValidMetricName("cache-hits"));     // dash
  EXPECT_FALSE(IsValidMetricName("a b"));            // space
  EXPECT_FALSE(IsValidMetricName("x\nrogue 1"));     // exposition injection
}

TEST(ExportTest, PrometheusSkipsInvalidNamesAndReportsTheSkips) {
  MetricsRegistry reg;
  reg.GetCounter("cache.hits")->Add(7);
  // A malformed name (from a buggy call site) must not corrupt the whole
  // exposition: a scraper rejects the full scrape on one bad line.
  reg.GetCounter("BAD NAME\nrogue_metric 1")->Add(3);
  reg.GetGauge("also bad")->Set(1.0);

  const std::string text = ExportPrometheus(reg);
  EXPECT_NE(text.find("eeb_cache_hits_total 7"), std::string::npos);
  EXPECT_EQ(text.find("BAD"), std::string::npos);
  EXPECT_EQ(text.find("rogue_metric"), std::string::npos);
  EXPECT_EQ(text.find("also bad"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eeb_export_skipped_invalid_names gauge"),
            std::string::npos);
  EXPECT_NE(text.find("eeb_export_skipped_invalid_names 2"),
            std::string::npos);
  // A clean registry does not emit the skip gauge at all.
  MetricsRegistry clean;
  clean.GetCounter("ok")->Add(1);
  EXPECT_EQ(ExportPrometheus(clean).find("skipped_invalid_names"),
            std::string::npos);
}

TEST(ExportTest, PrometheusEmitsHelpAndTypeForEveryFamily) {
  MetricsRegistry reg;
  reg.GetCounter("cache.miss.compulsory")->Add(2);
  reg.GetGauge("cache.mrc.predicted_miss_ratio")->Set(0.25);
  reg.GetGauge("cache.mrc.lru_2x.hit_ratio")->Set(0.5);
  reg.GetHistogram("system.response_seconds")->Record(0.01);

  // Prometheus exposition contract: every sample line belongs to a family
  // whose "# HELP <name> ..." and "# TYPE <name> <kind>" lines appeared
  // first, in that order. A scraper drops families that violate this.
  const std::string text = ExportPrometheus(reg);
  std::istringstream in(text);
  std::string line;
  std::set<std::string> helped, typed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "#") {
      std::string kind, family;
      ls >> kind >> family;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      if (kind == "HELP") {
        EXPECT_FALSE(helped.count(family)) << "duplicate HELP: " << line;
        EXPECT_FALSE(typed.count(family)) << "TYPE before HELP: " << line;
        helped.insert(family);
      } else {
        EXPECT_TRUE(helped.count(family)) << "TYPE without HELP: " << line;
        typed.insert(family);
      }
      continue;
    }
    // Sample line: strip label block and exporter-added suffixes to recover
    // the family name announced by HELP/TYPE.
    std::string family = tok.substr(0, tok.find('{'));
    for (const char* suffix : {"_total", "_sum", "_count", "_max"}) {
      const size_t n = std::strlen(suffix);
      if (family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0 &&
          typed.count(family) == 0) {
        family.resize(family.size() - n);
        break;
      }
    }
    EXPECT_TRUE(helped.count(family) && typed.count(family))
        << "sample before HELP/TYPE: " << line;
  }
  // The new analytics families surface with their dotted names in HELP.
  EXPECT_NE(text.find("# HELP eeb_cache_miss_compulsory "
                      "cache.miss.compulsory (counter)"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eeb_cache_mrc_predicted_miss_ratio gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eeb_cache_mrc_lru_2x_hit_ratio gauge"),
            std::string::npos);
}

// Every metric name the full serving stack registers — engine counters,
// cache instruments, windowed live gauges, cache analytics, what-if panel —
// must pass IsValidMetricName, or the Prometheus exporter will refuse to
// emit it. Wired as the `metric_names` ctest.
TEST(MetricNames, AllRegisteredNamesAreValid) {
  workload::DatasetSpec dspec;
  dspec.n = 2000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.clusters = 8;
  dspec.seed = 13;
  Dataset data = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 30;
  qspec.workload_size = 100;
  qspec.test_size = 10;
  workload::QueryLog log = workload::GenerateQueryLog(data, qspec);

  core::SystemOptions opt;
  opt.lsh.beta_candidates = 100;
  storage::MemEnv env;
  std::unique_ptr<core::System> system;
  ASSERT_TRUE(core::System::Create(&env, "/metric_names", data, log.workload,
                                   opt, &system)
                  .ok());

  MetricsRegistry metrics;
  WindowedMetrics window;
  CacheAnalytics::Options aopt;
  aopt.sampling_rate = 1.0;
  aopt.key_space = data.size();
  CacheAnalytics analytics(aopt);
  analytics.BindMetrics(&metrics);
  system->EnableMetrics(&metrics);
  system->SetWindow(&window);
  system->SetCacheAnalytics(&analytics);
  ASSERT_TRUE(system->ConfigureCache(core::CacheMethod::kHcO, 4096).ok());

  core::AggregateResult agg;
  ASSERT_TRUE(system->Serve(log.test, 10, 1, &agg).ok());
  ASSERT_TRUE(system->ReconfigureCache().ok());  // generation-swap gauges
  ASSERT_TRUE(system->Serve(log.test, 10, 1, &agg).ok());
  analytics.PublishMetrics();
  window.PublishTo(&metrics);

  size_t checked = 0;
  for (const auto& [name, value] : metrics.Counters()) {
    EXPECT_TRUE(IsValidMetricName(name)) << "counter: " << name;
    ++checked;
  }
  for (const auto& [name, value] : metrics.Gauges()) {
    EXPECT_TRUE(IsValidMetricName(name)) << "gauge: " << name;
    ++checked;
  }
  for (const auto& [name, stats] : metrics.Histograms()) {
    EXPECT_TRUE(IsValidMetricName(name)) << "histogram: " << name;
    ++checked;
  }
  // The walk saw the whole stack, not a near-empty registry: analytics
  // counters, MRC and what-if gauges, and live window gauges.
  EXPECT_GT(checked, 40u);
  const auto counters = metrics.Counters();
  auto has_counter = [&counters](const std::string& name) {
    for (const auto& [n, v] : counters) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_counter("cache.miss.compulsory"));
  const auto gauges = metrics.Gauges();
  auto has_gauge = [&gauges](const std::string& name) {
    for (const auto& [n, v] : gauges) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_gauge("cache.mrc.sampling_rate"));
  EXPECT_TRUE(has_gauge("cache.ws.jaccard"));
  EXPECT_TRUE(has_gauge("cache.analytics.generation_swaps"));
  EXPECT_TRUE(has_gauge("live.qps"));
  EXPECT_TRUE(has_gauge("cache.mrc.lru_1x.hit_ratio"));

  system->SetCacheAnalytics(nullptr);
  system->SetWindow(nullptr);
  system->EnableMetrics(nullptr);
}

TEST(ExportTest, PrometheusEscapesLabelValues) {
  EXPECT_EQ(PromEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(PromEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(PromEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabelValue("a\nb"), "a\\nb");

  MetricsRegistry reg;
  reg.GetCounter("cache.hits")->Add(7);
  reg.GetHistogram("engine.gen_seconds")->Record(0.5);
  PromLabels labels;
  labels.emplace_back("instance", "host\"1\"\n\\end");
  std::ostringstream os;
  ExportPrometheus(reg, os, labels);
  const std::string text = os.str();
  EXPECT_NE(
      text.find(
          "eeb_cache_hits_total{instance=\"host\\\"1\\\"\\n\\\\end\"} 7"),
      std::string::npos);
  // Histogram quantile series carry the extra labels alongside "quantile".
  EXPECT_NE(text.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_NE(text.find("eeb_engine_gen_seconds_count{instance="),
            std::string::npos);
  // No unescaped newline may survive inside a label value: every line must
  // be a comment, blank, or "name{...} value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_NE(line.find(' '), std::string::npos) << "torn line: " << line;
  }
}

TEST(ExportTest, JsonEscapesMetricNames) {
  MetricsRegistry reg;
  reg.GetCounter("weird\"name\\with\nstuff")->Add(1);
  const std::string json = ExportJson(reg);
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nstuff\":1"),
            std::string::npos);
  // The raw quote/newline must not appear un-escaped (which would tear the
  // JSON document).
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

TEST(ExportTest, WriteStringToFileRoundTrip) {
  ScopedTempDir tmp("eeb_obs_write");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.File("out.txt");
  ASSERT_TRUE(WriteStringToFile(path, "payload\n").ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "payload\n");
  EXPECT_TRUE(WriteStringToFile("/nonexistent/dir/x.txt", "x").IsIOError());
}

// ------------------------------------------------------------- Trace JSON --

TEST(TraceJsonTest, ExplainAndEventsOnOneLine) {
  QueryExplain e;
  e.k = 10;
  e.candidates = 2;
  const std::vector<TraceEvent> events = {
      {TraceEventType::kCacheHit, 5, 1.25},
      {TraceEventType::kEarlyPrune, 6, 2.0},
      {TraceEventType::kDegraded, 7, std::numeric_limits<double>::infinity()},
  };
  std::string line;
  AppendTraceJson(3, e, events, &line);
  EXPECT_EQ(line.rfind("{\"query\":3,\"explain\":{", 0), 0u) << line;
  EXPECT_NE(line.find("\"k\":10"), std::string::npos);
  EXPECT_NE(line.find("\"candidates\":2"), std::string::npos);
  EXPECT_NE(line.find("{\"t\":\"cache_hit\",\"id\":5,\"v\":1.25}"),
            std::string::npos);
  EXPECT_NE(line.find("\"t\":\"early_prune\""), std::string::npos);
  // A cache miss's +inf bound must stay valid JSON.
  EXPECT_NE(line.find("{\"t\":\"degraded\",\"id\":7,\"v\":null}"),
            std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  line.clear();
  AppendTraceJson(0, e, {}, &line);
  EXPECT_NE(line.find("\"events\":[]}"), std::string::npos) << line;
}

// ------------------------------------------------------ System end-to-end --

TEST(ObsSystemTest, PipelineInstrumentsFireDuringQueries) {
  ScopedTempDir tmp("eeb_obs_system");
  ASSERT_TRUE(tmp.ok());

  workload::DatasetSpec dspec;
  dspec.n = 3000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.clusters = 8;
  dspec.seed = 11;
  Dataset data = workload::GenerateClustered(dspec);

  workload::QueryLogSpec qspec;
  qspec.pool_size = 30;
  qspec.workload_size = 100;
  qspec.test_size = 10;
  workload::QueryLog log = workload::GenerateQueryLog(data, qspec);

  core::SystemOptions opt;
  opt.lsh.beta_candidates = 100;
  opt.engine.trace_events = true;
  std::unique_ptr<core::System> system;
  ASSERT_TRUE(core::System::Create(storage::Env::Default(), tmp.path(), data,
                                   log.workload, opt, &system)
                  .ok());

  MetricsRegistry metrics;
  system->EnableMetrics(&metrics);
  // Deliberately tiny: misses and refinement fetches must occur so the
  // storage counters see traffic.
  ASSERT_TRUE(
      system->ConfigureCache(core::CacheMethod::kHcO, 4096).ok());

  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(system->Serve(log.test, 10, 1, &agg, &results).ok());

  // Batch-level instruments.
  EXPECT_EQ(metrics.GetCounter("engine.queries")->value(), log.test.size());
  EXPECT_EQ(metrics.GetHistogram("system.response_seconds")->count(),
            log.test.size());

  // Pipeline stages all saw traffic.
  EXPECT_EQ(metrics.GetCounter("lsh.queries")->value(), log.test.size());
  EXPECT_GT(metrics.GetCounter("lsh.bucket_probes")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("engine.candidates")->value(), 0u);
  EXPECT_GT(metrics.GetCounter("cache.hits")->value() +
                metrics.GetCounter("cache.misses")->value(),
            0u);
  EXPECT_GT(metrics.GetCounter("storage.point_reads")->value(), 0u);
  EXPECT_GT(metrics.GetGauge("cache.items")->value(), 0.0);

  // Engine counters agree with the cache's own accounting.
  EXPECT_EQ(metrics.GetCounter("engine.cache_hits")->value(),
            metrics.GetCounter("cache.hits")->value());

  // Every query carries its record and, with trace_events on, its events.
  ASSERT_EQ(results.size(), log.test.size());
  for (const core::QueryResult& r : results) {
    EXPECT_EQ(r.k, 10u);
    EXPECT_GT(r.candidates, 0u);
    EXPECT_FALSE(r.events.empty());
  }

  // The histogram percentiles surfaced in AggregateResult are ordered.
  EXPECT_LE(agg.p50_response_seconds, agg.p95_response_seconds);
  EXPECT_LE(agg.p95_response_seconds, agg.p99_response_seconds);
  EXPECT_GT(agg.p99_response_seconds, 0.0);

  // Exporters see the bound instruments.
  const std::string prom = ExportPrometheus(metrics);
  EXPECT_NE(prom.find("eeb_engine_queries_total"), std::string::npos);
  const std::string json = ExportJson(metrics);
  EXPECT_NE(json.find("\"system.response_seconds\""), std::string::npos);

  system->EnableMetrics(nullptr);
  ASSERT_TRUE(system->Serve(log.test, 10, 1, &agg).ok());  // detached ok
}

// One thread drives a cache (probe / admit / publish) while another exports
// the registry in a loop. The caches themselves are single-threaded by
// contract, but their bound instruments are shared with exporter threads;
// under -DEEB_SANITIZE=thread this test proves the counter and gauge paths
// between cache publication and the exporters are race-free.
TEST(ObsSystemTest, ExportWhileCacheDriverPublishesIsRaceFree) {
  constexpr size_t kDim = 4;
  MetricsRegistry metrics;
  cache::ExactCache cache(kDim, /*capacity_bytes=*/16 * kDim * sizeof(Scalar),
                          /*lru=*/true);
  cache.BindMetrics(&metrics, "cache");

  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream prom;
      std::ostringstream json;
      ExportPrometheus(metrics, prom);
      ExportJson(metrics, json);
    }
  });

  const std::vector<Scalar> q(kDim, 0.5F);
  for (int round = 0; round < 200; ++round) {
    for (PointId id = 0; id < 32; ++id) {
      double lb = 0.0;
      double ub = 0.0;
      if (!cache.Probe(q, id, &lb, &ub)) {
        const std::vector<Scalar> exact(kDim, static_cast<Scalar>(id));
        cache.Admit(id, exact);
      }
    }
    cache.PublishMetrics();
  }
  stop.store(true);
  exporter.join();

  EXPECT_GT(metrics.GetCounter("cache.misses")->value(), 0U);
  EXPECT_GT(metrics.GetCounter("cache.evictions")->value(), 0U);
}

}  // namespace
}  // namespace eeb::obs
