// Live-telemetry tests (docs/OBSERVABILITY.md): the windowed aggregates
// (slice ring, expiry, percentile quantization, EWMA, cache tap), the
// flight recorder (ring wrap, seqlock integrity under concurrent writers,
// slow-query tail retention, JSON dumps), the per-query explain record, and
// the one fold: the sink turns each query's record, and nothing else, into
// the registry counters, the window and the recorder, so a concurrent run's
// counters equal the sums over its records and the live latencies are the
// records' measured time.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/dataset.h"
#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "storage/mem_env.h"
#include "workload/generator.h"

namespace eeb {
namespace {

// Expected quantized latency: the window uses the same bucket edge math as
// the cumulative LatencyHistogram.
double Quantize(double seconds) {
  return obs::LatencyHistogram::BucketValue(
      obs::LatencyHistogram::BucketIndex(seconds));
}

// One executed query as the sink hands it to the window; `seconds` is its
// measured time.
obs::QueryRecord Sample(double seconds, uint32_t candidates = 0,
                        uint32_t hits = 0) {
  obs::QueryRecord s;
  s.explain.gen_seconds = seconds;
  s.explain.candidates = candidates;
  s.explain.cache_hits = hits;
  return s;
}

// ---- WindowedMetrics ------------------------------------------------------

TEST(WindowedMetricsTest, AggregatesQpsMeanMaxAndRatiosWithFakeClock) {
  double t = 0.0;
  obs::WindowOptions opt;
  opt.window_seconds = 10.0;
  opt.slices = 10;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  t = 1.0;
  w.RecordQuery(Sample(0.010, /*candidates=*/100, /*hits=*/60));
  t = 2.0;
  w.RecordQuery(Sample(0.030, /*candidates=*/100, /*hits=*/20));
  t = 4.0;
  const obs::WindowSnapshot snap = w.GetSnapshot();

  EXPECT_EQ(snap.queries, 2u);
  EXPECT_DOUBLE_EQ(snap.window_seconds, 4.0);  // uptime < window: use uptime
  EXPECT_DOUBLE_EQ(snap.qps, 0.5);
  EXPECT_DOUBLE_EQ(snap.mean_seconds, 0.020);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 0.030);
  EXPECT_EQ(snap.candidates, 200u);
  EXPECT_EQ(snap.cache_hits, 80u);
  EXPECT_DOUBLE_EQ(snap.hit_ratio, 0.4);
  EXPECT_EQ(snap.total_queries, 2u);
  EXPECT_EQ(snap.total_candidates, 200u);
  EXPECT_EQ(snap.total_cache_hits, 80u);
}

TEST(WindowedMetricsTest, SlicesExpireOutsideWindowButTotalsPersist) {
  double t = 0.5;
  obs::WindowOptions opt;
  opt.window_seconds = 10.0;
  opt.slices = 10;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  w.RecordQuery(Sample(0.010, 50, 25));

  // Advance far beyond the window: the old slice's epoch falls outside
  // [cur - (slices-1), cur] and must not contribute.
  t = 25.5;
  w.RecordQuery(Sample(0.020, 10, 5));
  const obs::WindowSnapshot snap = w.GetSnapshot();

  EXPECT_EQ(snap.queries, 1u);
  EXPECT_EQ(snap.candidates, 10u);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 0.020);
  // Window span saturates at window_seconds once uptime exceeds it.
  EXPECT_DOUBLE_EQ(snap.window_seconds, 10.0);
  EXPECT_DOUBLE_EQ(snap.qps, 0.1);
  // Cumulative totals keep the expired query.
  EXPECT_EQ(snap.total_queries, 2u);
  EXPECT_EQ(snap.total_candidates, 60u);
}

TEST(WindowedMetricsTest, PercentilesQuantizeLikeLatencyHistogram) {
  double t = 0.0;
  obs::WindowOptions opt;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  for (int i = 0; i < 10; ++i) w.RecordQuery(Sample(0.001));
  for (int i = 0; i < 10; ++i) w.RecordQuery(Sample(0.100));
  t = 1.0;
  const obs::WindowSnapshot snap = w.GetSnapshot();

  // Nearest-rank over 20 samples: p50 lands in the fast half, p95/p99 in
  // the slow half; each reported value is the shared bucket edge.
  EXPECT_DOUBLE_EQ(snap.p50_seconds, Quantize(0.001));
  EXPECT_DOUBLE_EQ(snap.p95_seconds, Quantize(0.100));
  EXPECT_DOUBLE_EQ(snap.p99_seconds, Quantize(0.100));
  // Quantization error is bounded by one relative bucket width.
  const double width = obs::LatencyHistogram::RelativeBucketWidth();
  EXPECT_LE(snap.p95_seconds, 0.100 * width);
  EXPECT_GE(snap.p95_seconds, 0.100 / width);
}

TEST(WindowedMetricsTest, EwmaPrimesOnFirstSampleThenBlends) {
  double t = 0.0;
  obs::WindowOptions opt;
  opt.ewma_alpha = 0.5;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  w.RecordQuery(Sample(0.100));
  EXPECT_DOUBLE_EQ(w.GetSnapshot().ewma_seconds, 0.100);
  w.RecordQuery(Sample(0.200));
  EXPECT_DOUBLE_EQ(w.GetSnapshot().ewma_seconds, 0.150);
  w.RecordQuery(Sample(0.400));
  EXPECT_DOUBLE_EQ(w.GetSnapshot().ewma_seconds, 0.275);
}

TEST(WindowedMetricsTest, CacheTapDeltasAndReinstallRebases) {
  double t = 0.0;
  obs::WindowOptions opt;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  // Tap reports *cumulative* totals; the window must difference them.
  obs::CacheTapSample cur;
  cur.admits = 100;  // pre-install activity: must never be counted
  cur.evictions = 40;
  w.SetCacheTap([&cur] { return cur; });

  // The misses come from the records: 20 candidates, 10 cache hits.
  w.RecordQuery(Sample(0.010, /*candidates=*/20, /*hits=*/10));
  cur.admits += 4;
  cur.evictions += 2;
  obs::WindowSnapshot snap = w.GetSnapshot();
  EXPECT_EQ(snap.cache_admits, 4u);
  EXPECT_EQ(snap.cache_evictions, 2u);
  EXPECT_DOUBLE_EQ(snap.admit_ratio, 0.4);  // 4 admits / 10 misses

  // A generation swap re-installs the tap over a fresh cache whose counters
  // restart at zero; re-basing means no negative (saturated-to-zero) deltas
  // and no replay of the new cache's pre-install history.
  obs::CacheTapSample fresh;
  w.SetCacheTap([&fresh] { return fresh; });
  fresh.admits = 3;
  snap = w.GetSnapshot();
  EXPECT_EQ(snap.cache_admits, 4u + 3u);  // old window slices + new delta
  EXPECT_EQ(snap.cache_evictions, 2u);
}

TEST(WindowedMetricsTest, IdleGapSpanningWholeRingEmptiesLiveWindow) {
  double t = 1.0;
  obs::WindowOptions opt;
  opt.window_seconds = 10.0;
  opt.slices = 10;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  for (int i = 0; i < 5; ++i) w.RecordQuery(Sample(0.010, 20, 10));

  // An idle gap many times the ring span: every slice epoch falls out of
  // the window. The live section must read fully empty (no stale slice may
  // alias into the new epoch range), the totals must all survive.
  t = 1.0 + 10.0 * 50;
  const obs::WindowSnapshot snap = w.GetSnapshot();
  EXPECT_EQ(snap.queries, 0u);
  EXPECT_EQ(snap.candidates, 0u);
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(snap.qps, 0.0);
  EXPECT_DOUBLE_EQ(snap.mean_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.max_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.hit_ratio, 0.0);
  EXPECT_EQ(snap.total_queries, 5u);
  EXPECT_EQ(snap.total_candidates, 100u);
  EXPECT_EQ(snap.total_cache_hits, 50u);

  // Serving resumes cleanly after the gap: only the new slice contributes.
  w.RecordQuery(Sample(0.020, 10, 5));
  const obs::WindowSnapshot after = w.GetSnapshot();
  EXPECT_EQ(after.queries, 1u);
  EXPECT_EQ(after.total_queries, 6u);
  EXPECT_DOUBLE_EQ(after.max_seconds, 0.020);
}

TEST(WindowedMetricsTest, SnapshotsWithinOneEpochAreIdempotent) {
  double t = 3.0;
  obs::WindowOptions opt;
  opt.window_seconds = 10.0;
  opt.slices = 10;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);

  obs::CacheTapSample tap;
  w.SetCacheTap([&tap] { return tap; });
  w.RecordQuery(Sample(0.010, 10, 5));
  tap.admits = 3;

  // The clock never advances: repeated snapshots land in the same slice
  // epoch and must agree exactly — in particular the tap delta (admits=3)
  // is drained once into the slice, not re-counted per snapshot.
  const obs::WindowSnapshot s1 = w.GetSnapshot();
  const obs::WindowSnapshot s2 = w.GetSnapshot();
  EXPECT_EQ(s1.queries, 1u);
  EXPECT_EQ(s2.queries, 1u);
  EXPECT_EQ(s1.cache_admits, 3u);
  EXPECT_EQ(s2.cache_admits, 3u);
  EXPECT_DOUBLE_EQ(s1.qps, s2.qps);
  EXPECT_DOUBLE_EQ(s1.mean_seconds, s2.mean_seconds);
  EXPECT_DOUBLE_EQ(s1.p95_seconds, s2.p95_seconds);
}

TEST(WindowedMetricsTest, PublishToSetsLiveGauges) {
  double t = 0.0;
  obs::WindowOptions opt;
  opt.now = [&t] { return t; };
  obs::WindowedMetrics w(opt);
  w.RecordQuery(Sample(0.010, 10, 5));
  t = 2.0;

  obs::MetricsRegistry registry;
  w.PublishTo(&registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("live.qps")->value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("live.queries")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("live.cache.hit_ratio")->value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("live.latency.max_seconds")->value(),
                   0.010);
  // Publishing is idempotent on a quiet window: gauges are Set, not Added.
  w.PublishTo(&registry);
  EXPECT_DOUBLE_EQ(registry.GetGauge("live.queries")->value(), 1.0);
}

TEST(WindowedMetricsTest, SnapshotJsonHasLiveAndCumulativeSections) {
  obs::WindowedMetrics w;
  w.RecordQuery(Sample(0.010, 10, 5));
  const std::string line =
      obs::WindowSnapshotJson(w.GetSnapshot(), /*uptime=*/1.5);
  EXPECT_NE(line.find("\"uptime_seconds\":1.500"), std::string::npos);
  EXPECT_NE(line.find("\"live\":{"), std::string::npos);
  EXPECT_NE(line.find("\"cumulative\":{\"queries\":1"), std::string::npos);
  EXPECT_NE(line.find("\"latency\":{"), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line, no newline
}

// ---- FlightRecorder -------------------------------------------------------

obs::QueryRecord Rec(uint64_t query_index, double seconds,
                     obs::DegradedCause cause = obs::DegradedCause::kNone,
                     uint32_t read_failures = 0) {
  obs::QueryRecord r;
  r.query_index = query_index;
  r.explain.gen_seconds = seconds;
  r.explain.degraded_cause = cause;
  r.explain.read_failures = read_failures;
  return r;
}

TEST(FlightRecorderTest, RingRetainsMostRecentRecordsInSeqOrder) {
  obs::FlightRecorder::Options opt;
  opt.ring_capacity = 8;
  obs::FlightRecorder rec(opt);

  for (uint64_t i = 0; i < 20; ++i) rec.Record(Rec(i, 0.001));
  EXPECT_EQ(rec.recorded(), 20u);

  // Single-threaded: one slot, so exactly the last ring_capacity survive.
  const std::vector<obs::QueryRecord> recent = rec.SnapshotRecent();
  ASSERT_EQ(recent.size(), 8u);
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, 13 + i);  // seqs 13..20, oldest first
    EXPECT_EQ(recent[i].query_index, 12 + i);
  }
  EXPECT_EQ(rec.torn_reads(), 0u);
}

TEST(FlightRecorderTest, TailRetainsSlowDegradedAndFailedQueries) {
  obs::FlightRecorder::Options opt;
  opt.ring_capacity = 64;
  opt.slow_threshold_seconds = 0.050;
  opt.max_retained_slow = 3;
  obs::FlightRecorder rec(opt);

  rec.Record(Rec(0, 0.001));  // fast and clean: not retained
  rec.Record(Rec(1, 0.060));  // slow
  rec.Record(Rec(2, 0.001, obs::DegradedCause::kCorruption));
  rec.Record(Rec(3, 0.001, obs::DegradedCause::kNone, /*read_failures=*/2));
  rec.Record(Rec(4, 0.070));  // slow: evicts the oldest (bound is 3)

  EXPECT_EQ(rec.retained_slow_total(), 4u);
  const std::vector<obs::QueryRecord> slow = rec.SlowQueries();
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].query_index, 2u);
  EXPECT_EQ(slow[1].query_index, 3u);
  EXPECT_EQ(slow[2].query_index, 4u);
  EXPECT_EQ(slow[0].explain.degraded_cause, obs::DegradedCause::kCorruption);

  // Threshold 0 disables the slowness criterion entirely.
  rec.set_slow_threshold(0.0);
  rec.Record(Rec(5, 99.0));
  EXPECT_EQ(rec.retained_slow_total(), 4u);
}

TEST(FlightRecorderTest, DumpJsonCarriesCountsAndExplainRecords) {
  obs::FlightRecorder::Options opt;
  opt.slow_threshold_seconds = 0.010;
  obs::FlightRecorder rec(opt);
  rec.Record(Rec(7, 0.020, obs::DegradedCause::kReadFailure, 1));

  const std::string dump = rec.DumpJson();
  EXPECT_NE(dump.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"retained_slow_total\":1"), std::string::npos);
  EXPECT_NE(dump.find("\"slow_threshold_seconds\":0.01"), std::string::npos);
  EXPECT_NE(dump.find("\"query_index\":7"), std::string::npos);
  EXPECT_NE(dump.find("\"degraded_cause\":\"read_failure\""),
            std::string::npos);
  // The record appears in both the ring and the tail.
  EXPECT_NE(dump.find("\"recent\":[{"), std::string::npos);
  EXPECT_NE(dump.find("\"slow\":[{"), std::string::npos);
  EXPECT_EQ(dump.back(), '\n');
}

TEST(FlightRecorderTest, ConcurrentWritersAndReadersStayCoherent) {
  obs::FlightRecorder::Options opt;
  opt.ring_capacity = 32;
  obs::FlightRecorder rec(opt);

  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 500;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        rec.Record(Rec(w * kPerWriter + i, 0.001));
      }
    });
  }
  // Reader races the writers: every snapshot entry must be a fully
  // published record (the seqlock discards torn copies, never returns one).
  for (int pass = 0; pass < 20; ++pass) {
    for (const obs::QueryRecord& r : rec.SnapshotRecent()) {
      ASSERT_GE(r.seq, 1u);
      ASSERT_LE(r.seq, kWriters * kPerWriter);
      ASSERT_LT(r.query_index, kWriters * kPerWriter);
      ASSERT_DOUBLE_EQ(r.explain.query_seconds(), 0.001);
    }
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);
}

TEST(ExplainJsonTest, RendersEveryFunnelFieldAndCauseName) {
  obs::QueryExplain e;
  e.cache_generation = 3;
  e.k = 10;
  e.candidates = 120;
  e.cache_hits = 80;
  e.pruned = 50;
  e.true_hits = 10;
  e.remaining = 60;
  e.fetched = 55;
  e.point_reads = 55;
  e.pages_read = 30;
  e.distinct_pages = 22;
  e.substituted = 5;
  e.read_failures = 5;
  e.degraded_cause = obs::DegradedCause::kDeadline;
  e.lbk = 1.5;
  e.ubk = 2.5;

  const std::string json = obs::ExplainJson(e);
  EXPECT_NE(json.find("\"cache_generation\":3"), std::string::npos);
  EXPECT_NE(json.find("\"candidates\":120"), std::string::npos);
  EXPECT_NE(json.find("\"pruned\":50"), std::string::npos);
  EXPECT_NE(json.find("\"true_results\":10"), std::string::npos);
  EXPECT_NE(json.find("\"distinct_pages\":22"), std::string::npos);
  EXPECT_NE(json.find("\"degraded_cause\":\"deadline\""), std::string::npos);
  EXPECT_NE(json.find("\"lbk\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"ubk\":2.5"), std::string::npos);
  EXPECT_STREQ(obs::DegradedCauseName(obs::DegradedCause::kCorruption),
               "corruption");
  EXPECT_STREQ(obs::DegradedCauseName(obs::DegradedCause::kNone), "none");

  // An unbounded ubk (fewer than k bounded candidates) must stay valid
  // JSON: non-finite doubles render as null, never as `inf`/`nan`.
  e.ubk = std::numeric_limits<double>::infinity();
  e.lbk = std::numeric_limits<double>::quiet_NaN();
  const std::string unbounded = obs::ExplainJson(e);
  EXPECT_NE(unbounded.find("\"ubk\":null"), std::string::npos) << unbounded;
  EXPECT_NE(unbounded.find("\"lbk\":null"), std::string::npos) << unbounded;
  EXPECT_EQ(unbounded.find("inf"), std::string::npos) << unbounded;
  EXPECT_EQ(unbounded.find("nan"), std::string::npos) << unbounded;
}

// ---- End to end: System + window + recorder + publisher -------------------

struct TelemetryRig {
  storage::MemEnv env;
  Dataset data;
  workload::QueryLog log;
  std::unique_ptr<core::System> system;

  TelemetryRig() {
    core::SystemOptions opt;
    opt.ndom = 256;
    opt.lsh.num_functions = 16;
    opt.lsh.collision_threshold = 8;
    opt.lsh.beta_candidates = 150;
    workload::DatasetSpec dspec;
    dspec.name = "telem";
    dspec.n = 4000;
    dspec.dim = 16;
    dspec.ndom = 256;
    dspec.clusters = 16;
    dspec.cluster_stddev = 12.0;
    dspec.seed = 7;
    data = workload::GenerateClustered(dspec);
    workload::QueryLogSpec lspec;
    lspec.workload_size = 400;
    lspec.test_size = 80;
    lspec.jitter_stddev = 4.0;
    lspec.seed = 11;
    log = workload::GenerateQueryLog(data, lspec);
    EXPECT_TRUE(
        core::System::Create(&env, "/telem", data, log.workload, opt, &system)
            .ok());
    EXPECT_TRUE(system
                    ->ConfigureCache(core::CacheMethod::kHcO,
                                     /*cache_bytes=*/32 << 10, /*tau=*/4)
                    .ok());
  }
};

TEST(TelemetryEndToEndTest, ExplainMirrorsQueryResultScalars) {
  TelemetryRig rig;
  obs::FlightRecorder recorder;
  rig.system->SetRecorder(&recorder);
  core::QueryResult r;
  ASSERT_TRUE(rig.system->Query(rig.log.test[0], 10, &r).ok());

  EXPECT_EQ(r.k, 10u);
  EXPECT_GT(r.candidates, 0u);
  EXPECT_EQ(r.point_reads, r.refine_io.point_reads);
  EXPECT_EQ(r.pages_read, r.refine_io.page_reads);
  EXPECT_EQ(r.degraded_cause, obs::DegradedCause::kNone);
  EXPECT_TRUE(r.events.empty());  // trace events are off by default
  // ConfigureCache published generation 1; the record names it.
  EXPECT_EQ(r.cache_generation, 1u);
  // The recorder stores the result's own record, byte for byte.
  const std::vector<obs::QueryRecord> recent = recorder.SnapshotRecent();
  ASSERT_EQ(recent.size(), 1u);
  const obs::QueryExplain& record = r;
  EXPECT_EQ(std::memcmp(&recent[0].explain, &record, sizeof(record)), 0);
  // Reconfiguring bumps the generation the next query reports.
  ASSERT_TRUE(rig.system->ReconfigureCache().ok());
  ASSERT_TRUE(rig.system->Query(rig.log.test[0], 10, &r).ok());
  EXPECT_EQ(r.cache_generation, 2u);
}

TEST(TelemetryEndToEndTest, DirectQueriesFeedSystemMetrics) {
  // A server calling System::Query directly (no batch entry point) goes
  // through the same sink as a batch: one query_seconds sample per query.
  TelemetryRig rig;
  obs::MetricsRegistry metrics;
  rig.system->EnableMetrics(&metrics);
  const size_t n = 12;
  for (size_t i = 0; i < n; ++i) {
    core::QueryResult r;
    ASSERT_TRUE(rig.system->Query(rig.log.test[i], 10, &r).ok());
  }
  EXPECT_EQ(metrics.GetCounter("engine.queries")->value(), n);
  EXPECT_EQ(metrics.GetHistogram("engine.query_seconds")->count(), n);
  EXPECT_EQ(metrics.GetHistogram("engine.gen_seconds")->count(), n);
  EXPECT_GT(metrics.GetCounter("storage.point_reads")->value(), 0u);
}

TEST(TelemetryEndToEndTest, SerialRunRecordsEachBatchIndexOnce) {
  TelemetryRig rig;
  obs::FlightRecorder::Options ropt;
  ropt.ring_capacity = 256;
  obs::FlightRecorder recorder(ropt);
  rig.system->SetRecorder(&recorder);

  core::AggregateResult agg;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 1, &agg).ok());

  // Same check as the concurrent run below: the recorder names each query
  // by its slot in the batch.
  EXPECT_EQ(recorder.recorded(), rig.log.test.size());
  const std::vector<obs::QueryRecord> recent = recorder.SnapshotRecent();
  ASSERT_EQ(recent.size(), rig.log.test.size());
  std::set<uint64_t> indices;
  for (const obs::QueryRecord& r : recent) indices.insert(r.query_index);
  EXPECT_EQ(indices.size(), rig.log.test.size());  // each index once
  // One thread runs the batch in order, so seq order is batch order.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].query_index, i);
  }
}

TEST(TelemetryEndToEndTest, ConcurrentRunReconcilesWindowAgainstCounters) {
  TelemetryRig rig;
  const size_t k = 10;

  obs::WindowOptions wopt;
  wopt.window_seconds = 3600.0;  // everything below fits in the window
  obs::WindowedMetrics window(wopt);
  obs::FlightRecorder::Options ropt;
  ropt.ring_capacity = 256;
  obs::FlightRecorder recorder(ropt);
  obs::MetricsRegistry metrics;
  rig.system->EnableMetrics(&metrics);
  rig.system->SetWindow(&window);
  rig.system->SetRecorder(&recorder);

  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &results).ok());

  // Windowed totals == cumulative registry counters, to the last event.
  const obs::WindowSnapshot snap = window.GetSnapshot();
  EXPECT_EQ(snap.queries, rig.log.test.size());
  EXPECT_EQ(snap.total_queries,
            metrics.GetCounter("engine.queries")->value());
  EXPECT_EQ(snap.total_candidates,
            metrics.GetCounter("engine.candidates")->value());
  EXPECT_EQ(snap.total_cache_hits,
            metrics.GetCounter("engine.cache_hits")->value());
  EXPECT_EQ(snap.candidates, snap.total_candidates);
  EXPECT_EQ(snap.cache_hits, snap.total_cache_hits);
  EXPECT_GT(snap.cache_hits, 0u);
  EXPECT_DOUBLE_EQ(snap.hit_ratio,
                   static_cast<double>(snap.cache_hits) /
                       static_cast<double>(snap.candidates));
  EXPECT_GT(snap.qps, 0.0);
  EXPECT_GT(snap.p95_seconds, 0.0);

  // The windowed mean is the batch's measured mean: the same records' phase
  // times, summed in another order. No disk model.
  const double measured =
      agg.avg_gen_cpu + agg.avg_reduce_cpu + agg.avg_refine_cpu;
  EXPECT_NEAR(snap.mean_seconds, measured, 1e-12 + 1e-9 * measured);

  // The recorder saw every query exactly once, with its explain intact.
  EXPECT_EQ(recorder.recorded(), rig.log.test.size());
  const std::vector<obs::QueryRecord> recent = recorder.SnapshotRecent();
  ASSERT_EQ(recent.size(), rig.log.test.size());
  std::set<uint64_t> indices;
  uint64_t recorded_candidates = 0;
  for (const obs::QueryRecord& r : recent) {
    indices.insert(r.query_index);
    recorded_candidates += r.explain.candidates;
    EXPECT_EQ(r.explain.k, k);
  }
  EXPECT_EQ(indices.size(), rig.log.test.size());  // each index once
  EXPECT_EQ(recorded_candidates, snap.total_candidates);
  for (size_t i = 0; i < results.size(); ++i) {
    // recent is seq-ordered, not index-ordered; match through the set.
    EXPECT_TRUE(indices.count(i)) << "query " << i << " never recorded";
  }
}

TEST(TelemetryEndToEndTest, SinkFoldsEveryCounterFromTheRecords) {
  // An 8-thread batch over an LRU cache: every engine.* and storage.*
  // counter equals the sum of its record field over the batch, and the
  // cache's own counters are its admissions and evictions.
  TelemetryRig rig;
  ASSERT_TRUE(rig.system
                  ->ConfigureCache(core::CacheMethod::kHcO,
                                   /*cache_bytes=*/8 << 10, /*tau=*/4,
                                   /*lru=*/true)
                  .ok());
  obs::MetricsRegistry metrics;
  rig.system->EnableMetrics(&metrics);
  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 8, &agg, &results).ok());

  std::map<std::string, uint64_t> want;
  for (const core::QueryResult& r : results) {
    want["engine.queries"] += 1;
    want["engine.candidates"] += r.candidates;
    want["engine.cache_hits"] += r.cache_hits;
    want["engine.cache_misses"] += r.candidates - r.cache_hits;
    want["engine.pruned"] += r.pruned;
    want["engine.true_results"] += r.true_hits;
    want["engine.fetched"] += r.fetched;
    want["engine.degraded_queries"] += r.degraded ? 1 : 0;
    want["engine.degraded_substituted"] += r.substituted;
    want["engine.read_failures"] += r.read_failures;
    want["engine.deadline_cuts"] += r.deadline_hit ? 1 : 0;
    want["storage.point_reads"] += r.refine_io.point_reads;
    want["storage.random_page_reads"] += r.refine_io.page_reads;
    want["storage.bytes_read"] += r.refine_io.bytes_read;
  }
  size_t checked = 0;
  for (const auto& [name, value] : metrics.Counters()) {
    if (name.rfind("engine.", 0) != 0 && name.rfind("storage.", 0) != 0) {
      continue;
    }
    ASSERT_EQ(want.count(name), 1u) << "no record field folds into " << name;
    EXPECT_EQ(value, want[name]) << name;
    ++checked;
  }
  EXPECT_EQ(checked, want.size());
  EXPECT_GT(want["engine.fetched"], 0u);
  EXPECT_EQ(metrics.GetHistogram("engine.query_seconds")->count(),
            results.size());

  const cache::KnnCache::CacheActivity a = rig.system->cache()->activity();
  EXPECT_GT(a.evictions, 0u);  // the batch overflowed the cache
  EXPECT_EQ(metrics.GetCounter("cache.admits")->value(), a.admits);
  EXPECT_EQ(metrics.GetCounter("cache.evictions")->value(), a.evictions);
}

TEST(TelemetryEndToEndTest, RecorderJudgesSlownessByMeasuredTime) {
  // The disk model prices every query here at 5 ms or more per random page,
  // while a query on this in-memory rig measures well under that. A slow
  // threshold at the batch's smallest modeled I/O time therefore sits
  // above every measured time and below every modeled response: on a
  // healthy disk the recorder, which reads measured time, retains nothing.
  TelemetryRig rig;
  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 1, &agg, &results).ok());
  auto modeled_io = [&rig](const core::QueryResult& r) {
    storage::IoStats io = r.gen_io;
    io += r.refine_io;
    return rig.system->disk_model().Seconds(io);
  };
  double threshold = std::numeric_limits<double>::infinity();
  for (const core::QueryResult& r : results) {
    threshold = std::min(threshold, modeled_io(r));
  }
  ASSERT_GT(threshold, 0.0);

  obs::FlightRecorder::Options ropt;
  ropt.slow_threshold_seconds = threshold;
  obs::FlightRecorder recorder(ropt);
  rig.system->SetRecorder(&recorder);
  ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 1, &agg, &results).ok());
  EXPECT_EQ(recorder.recorded(), results.size());
  for (const core::QueryResult& r : results) {
    EXPECT_LT(r.query_seconds(), threshold);
    EXPECT_GE(r.query_seconds() + modeled_io(r), threshold);
    EXPECT_FALSE(r.degraded);
  }
  EXPECT_EQ(recorder.retained_slow_total(), 0u);
}

TEST(TelemetryEndToEndTest, GenerationSwapMidWindowRebasesTapsAndAnalytics) {
  TelemetryRig rig;
  const size_t k = 10;

  obs::WindowOptions wopt;
  wopt.window_seconds = 3600.0;
  obs::WindowedMetrics window(wopt);
  obs::CacheAnalytics::Options aopt;
  aopt.sampling_rate = 1.0;
  aopt.key_space = rig.data.size();
  obs::CacheAnalytics analytics(aopt);
  rig.system->SetWindow(&window);
  rig.system->SetCacheAnalytics(&analytics);

  core::AggregateResult agg;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 1, &agg).ok());
  const obs::WindowSnapshot before = window.GetSnapshot();
  const uint64_t accesses_gen1 = analytics.total_accesses();
  EXPECT_GT(accesses_gen1, 0u);

  // Mid-window generation swap to a deliberately tiny cache: the new
  // generation's cumulative counters restart at zero, so the re-based tap
  // must not produce wrapped-around deltas, and the analytics instrument
  // starts a fresh invalidation epoch. The tiny capacity guarantees some
  // previously seen keys miss on their first post-swap touch.
  ASSERT_TRUE(rig.system
                  ->ConfigureCache(core::CacheMethod::kExact,
                                   /*cache_bytes=*/2 << 10)
                  .ok());
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 1, &agg).ok());

  const obs::WindowSnapshot after = window.GetSnapshot();
  EXPECT_EQ(after.total_queries, 2 * rig.log.test.size());
  // Tap deltas stayed sane across the re-base: the windowed admit count can
  // never exceed the probes that could have admitted (total candidates).
  EXPECT_LE(after.cache_admits, after.total_candidates);
  EXPECT_GE(after.cache_admits, before.cache_admits);

  EXPECT_EQ(analytics.generation_swaps(), 1u);
  const obs::CacheAnalytics::MissBreakdown mb = analytics.miss_breakdown();
  EXPECT_EQ(mb.misses, mb.compulsory + mb.capacity + mb.invalidation);
  // The second pass replays only keys seen in generation 1, so it adds no
  // compulsory misses, and every first re-touch that misses is an
  // invalidation miss — guaranteed to exist by the tiny second cache.
  EXPECT_GT(mb.invalidation, 0u);
  EXPECT_EQ(analytics.total_accesses(), after.total_candidates);
}

TEST(TelemetryEndToEndTest, ConcurrentAnalyticsReconciles) {
  // Runs the full introspection stack under the concurrent engine; the CI
  // TSan job runs this binary, so this is also the data-race check for the
  // sampler, the what-if counters and the miss-class bitsets.
  TelemetryRig rig;
  const size_t k = 10;

  obs::WindowOptions wopt;
  wopt.window_seconds = 3600.0;
  obs::WindowedMetrics window(wopt);
  obs::MetricsRegistry metrics;
  obs::CacheAnalytics::Options aopt;
  aopt.sampling_rate = 1.0;  // sample every probe: maximal contention
  aopt.key_space = rig.data.size();
  obs::CacheAnalytics analytics(aopt);
  analytics.BindMetrics(&metrics);
  rig.system->EnableMetrics(&metrics);
  rig.system->SetWindow(&window);
  rig.system->SetCacheAnalytics(&analytics);

  core::AggregateResult agg;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg).ok());

  // Every probe reached the instrument exactly once.
  const obs::WindowSnapshot snap = window.GetSnapshot();
  EXPECT_GT(snap.total_candidates, 0u);
  EXPECT_EQ(analytics.total_accesses(), snap.total_candidates);
  EXPECT_EQ(analytics.sampled_accesses(), snap.total_candidates);

  // Miss classes reconcile exactly even under 8-way concurrent counting.
  const obs::CacheAnalytics::MissBreakdown mb = analytics.miss_breakdown();
  EXPECT_EQ(mb.accesses, snap.total_candidates);
  EXPECT_EQ(mb.hits + mb.misses, mb.accesses);
  EXPECT_EQ(mb.misses, mb.compulsory + mb.capacity + mb.invalidation);

  // Gauge publication works on the post-run state. Nothing on the query
  // path publishes: a reader publishes before it reads the registry.
  analytics.PublishMetrics();
  window.PublishTo(&metrics);
  EXPECT_EQ(metrics.GetCounter("cache.miss.compulsory")->value() +
                metrics.GetCounter("cache.miss.capacity")->value() +
                metrics.GetCounter("cache.miss.invalidation")->value(),
            mb.misses);
  const double sampled =
      metrics.GetGauge("cache.mrc.sampled_accesses")->value();
  const double cold = metrics.GetGauge("cache.mrc.cold_misses")->value();
  EXPECT_GT(sampled, 0.0);

  // The what-if panel counted every access, and more capacity never loses
  // an LRU hit. Twice the capacity holds every point, so there each
  // re-access hits whatever order the threads probed in.
  const std::array<obs::CacheAnalytics::WhatIfPoint, 3> panel =
      analytics.LruWhatIf();
  ASSERT_EQ(panel[1].size_items, rig.system->cache()->capacity_items());
  ASSERT_GE(panel[2].size_items, rig.data.size());
  EXPECT_LE(panel[0].hit_ratio, panel[1].hit_ratio);
  EXPECT_LE(panel[1].hit_ratio, panel[2].hit_ratio);
  EXPECT_DOUBLE_EQ(panel[2].hit_ratio, (sampled - cold) / sampled);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("cache.mrc.lru_2x.hit_ratio")->value(),
                   panel[2].hit_ratio);
}

TEST(TelemetryEndToEndTest, PublisherEmitsPeriodicSnapshotsDuringServing) {
  TelemetryRig rig;
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  obs::MetricsRegistry metrics;
  rig.system->EnableMetrics(&metrics);
  rig.system->SetWindow(&window);
  rig.system->SetRecorder(&recorder);

  std::ostringstream sink;
  {
    obs::StatsPublisher::Options popt;
    popt.interval_ms = 10;
    obs::StatsPublisher publisher(&window, &metrics, &sink, popt);

    // Serve concurrently until the publisher has ticked at least twice
    // (plus its final line on Stop). Bounded by rounds, not wall clock, so
    // a loaded single-core box cannot starve the assertion into flaking.
    core::AggregateResult agg;
    int rounds = 0;
    while (publisher.lines_published() < 3 && rounds < 500) {
      ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 8, &agg).ok());
      ++rounds;
    }
    publisher.Stop();
    EXPECT_GE(publisher.lines_published(), 3u);
  }

  // Every emitted line is a complete snapshot with both sections, and the
  // final line's cumulative totals match the registry counter.
  const std::string out = sink.str();
  size_t lines = 0;
  std::istringstream is(out);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"uptime_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"live\":{"), std::string::npos);
    EXPECT_NE(line.find("\"cumulative\":{"), std::string::npos);
  }
  EXPECT_GE(lines, 2u);
  char want[64];
  std::snprintf(want, sizeof(want), "\"cumulative\":{\"queries\":%llu",
                static_cast<unsigned long long>(
                    metrics.GetCounter("engine.queries")->value()));
  EXPECT_NE(out.rfind(want), std::string::npos);
  // live.* gauges were published to the registry by the same publisher.
  EXPECT_GT(metrics.GetGauge("live.qps")->value(), 0.0);
}

}  // namespace
}  // namespace eeb
