// Fixture tests for the BENCH artifact comparison engine: the JSON reader
// (shapes, escapes, malformed input) and DiffBench's gate semantics —
// identical artifacts pass, an injected >=20% latency regression fails, a
// hit-ratio drop fails, a missing cell fails, improvements and new cells
// are notes, and quick/full artifacts refuse to compare.

#include <gtest/gtest.h>

#include <string>

#include "bench_diff_core.h"

namespace eeb::benchdiff {
namespace {

// Minimal but schema-complete artifact with one tweakable cell.
std::string Artifact(double avg, double p95, double refine_pages,
                     double hit_ratio, const std::string& extra_cells = "",
                     bool quick = false, const std::string& suite = "smoke") {
  char cell[512];
  std::snprintf(
      cell, sizeof(cell),
      "{\"name\":\"hc_o_30\",\"method\":\"HC-O\",\"cache_bytes\":786432,"
      "\"k\":10,\"tau\":6,\"lru\":false,"
      "\"latency\":{\"avg_seconds\":%g,\"p50_seconds\":%g,"
      "\"p95_seconds\":%g,\"p99_seconds\":%g},"
      "\"candidates\":{\"avg\":110,\"avg_remaining\":30,"
      "\"refine_ratio\":0.27},"
      "\"io\":{\"avg_refine_pages\":%g,\"avg_gen_pages\":92,"
      "\"avg_gen_seq_pages\":30},"
      "\"cache\":{\"hit_ratio\":%g,\"prune_ratio\":0.9},"
      "\"phase_seconds\":{\"gen\":0.001,\"reduce\":0.0005,\"refine\":0.002},"
      "\"model_error\":null}",
      avg, avg, p95, p95, refine_pages, hit_ratio);
  return std::string("{\"schema_version\":1,\"suite\":\"") + suite +
         "\",\"dataset\":{\"name\":\"smoke\",\"n\":20000,\"dim\":32,"
         "\"ndom\":256,\"seed\":5},\"log\":{\"test_size\":50,\"seed\":2},"
         "\"quick\":" +
         (quick ? "true" : "false") +
         ",\"build\":{\"compiler\":\"x\",\"type\":\"release\"},"
         "\"cells\":[" +
         cell + extra_cells + "]}";
}

// ---------------------------------------------------------------- parser --

TEST(JsonParserTest, ParsesScalarsArraysObjects) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"a":1.5,"b":"x\"y","c":[true,false,null],)"
                        R"("d":{"e":-2e3}})",
                        &v)
                  .ok());
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(v.Find("a")->number, 1.5);
  EXPECT_EQ(v.Find("b")->str, "x\"y");
  ASSERT_EQ(v.Find("c")->items.size(), 3u);
  EXPECT_TRUE(v.Find("c")->items[0].boolean);
  EXPECT_EQ(v.Find("c")->items[2].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(v.Find("d")->Find("e")->number, -2000.0);
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(ParseJson("{", &v).ok());
  EXPECT_FALSE(ParseJson("{\"a\":}", &v).ok());
  EXPECT_FALSE(ParseJson("[1,2", &v).ok());
  EXPECT_FALSE(ParseJson("\"unterminated", &v).ok());
  EXPECT_FALSE(ParseJson("{} trailing", &v).ok());
  EXPECT_FALSE(ParseJson("nulll", &v).ok());
  EXPECT_FALSE(ParseJson("1.2.3", &v).ok());
}

TEST(JsonParserTest, ParsesARealArtifact) {
  JsonValue v;
  const std::string a = Artifact(0.46, 0.47, 25, 0.95);
  ASSERT_TRUE(ParseJson(a, &v).ok());
  EXPECT_EQ(v.Find("suite")->str, "smoke");
  EXPECT_EQ(v.Find("cells")->items.size(), 1u);
}

// ------------------------------------------------------------------ diff --

TEST(BenchDiffTest, IdenticalArtifactsPass) {
  const std::string a = Artifact(0.46, 0.47, 25, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(a, a, &r).ok());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.regressions.empty());
}

TEST(BenchDiffTest, TwentyPercentLatencyRegressionFails) {
  // Acceptance criterion: an injected >=20% average-latency regression must
  // trip the default 15% threshold.
  const std::string base = Artifact(0.50, 0.52, 25, 0.95);
  const std::string cur = Artifact(0.60, 0.52, 25, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("avg latency"), std::string::npos);
}

TEST(BenchDiffTest, TailLatencyHasItsOwnLooserThreshold) {
  // +20% tail only: below the 25% tail threshold, passes.
  const std::string base = Artifact(0.50, 0.50, 25, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, Artifact(0.50, 0.60, 25, 0.95), &r).ok());
  EXPECT_TRUE(r.ok());
  // +30% tail: fails.
  ASSERT_TRUE(DiffBench(base, Artifact(0.50, 0.65, 25, 0.95), &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("p95 latency"), std::string::npos);
}

TEST(BenchDiffTest, HitRatioDropFails) {
  const std::string base = Artifact(0.46, 0.47, 25, 0.95);
  const std::string cur = Artifact(0.46, 0.47, 25, 0.80);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("hit ratio"), std::string::npos);
}

TEST(BenchDiffTest, PageIoIncreaseFails) {
  const std::string base = Artifact(0.46, 0.47, 100, 0.95);
  const std::string cur = Artifact(0.46, 0.47, 140, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("pages/query"), std::string::npos);
}

TEST(BenchDiffTest, MissingCellFails) {
  const std::string extra =
      ",{\"name\":\"exact_30\",\"latency\":{\"avg_seconds\":0.6,"
      "\"p95_seconds\":0.7},\"io\":{\"avg_refine_pages\":10,"
      "\"avg_gen_pages\":10},\"cache\":{\"hit_ratio\":0.5}}";
  const std::string base = Artifact(0.46, 0.47, 25, 0.95, extra);
  const std::string cur = Artifact(0.46, 0.47, 25, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("missing"), std::string::npos);
}

TEST(BenchDiffTest, ImprovementsAndNewCellsAreNotesNotFailures) {
  const std::string extra =
      ",{\"name\":\"brand_new\",\"latency\":{\"avg_seconds\":0.6,"
      "\"p95_seconds\":0.7},\"io\":{\"avg_refine_pages\":10,"
      "\"avg_gen_pages\":10},\"cache\":{\"hit_ratio\":0.5}}";
  const std::string base = Artifact(0.50, 0.52, 25, 0.90);
  const std::string cur = Artifact(0.30, 0.32, 25, 0.99, extra);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.notes.empty());
}

TEST(BenchDiffTest, QuickModeMismatchIsAnInputError) {
  const std::string full = Artifact(0.46, 0.47, 25, 0.95);
  const std::string quick =
      Artifact(0.46, 0.47, 25, 0.95, "", /*quick=*/true);
  DiffResult r;
  EXPECT_FALSE(DiffBench(full, quick, &r).ok());
}

TEST(BenchDiffTest, SuiteMismatchIsAnInputError) {
  const std::string a = Artifact(0.46, 0.47, 25, 0.95);
  const std::string b =
      Artifact(0.46, 0.47, 25, 0.95, "", false, "analytics");
  DiffResult r;
  EXPECT_FALSE(DiffBench(a, b, &r).ok());
}

// Artifact with a robustness section (post-fault-tolerance schema).
std::string ArtifactWithDegraded(double degraded_rate) {
  char cell[640];
  std::snprintf(
      cell, sizeof(cell),
      "{\"name\":\"hc_o_30\",\"method\":\"HC-O\",\"cache_bytes\":786432,"
      "\"k\":10,\"tau\":6,\"lru\":false,"
      "\"latency\":{\"avg_seconds\":0.46,\"p50_seconds\":0.46,"
      "\"p95_seconds\":0.47,\"p99_seconds\":0.47},"
      "\"candidates\":{\"avg\":110,\"avg_remaining\":30,"
      "\"refine_ratio\":0.27},"
      "\"io\":{\"avg_refine_pages\":25,\"avg_gen_pages\":92,"
      "\"avg_gen_seq_pages\":30},"
      "\"cache\":{\"hit_ratio\":0.95,\"prune_ratio\":0.9},"
      "\"robustness\":{\"degraded_rate\":%g,\"degraded_queries\":%d,"
      "\"avg_substituted\":0,\"read_failures\":0},"
      "\"phase_seconds\":{\"gen\":0.001,\"reduce\":0.0005,\"refine\":0.002},"
      "\"model_error\":null}",
      degraded_rate, degraded_rate > 0 ? 1 : 0);
  return std::string(
             "{\"schema_version\":1,\"suite\":\"smoke\","
             "\"dataset\":{\"name\":\"smoke\",\"n\":20000,\"dim\":32,"
             "\"ndom\":256,\"seed\":5},\"log\":{\"test_size\":50,\"seed\":2},"
             "\"quick\":false,"
             "\"build\":{\"compiler\":\"x\",\"type\":\"release\"},"
             "\"cells\":[") +
         cell + "]}";
}

TEST(BenchDiffTest, AnyDegradedQueryOnCleanDiskFails) {
  // The default gate is zero tolerance: a change that silently degrades
  // queries in the clean-disk bench must fail even against an old baseline
  // that predates the robustness section (missing section reads as rate 0).
  const std::string old_base = Artifact(0.46, 0.47, 25, 0.95);
  const std::string cur = ArtifactWithDegraded(0.02);
  DiffResult r;
  ASSERT_TRUE(DiffBench(old_base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("degraded rate"), std::string::npos);
}

TEST(BenchDiffTest, ZeroDegradedRatePasses) {
  const std::string old_base = Artifact(0.46, 0.47, 25, 0.95);
  const std::string cur = ArtifactWithDegraded(0.0);
  DiffResult r;
  ASSERT_TRUE(DiffBench(old_base, cur, &r).ok());
  EXPECT_TRUE(r.ok()) << (r.regressions.empty() ? "" : r.regressions[0]);
  // New-schema baseline vs itself also passes.
  ASSERT_TRUE(DiffBench(cur, cur, &r).ok());
  EXPECT_TRUE(r.ok());
}

// Analytics-suite artifact with one tweakable cell: the MRC-prediction
// error and the miss-class reconciliation flag.
std::string AnalyticsArtifact(double prediction_error, bool reconciled) {
  char cell[768];
  std::snprintf(
      cell, sizeof(cell),
      "{\"name\":\"exact_lru_10\",\"method\":\"Exact\",\"cache_bytes\":65536,"
      "\"k\":10,\"tau\":0,\"lru\":true,"
      "\"latency\":{\"avg_seconds\":0.4,\"p50_seconds\":0.4,"
      "\"p95_seconds\":0.5,\"p99_seconds\":0.5},"
      "\"io\":{\"avg_refine_pages\":20,\"avg_gen_pages\":90,"
      "\"avg_gen_seq_pages\":30},"
      "\"cache\":{\"hit_ratio\":0.8,\"prune_ratio\":0.9},"
      "\"analytics\":{\"sampling_rate\":0.25,\"sampled_accesses\":5000,"
      "\"tracked_keys\":900,\"capacity_items\":800,"
      "\"predicted_miss_ratio\":0.21,\"measured_miss_ratio\":0.2,"
      "\"prediction_error\":%g,\"reconciled\":%s,"
      "\"miss_classes\":{\"accesses\":10000,\"hits\":8000,\"misses\":2000,"
      "\"compulsory\":1500,\"capacity\":500,\"invalidation\":0}}}",
      prediction_error, reconciled ? "true" : "false");
  return std::string(
             "{\"schema_version\":1,\"suite\":\"analytics\","
             "\"dataset\":{\"name\":\"smoke\",\"n\":20000,\"dim\":32,"
             "\"ndom\":256,\"seed\":5},\"log\":{\"test_size\":50,\"seed\":2},"
             "\"quick\":false,"
             "\"build\":{\"compiler\":\"x\",\"type\":\"release\"},"
             "\"config\":{\"sampling_rate\":0.25,\"k\":10},"
             "\"cells\":[") +
         cell + "]}";
}

TEST(BenchDiffTest, MrcPredictionErrorBeyondThresholdFails) {
  // Acceptance criterion: the gate is current-only — an inaccurate MRC
  // fails regardless of what the baseline predicted.
  const std::string base = AnalyticsArtifact(0.01, true);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, AnalyticsArtifact(0.04, true), &r).ok());
  EXPECT_TRUE(r.ok());  // within the 0.05 bound
  ASSERT_TRUE(DiffBench(base, AnalyticsArtifact(0.08, true), &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("MRC prediction error"), std::string::npos);
  // A bad baseline does not excuse a bad current artifact, and an accurate
  // current artifact passes even against a bad baseline.
  const std::string bad = AnalyticsArtifact(0.30, true);
  ASSERT_TRUE(DiffBench(bad, bad, &r).ok());
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(DiffBench(bad, AnalyticsArtifact(0.01, true), &r).ok());
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiffTest, UnreconciledMissClassesFailEvenWithAccurateMrc) {
  const std::string base = AnalyticsArtifact(0.01, true);
  const std::string cur = AnalyticsArtifact(0.01, false);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, cur, &r).ok());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.regressions[0].find("reconcile"), std::string::npos);
}

TEST(BenchDiffTest, CellsWithoutAnalyticsSectionsAreUnaffectedByMrcGates) {
  // Smoke-suite cells carry no analytics object; the new gates must not
  // misfire on them.
  const std::string base = Artifact(0.46, 0.47, 25, 0.95);
  DiffResult r;
  ASSERT_TRUE(DiffBench(base, base, &r).ok());
  EXPECT_TRUE(r.ok());
}

TEST(BenchDiffTest, MalformedInputIsAnInputErrorNotACrash) {
  const std::string a = Artifact(0.46, 0.47, 25, 0.95);
  DiffResult r;
  EXPECT_FALSE(DiffBench("{not json", a, &r).ok());
  EXPECT_FALSE(DiffBench(a, "[]", &r).ok());
  EXPECT_FALSE(DiffBench("{}", "{}", &r).ok());
}

}  // namespace
}  // namespace eeb::benchdiff
