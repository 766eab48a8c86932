// Tests for the hierarchical phase profiler: scope nesting and path
// construction, total/self decomposition, reset/republish semantics, the
// null-profiler no-op contract, cross-thread accumulation into one tree,
// stale thread-local-cursor safety across Profiler lifetimes, the JSON
// export shape, and end-to-end System integration (the phases Algorithm 1
// is expected to record actually appear).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "workload/generator.h"
#include "scoped_temp_dir.h"

namespace eeb::obs {
namespace {

std::map<std::string, Profiler::PhaseStats> ByPath(const Profiler& p) {
  std::map<std::string, Profiler::PhaseStats> out;
  for (auto& s : p.Snapshot()) out[s.path] = s;
  return out;
}

void SpinFor(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(ProfilerTest, NestedScopesBuildSlashPaths) {
  Profiler prof;
  {
    ProfScope a(&prof, "outer");
    {
      ProfScope b(&prof, "inner");
      { ProfScope c(&prof, "leaf"); }
      { ProfScope c(&prof, "leaf"); }
    }
  }
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats.at("outer").calls, 1u);
  EXPECT_EQ(stats.at("outer/inner").calls, 1u);
  EXPECT_EQ(stats.at("outer/inner/leaf").calls, 2u);
}

TEST(ProfilerTest, SiblingScopesShareOneNodePerName) {
  Profiler prof;
  for (int i = 0; i < 5; ++i) {
    ProfScope a(&prof, "phase");
  }
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.at("phase").calls, 5u);
}

TEST(ProfilerTest, SamePhaseNameFromDifferentPointersUnifies) {
  Profiler prof;
  // Simulate two translation units naming the same phase: same content,
  // different char arrays (content comparison must unify them).
  const char a[] = "work";
  const char b[] = "work";
  ASSERT_NE(static_cast<const void*>(a), static_cast<const void*>(b));
  { ProfScope s(&prof, a); }
  { ProfScope s(&prof, b); }
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.at("work").calls, 2u);
}

TEST(ProfilerTest, SelfTimeExcludesChildren) {
  Profiler prof;
  {
    ProfScope a(&prof, "parent");
    SpinFor(std::chrono::microseconds(2000));
    {
      ProfScope b(&prof, "child");
      SpinFor(std::chrono::microseconds(2000));
    }
  }
  auto stats = ByPath(prof);
  const auto& parent = stats.at("parent");
  const auto& child = stats.at("parent/child");
  EXPECT_GE(parent.total_seconds, child.total_seconds);
  EXPECT_NEAR(parent.self_seconds,
              parent.total_seconds - child.total_seconds, 1e-9);
  EXPECT_GT(parent.self_seconds, 0.0);
  // Leaf self == leaf total.
  EXPECT_DOUBLE_EQ(child.self_seconds, child.total_seconds);
}

TEST(ProfilerTest, ResetZeroesCountersButKeepsPhases) {
  Profiler prof;
  { ProfScope s(&prof, "phase"); }
  prof.Reset();
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 1u);  // structure survives (bench cells reuse it)
  EXPECT_EQ(stats.at("phase").calls, 0u);
  EXPECT_DOUBLE_EQ(stats.at("phase").total_seconds, 0.0);
  { ProfScope s(&prof, "phase"); }
  EXPECT_EQ(ByPath(prof).at("phase").calls, 1u);
}

TEST(ProfilerTest, NullProfilerScopesAreNoOps) {
  // Must not crash and must not leak state into a later real profiler.
  {
    ProfScope a(nullptr, "ghost");
    ProfScope b(nullptr, "ghost2");
  }
  Profiler prof;
  { ProfScope s(&prof, "real"); }
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.count("real"), 1u);
}

TEST(ProfilerTest, PublishToRegistryWritesGauges) {
  Profiler prof;
  {
    ProfScope a(&prof, "query");
    ProfScope b(&prof, "refine");
  }
  MetricsRegistry reg;
  prof.PublishTo(&reg);
  EXPECT_DOUBLE_EQ(reg.GetGauge("prof.query.calls")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("prof.query.refine.calls")->value(), 1.0);
  EXPECT_GE(reg.GetGauge("prof.query.total_seconds")->value(), 0.0);
  // Publish is idempotent per snapshot (Set, not Add).
  prof.PublishTo(&reg);
  EXPECT_DOUBLE_EQ(reg.GetGauge("prof.query.calls")->value(), 1.0);
  prof.PublishTo(nullptr);  // no-op, must not crash
}

TEST(ProfilerTest, ThreadsAccumulateIntoOneTreeWithPrivateNesting) {
  Profiler prof;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prof] {
      for (int i = 0; i < kIters; ++i) {
        ProfScope a(&prof, "query");
        ProfScope b(&prof, "refine");
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = ByPath(prof);
  ASSERT_EQ(stats.size(), 2u);  // nesting stayed per-thread: no stray roots
  EXPECT_EQ(stats.at("query").calls,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.at("query/refine").calls,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ProfilerTest, StaleThreadCursorFromDeadProfilerIsIgnored) {
  // A scope against profiler A leaves a thread-local cursor; after A dies, a
  // scope against profiler B on the same thread must root at B's top level,
  // not dereference A's freed node. The generation check covers address
  // reuse too (can't force reuse portably, but the dangling-generation path
  // is exactly the one exercised here).
  auto a = std::make_unique<Profiler>();
  {
    ProfScope s(a.get(), "old");
    // Destroy A while no scope is open is the contract; here we just record
    // once and drop A afterwards.
  }
  a.reset();
  Profiler b;
  { ProfScope s(&b, "fresh"); }
  auto stats = ByPath(b);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats.count("fresh"), 1u);
}

TEST(ProfilerTest, ExportProfileJsonShape) {
  Profiler prof;
  {
    ProfScope a(&prof, "query");
    ProfScope b(&prof, "gen");
  }
  const std::string json = ExportProfileJson(prof);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"query/gen\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"self_seconds\":"), std::string::npos);
  // Balanced and terminated.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ------------------------------------------------- System integration ----

TEST(ProfilerSystemTest, PipelinePhasesAppearAndNestCorrectly) {
  ScopedTempDir tmp("eeb_prof_system");
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
  std::unique_ptr<core::System> system;
  ASSERT_TRUE(core::System::Create(storage::Env::Default(), tmp.path(), data,
                                   log.workload, opt, &system)
                  .ok());
  // Tiny cache so misses and refinement fetches occur.
  ASSERT_TRUE(system->ConfigureCache(core::CacheMethod::kHcO, 4096).ok());

  Profiler prof;
  system->SetProfiler(&prof);
  core::AggregateResult agg;
  ASSERT_TRUE(system->RunQueries(log.test, /*k=*/10, &agg).ok());

  auto stats = ByPath(prof);
  ASSERT_EQ(stats.count("run_queries"), 1u);
  ASSERT_EQ(stats.count("run_queries/query"), 1u);
  ASSERT_EQ(stats.count("run_queries/query/gen"), 1u);
  ASSERT_EQ(stats.count("run_queries/query/reduce"), 1u);
  ASSERT_EQ(stats.count("run_queries/query/reduce/cache_probes"), 1u);
  ASSERT_EQ(stats.count("run_queries/query/refine"), 1u);
  ASSERT_EQ(stats.count("run_queries/query/refine/read_point"), 1u);
  EXPECT_EQ(stats.at("run_queries").calls, 1u);
  EXPECT_EQ(stats.at("run_queries/query").calls, log.test.size());
  EXPECT_GT(stats.at("run_queries/query/refine/read_point").calls, 0u);
  // The query total covers its phases (allow slack for clock granularity).
  const double phases = stats.at("run_queries/query/gen").total_seconds +
                        stats.at("run_queries/query/reduce").total_seconds +
                        stats.at("run_queries/query/refine").total_seconds;
  EXPECT_GE(stats.at("run_queries/query").total_seconds, phases * 0.5);

  // Detach: further queries must not record.
  system->SetProfiler(nullptr);
  prof.Reset();
  ASSERT_TRUE(system->RunQueries(log.test, /*k=*/10, &agg).ok());
  EXPECT_EQ(ByPath(prof).at("run_queries").calls, 0u);
}

}  // namespace
}  // namespace eeb::obs
