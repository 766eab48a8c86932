// End-to-end chaos test (docs/ROBUSTNESS.md): a smoke-sized workload runs
// under FaultInjectionEnv with probabilistic read faults AND bit-flip
// corruption, and the system must (a) complete every query — zero aborts,
// (b) return the exact fault-free answer for every query it does not flag
// degraded, and (c) account for every injected fault: with retries disabled
// each injected IOError or corruption surfaces as exactly one engine-level
// read failure. A second scenario turns retries on and shows transient
// faults being absorbed back to exact answers.

#include <gtest/gtest.h>

#include <iostream>
#include <map>
#include <vector>

#include "common/dataset.h"
#include "core/system.h"
#include "obs/recorder.h"
#include "storage/mem_env.h"
#include "workload/generator.h"

namespace eeb {
namespace {

struct ChaosRig {
  storage::MemEnv mem;
  storage::FaultInjectionEnv env{&mem};
  Dataset data;
  workload::QueryLog log;
  std::unique_ptr<core::System> system;

  explicit ChaosRig(core::SystemOptions opt) {
    // LSH tuned for the 16-dim surrogate (defaults target 64-dim); without
    // this the index yields no candidates and no refinement I/O happens.
    opt.lsh.num_functions = 16;
    opt.lsh.collision_threshold = 8;
    opt.lsh.beta_candidates = 150;
    workload::DatasetSpec dspec;
    dspec.name = "chaos";
    dspec.n = 4000;
    dspec.dim = 16;
    dspec.ndom = 256;
    dspec.clusters = 16;
    dspec.cluster_stddev = 12.0;
    dspec.seed = 7;
    data = workload::GenerateClustered(dspec);
    workload::QueryLogSpec lspec;
    lspec.workload_size = 400;
    lspec.test_size = 60;
    lspec.jitter_stddev = 4.0;
    lspec.seed = 11;
    log = workload::GenerateQueryLog(data, lspec);
    // Build on a healthy disk; faults are injected per scenario afterwards.
    EXPECT_TRUE(
        core::System::Create(&env, "/chaos", data, log.workload, opt, &system)
            .ok());
    // Deliberately small and lossy (tau 4 of the lossless 8): with full
    // lossless codes every query would be answered from cache bounds alone
    // and the chaos plans below would never see a disk read.
    EXPECT_TRUE(system
                    ->ConfigureCache(core::CacheMethod::kHcO,
                                     /*cache_bytes=*/4 << 10, /*tau=*/4)
                    .ok());
  }
};

TEST(ChaosTest, FaultyDiskNeverAbortsAndAccountingReconciles) {
  core::SystemOptions opt;
  opt.ndom = 256;
  // Retries off: every injected fault must surface as exactly one
  // engine-level read failure, making the reconciliation below exact.
  opt.io_retry.max_retries = 0;
  ChaosRig rig(opt);
  const size_t k = 10;

  // Fault-free ground truth.
  std::vector<std::vector<PointId>> truth;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, k, &r).ok());
    ASSERT_FALSE(r.degraded);
    truth.push_back(r.result_ids);
  }

  // Heavy chaos: 5% of reads fail, 1% of surviving reads get a flipped
  // bit. At ~10^2 reads per query essentially every query is hit.
  storage::FaultPlan plan;
  plan.read_fault_rate = 0.05;
  plan.corrupt_rate = 0.01;
  plan.seed = 13;
  rig.env.set_plan(plan);

  uint64_t reported_failures = 0;
  size_t degraded = 0;
  for (size_t i = 0; i < rig.log.test.size(); ++i) {
    // (a) No query aborts, whatever the disk does.
    ASSERT_TRUE(rig.system->Query(rig.log.test[i], k, &r).ok());
    reported_failures += r.read_failures;
    if (r.degraded) {
      ++degraded;
      EXPECT_GT(r.read_failures, 0u);
    } else {
      EXPECT_EQ(r.read_failures, 0u);
      EXPECT_EQ(r.result_ids, truth[i]);
    }
    EXPECT_EQ(r.result_ids.size(), truth[i].size());
  }
  // The fault rates make degradation overwhelmingly likely; if this ever
  // reads 0 the injection itself is broken.
  EXPECT_GT(degraded, 0u);

  // (c) Exact reconciliation: nothing injected went unreported, nothing
  // reported was spurious.
  EXPECT_EQ(reported_failures,
            rig.env.injected_read_faults() + rig.env.injected_corruptions());
  EXPECT_GT(rig.env.injected_read_faults(), 0u);
  EXPECT_GT(rig.env.injected_corruptions(), 0u);

  // Light chaos: a rate low enough that most queries never see a fault, so
  // the "not flagged degraded => bit-exact answer" branch really runs.
  storage::FaultPlan light;
  light.read_fault_rate = 0.003;
  light.seed = 23;
  rig.env.set_plan(light);
  size_t clean = 0;
  reported_failures = 0;
  for (size_t i = 0; i < rig.log.test.size(); ++i) {
    ASSERT_TRUE(rig.system->Query(rig.log.test[i], k, &r).ok());
    reported_failures += r.read_failures;
    if (!r.degraded) {
      ++clean;
      // (b) An unflagged result is the exact fault-free answer.
      EXPECT_EQ(r.result_ids, truth[i]) << "non-degraded result differs "
                                           "from fault-free answer, query "
                                        << i;
    }
  }
  EXPECT_GT(clean, 0u);                      // the branch above was taken
  EXPECT_LT(clean, rig.log.test.size());     // ...and some queries degraded
  EXPECT_EQ(reported_failures, rig.env.injected_read_faults());
}

TEST(ChaosTest, RetriesAbsorbTransientFaultsBackToExact) {
  core::SystemOptions opt;
  opt.ndom = 256;
  opt.io_retry.max_retries = 8;
  opt.io_retry.backoff_initial_ms = 0.0;  // no sleeping in tests
  ChaosRig rig(opt);
  const size_t k = 10;

  std::vector<std::vector<PointId>> truth;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, k, &r).ok());
    truth.push_back(r.result_ids);
  }

  // Transient-only faults (no corruption): an 8-deep retry budget reduces
  // the per-read failure probability to 0.05^9 — every answer stays exact.
  storage::FaultPlan plan;
  plan.read_fault_rate = 0.05;
  plan.seed = 17;
  rig.env.set_plan(plan);

  for (size_t i = 0; i < rig.log.test.size(); ++i) {
    ASSERT_TRUE(rig.system->Query(rig.log.test[i], k, &r).ok());
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.result_ids, truth[i]);
  }
  EXPECT_GT(rig.env.injected_read_faults(), 0u);  // faults really fired
}

TEST(ChaosTest, EightThreadsFaultyDiskNeverAbortsAndReconciles) {
  core::SystemOptions opt;
  opt.ndom = 256;
  // Retries off: every injected fault surfaces as exactly one engine-level
  // read failure, so the cross-thread reconciliation below is exact.
  opt.io_retry.max_retries = 0;
  ChaosRig rig(opt);
  const size_t k = 10;

  // Fault-free ground truth (serial; caches never change results).
  std::vector<std::vector<PointId>> truth;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, k, &r).ok());
    ASSERT_FALSE(r.degraded);
    truth.push_back(r.result_ids);
  }

  // Heavy chaos under 8 threads. Which query absorbs which fault depends on
  // the interleaving, so per-query failure counts are nondeterministic —
  // but (a) nothing aborts, (b) unflagged answers are exact, and (c) the
  // summed accounting reconciles with the injector to the last fault.
  storage::FaultPlan plan;
  plan.read_fault_rate = 0.05;
  plan.corrupt_rate = 0.01;
  plan.seed = 29;
  rig.env.set_plan(plan);

  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &results).ok());

  uint64_t reported_failures = 0;
  size_t degraded = 0;
  ASSERT_EQ(results.size(), truth.size());
  for (size_t i = 0; i < results.size(); ++i) {
    reported_failures += results[i].read_failures;
    if (results[i].degraded) {
      ++degraded;
      EXPECT_GT(results[i].read_failures, 0u);
    } else {
      EXPECT_EQ(results[i].read_failures, 0u);
      EXPECT_EQ(results[i].result_ids, truth[i]) << "query " << i;
    }
    EXPECT_EQ(results[i].result_ids.size(), truth[i].size());
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(agg.degraded_queries, degraded);
  EXPECT_EQ(agg.read_failures, reported_failures);

  // (c) Exact reconciliation across all 8 threads.
  EXPECT_EQ(reported_failures,
            rig.env.injected_read_faults() + rig.env.injected_corruptions());
  EXPECT_GT(rig.env.injected_read_faults(), 0u);
  EXPECT_GT(rig.env.injected_corruptions(), 0u);

  // Healthy disk again: the concurrent path returns to bit-exact answers.
  storage::FaultPlan healthy;
  rig.env.set_plan(healthy);
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &results).ok());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].degraded);
    EXPECT_EQ(results[i].result_ids, truth[i]) << "query " << i;
  }
  EXPECT_EQ(agg.read_failures, 0u);
}

TEST(ChaosTest, SickHealthySoakAtEightThreadsStaysAccountable) {
  core::SystemOptions opt;
  opt.ndom = 256;
  // Retries off: every injected fault surfaces as exactly one engine-level
  // read failure, so each round reconciles with the injector as well as
  // with its own aggregate.
  opt.io_retry.max_retries = 0;
  ChaosRig rig(opt);
  const size_t k = 10;

  // Fault-free ground truth (serial; caches never change results).
  std::vector<std::vector<PointId>> truth;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, k, &r).ok());
    ASSERT_FALSE(r.degraded);
    truth.push_back(r.result_ids);
  }

  // Alternate sick and healthy rounds on 8 threads. Nothing aborts, every
  // round's aggregate reconciles with its queries and with the injector,
  // and unflagged answers stay bit-exact.
  for (int round = 0; round < 4; ++round) {
    if (round % 2 == 0) {
      storage::FaultPlan plan;
      plan.read_fault_rate = 0.35;
      plan.corrupt_rate = 0.02;
      plan.seed = 31 + static_cast<uint64_t>(round);
      rig.env.set_plan(plan);
    } else {
      rig.env.set_plan({});
    }
    core::AggregateResult agg;
    std::vector<core::QueryResult> per_query;
    ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &per_query).ok())
        << "round " << round;
    ASSERT_EQ(per_query.size(), rig.log.test.size());
    uint64_t reported_failures = 0;
    for (size_t i = 0; i < per_query.size(); ++i) {
      reported_failures += per_query[i].read_failures;
      if (!per_query[i].degraded) {
        // A query the engine did not flag is the exact fault-free answer.
        EXPECT_EQ(per_query[i].result_ids, truth[i])
            << "round " << round << " query " << i;
      }
    }
    EXPECT_EQ(agg.queries, rig.log.test.size());
    EXPECT_EQ(agg.read_failures, reported_failures);
    EXPECT_EQ(reported_failures, rig.env.injected_read_faults() +
                                     rig.env.injected_corruptions())
        << "round " << round;
  }

  // Recovery: on a healthy disk the concurrent path returns to bit-exact
  // answers all the way through.
  rig.env.set_plan({});
  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &results).ok());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_FALSE(results[i].degraded) << "query " << i;
    EXPECT_EQ(results[i].result_ids, truth[i]) << "query " << i;
  }
  EXPECT_EQ(agg.read_failures, 0u);
}

TEST(ChaosTest, FlightRecorderCapturesEveryDegradedQueryWithItsCause) {
  core::SystemOptions opt;
  opt.ndom = 256;
  opt.io_retry.max_retries = 0;
  ChaosRig rig(opt);
  const size_t k = 10;

  // Always-on recorder, as a serving process would run it: tail retention
  // sized so no degraded record can be evicted during the test.
  obs::FlightRecorder::Options ropt;
  ropt.ring_capacity = 256;
  ropt.max_retained_slow = 1024;
  obs::FlightRecorder recorder(ropt);
  rig.system->SetRecorder(&recorder);

  storage::FaultPlan plan;
  plan.read_fault_rate = 0.05;
  plan.corrupt_rate = 0.01;
  plan.seed = 31;
  rig.env.set_plan(plan);

  core::AggregateResult agg;
  std::vector<core::QueryResult> results;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 8, &agg, &results).ok());
  EXPECT_EQ(recorder.recorded(), results.size());

  // Every degraded query must be in the tail-retained list, carrying the
  // full explain record that names its cause — that is the recorder's whole
  // reason to exist.
  std::map<uint64_t, obs::QueryRecord> retained;
  for (const obs::QueryRecord& r : recorder.SlowQueries()) {
    retained[r.query_index] = r;
  }
  size_t degraded = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].degraded) {
      EXPECT_EQ(retained.count(i), 0u) << "clean query " << i << " retained";
      continue;
    }
    ++degraded;
    ASSERT_EQ(retained.count(i), 1u) << "degraded query " << i << " lost";
    const obs::QueryExplain& e = retained[i].explain;
    EXPECT_NE(e.degraded_cause, obs::DegradedCause::kNone) << "query " << i;
    EXPECT_EQ(e.read_failures, results[i].read_failures) << "query " << i;
    EXPECT_EQ(e.substituted, results[i].substituted) << "query " << i;
    EXPECT_EQ(e.degraded_cause, results[i].degraded_cause);
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(recorder.retained_slow_total(), degraded);

  // Both fault flavors fired, so both causes must appear among the records.
  bool saw_corruption = false, saw_read_failure = false;
  for (const auto& [index, record] : retained) {
    (void)index;
    saw_corruption |=
        record.explain.degraded_cause == obs::DegradedCause::kCorruption;
    saw_read_failure |=
        record.explain.degraded_cause == obs::DegradedCause::kReadFailure;
  }
  EXPECT_TRUE(saw_corruption);
  EXPECT_TRUE(saw_read_failure);

  // On failure, dump the flight recorder — the postmortem this subsystem
  // was built to provide.
  if (::testing::Test::HasFailure()) recorder.DumpJson(std::cerr);
}

TEST(ChaosTest, AggregateDegradedAccountingMatchesPerQuery) {
  core::SystemOptions opt;
  opt.ndom = 256;
  opt.io_retry.max_retries = 0;
  ChaosRig rig(opt);

  storage::FaultPlan plan;
  plan.read_fault_rate = 0.05;
  plan.seed = 19;
  rig.env.set_plan(plan);

  // Per-query tally first (same plan seed replayed for the batch run).
  size_t degraded = 0, substituted = 0, failures = 0;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, 10, &r).ok());
    if (r.degraded) ++degraded;
    substituted += r.substituted;
    failures += r.read_failures;
  }

  rig.env.set_plan(plan);  // replay the exact same fault sequence
  core::AggregateResult agg;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, 10, 1, &agg).ok());
  EXPECT_EQ(agg.degraded_queries, degraded);
  EXPECT_EQ(agg.read_failures, failures);
  EXPECT_DOUBLE_EQ(agg.degraded_rate,
                   static_cast<double>(degraded) / rig.log.test.size());
  EXPECT_DOUBLE_EQ(agg.avg_substituted,
                   static_cast<double>(substituted) / rig.log.test.size());
  EXPECT_GT(agg.degraded_queries, 0u);
}

}  // namespace
}  // namespace eeb
