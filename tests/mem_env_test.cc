// Tests for the in-memory Env and fault injection: storage code paths work
// unchanged over MemEnv, and injected read faults propagate as Status
// through every layer (point file, tree search, engine) without corrupting
// later queries.

#include <gtest/gtest.h>

#include "common/dataset.h"
#include "common/random.h"
#include "core/knn_engine.h"
#include "index/idistance/idistance.h"
#include "index/lsh/c2lsh.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "storage/mem_env.h"
#include "storage/point_file.h"
#include "storage/retry_env.h"

namespace eeb::storage {
namespace {

Dataset RandomData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(256));
    d.Append(p);
  }
  return d;
}

TEST(MemEnvTest, FileLifecycle) {
  MemEnv env;
  EXPECT_FALSE(env.FileExists("/a"));
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/a", &w).ok());
  ASSERT_TRUE(w->Append("hello", 5).ok());
  EXPECT_TRUE(env.FileExists("/a"));
  EXPECT_EQ(env.TotalBytes(), 5u);

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/a", &r).ok());
  char buf[5];
  ASSERT_TRUE(r->Read(0, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "hello");
  EXPECT_TRUE(r->Read(3, 5, buf).IsIOError());  // past EOF

  ASSERT_TRUE(env.DeleteFile("/a").ok());
  EXPECT_FALSE(env.FileExists("/a"));
  EXPECT_TRUE(env.DeleteFile("/a").IsIOError());
  // POSIX unlink semantics: the open reader still works.
  ASSERT_TRUE(r->Read(0, 5, buf).ok());
}

TEST(MemEnvTest, PointFileWorksOverMemEnv) {
  MemEnv env;
  Dataset data = RandomData(200, 8, 3);
  ASSERT_TRUE(PointFile::Create(&env, "/points", data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(&env, "/points", &pf).ok());
  std::vector<Scalar> buf(8);
  for (PointId id = 0; id < 200; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).ok());
    EXPECT_EQ(buf[3], data.point(id)[3]);
  }
}

TEST(FaultInjectionTest, FailsExactlyWhereScheduled) {
  MemEnv mem;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(mem.NewWritableFile("/f", &w).ok());
  std::string payload(64, 'x');
  ASSERT_TRUE(w->Append(payload.data(), payload.size()).ok());

  FaultInjectionEnv env(&mem);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());

  FaultPlan plan;
  plan.fail_after_reads = 2;
  plan.persistent = false;  // only the 3rd read fails
  env.set_plan(plan);

  char buf[8];
  EXPECT_TRUE(r->Read(0, 8, buf).ok());
  EXPECT_TRUE(r->Read(8, 8, buf).ok());
  EXPECT_TRUE(r->Read(16, 8, buf).IsIOError());
  EXPECT_TRUE(r->Read(24, 8, buf).ok());  // one-shot plan recovered
}

TEST(FaultInjectionTest, PersistentFaultStaysDown) {
  MemEnv mem;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(mem.NewWritableFile("/f", &w).ok());
  std::string payload(64, 'x');
  ASSERT_TRUE(w->Append(payload.data(), payload.size()).ok());

  FaultInjectionEnv env(&mem);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());
  env.set_plan({.fail_after_reads = 0, .persistent = true});
  char buf[8];
  EXPECT_TRUE(r->Read(0, 8, buf).IsIOError());
  EXPECT_TRUE(r->Read(0, 8, buf).IsIOError());
}

// Shared fixture bits for the engine-under-faults tests.
struct EngineRig {
  MemEnv mem;
  FaultInjectionEnv env{&mem};
  Dataset data;
  std::unique_ptr<PointFile> pf;
  std::unique_ptr<index::C2Lsh> lsh;

  explicit EngineRig(uint64_t seed = 7) : data(RandomData(2000, 16, seed)) {
    EXPECT_TRUE(PointFile::Create(&mem, "/points", data).ok());
    EXPECT_TRUE(PointFile::Open(&env, "/points", &pf).ok());
    index::C2LshOptions lo;
    lo.num_functions = 16;
    lo.collision_threshold = 8;
    lo.beta_candidates = 100;
    EXPECT_TRUE(index::C2Lsh::Build(data, lo, &lsh).ok());
  }
};

TEST(FaultInjectionTest, EngineDegradesOnDiskFaultsByDefault) {
  EngineRig rig;
  core::KnnEngine engine(rig.lsh.get(), rig.pf.get(), nullptr);
  std::vector<Scalar> q(16, 100);

  // Healthy query first.
  core::QueryResult r;
  ASSERT_TRUE(engine.Query(q, 10, &r).ok());
  EXPECT_FALSE(r.degraded);
  const auto healthy_ids = r.result_ids;

  // Break the disk mid-refinement: the query completes degraded instead of
  // failing, and says so.
  rig.env.set_plan({.fail_after_reads = 5, .persistent = true});
  core::QueryResult rd;
  ASSERT_TRUE(engine.Query(q, 10, &rd).ok());
  EXPECT_TRUE(rd.degraded);
  EXPECT_GT(rd.read_failures, 0u);
  EXPECT_GT(rd.substituted, 0u);
  EXPECT_EQ(rd.result_ids.size(), healthy_ids.size());

  // Heal the disk: answers are exact (and not flagged) again.
  rig.env.set_plan({});
  core::QueryResult r2;
  ASSERT_TRUE(engine.Query(q, 10, &r2).ok());
  EXPECT_FALSE(r2.degraded);
  EXPECT_EQ(r2.result_ids, healthy_ids);
}

TEST(FaultInjectionTest, EngineStrictModePropagatesDiskFaults) {
  EngineRig rig;
  core::EngineOptions eo;
  eo.degraded_fallback = false;  // the pre-fault-tolerance contract
  core::KnnEngine engine(rig.lsh.get(), rig.pf.get(), nullptr, eo);
  std::vector<Scalar> q(16, 100);

  core::QueryResult r;
  ASSERT_TRUE(engine.Query(q, 10, &r).ok());

  rig.env.set_plan({.fail_after_reads = 5, .persistent = true});
  EXPECT_TRUE(engine.Query(q, 10, &r).IsIOError());

  // Heal the disk: the engine recovers (no stuck state).
  rig.env.set_plan({});
  core::QueryResult r2;
  ASSERT_TRUE(engine.Query(q, 10, &r2).ok());
}

TEST(FaultInjectionTest, EngineDeadlineCutsRefinementToDegraded) {
  EngineRig rig;
  core::EngineOptions eo;
  // An already-elapsed deadline: every unresolved candidate must be resolved
  // from bounds, with zero refinement disk reads.
  eo.deadline_ms = 1e-9;
  core::KnnEngine engine(rig.lsh.get(), rig.pf.get(), nullptr, eo);
  std::vector<Scalar> q(16, 100);
  core::QueryResult r;
  ASSERT_TRUE(engine.Query(q, 10, &r).ok());
  EXPECT_TRUE(r.deadline_hit);
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.fetched, 0u);
  EXPECT_EQ(r.result_ids.size(), 10u);
}

TEST(FaultInjectionTest, FailedWriterLeavesNoPartialFile) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  Dataset data = RandomData(500, 16, 7);

  // Let the header page out, then break the disk: Create must fail AND the
  // partial file must be gone (CleanupIfError), so a later Open cannot read
  // a truncated point file.
  env.set_plan({.fail_after_writes = 1});
  EXPECT_TRUE(PointFile::Create(&env, "/pf", data, 4096).IsIOError());
  EXPECT_FALSE(env.FileExists("/pf"));

  // Heal the disk: the same path writes cleanly afterwards.
  env.set_plan({});
  ASSERT_TRUE(PointFile::Create(&env, "/pf", data, 4096).ok());
  EXPECT_TRUE(env.FileExists("/pf"));
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(&env, "/pf", &pf).ok());
  EXPECT_EQ(pf->size(), 500u);
}

TEST(FaultInjectionTest, OneShotWriteFaultRecovers) {
  // Regression: OnWrite used to ignore plan_.persistent and fail every
  // append past the trigger even for a transient (one-shot) plan.
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/w", &w).ok());
  env.set_plan({.fail_after_writes = 1, .persistent = false});
  EXPECT_TRUE(w->Append("a", 1).ok());
  EXPECT_TRUE(w->Append("b", 1).IsIOError());
  EXPECT_TRUE(w->Append("c", 1).ok());
  EXPECT_EQ(env.injected_write_faults(), 1u);
}

TEST(FaultInjectionTest, ProbabilisticReadFaultsAreCountedAndSeeded) {
  MemEnv mem;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(mem.NewWritableFile("/f", &w).ok());
  std::string payload(4096, 'x');
  ASSERT_TRUE(w->Append(payload.data(), payload.size()).ok());

  FaultInjectionEnv env(&mem);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());

  FaultPlan plan;
  plan.read_fault_rate = 0.2;
  plan.seed = 11;
  env.set_plan(plan);
  char buf[16];
  uint64_t failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (r->Read(0, 16, buf).IsIOError()) ++failures;
  }
  EXPECT_EQ(failures, env.injected_read_faults());
  // ~200 expected; generous bounds keep the test robust to Rng changes.
  EXPECT_GT(failures, 100u);
  EXPECT_LT(failures, 350u);

  // Same plan, same seed: the fault sequence replays exactly.
  env.set_plan(plan);
  uint64_t replay = 0;
  for (int i = 0; i < 1000; ++i) {
    if (r->Read(0, 16, buf).IsIOError()) ++replay;
  }
  EXPECT_EQ(replay, failures);
}

TEST(FaultInjectionTest, BitFlipCorruptionCaughtByPageChecksum) {
  MemEnv mem;
  Dataset data = RandomData(256, 16, 17);
  ASSERT_TRUE(PointFile::Create(&mem, "/points", data).ok());

  FaultInjectionEnv env(&mem);
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(&env, "/points", &pf).ok());

  FaultPlan plan;
  plan.corrupt_rate = 0.3;
  plan.seed = 19;
  env.set_plan(plan);

  std::vector<Scalar> buf(16);
  uint64_t corruptions = 0;
  for (PointId id = 0; id < 256; ++id) {
    const Status st = pf->ReadPoint(id, buf, nullptr, nullptr);
    if (st.IsCorruption()) {
      ++corruptions;
    } else {
      // A read that passed the checksum must carry the true bytes.
      ASSERT_TRUE(st.ok());
      auto expect = data.point(id);
      for (size_t j = 0; j < 16; ++j) EXPECT_EQ(buf[j], expect[j]);
    }
  }
  // Every injected flip was detected — none slipped through as data.
  EXPECT_EQ(corruptions, env.injected_corruptions());
  EXPECT_GT(corruptions, 0u);
}

// ------------------------------------------------------------- RetryingEnv --

TEST(RetryingEnvTest, RetriesTransientReadFaults) {
  MemEnv mem;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(mem.NewWritableFile("/f", &w).ok());
  std::string payload(64, 'x');
  ASSERT_TRUE(w->Append(payload.data(), payload.size()).ok());

  FaultInjectionEnv faults(&mem);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_ms = 0.0;  // no sleeping in tests
  RetryingEnv env(&faults, policy);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());

  // One-shot fault on the next read: the retry absorbs it.
  faults.set_plan({.fail_after_reads = 0, .persistent = false});
  char buf[8];
  EXPECT_TRUE(r->Read(0, 8, buf).ok());
  EXPECT_EQ(env.retries(), 1u);
  EXPECT_EQ(env.exhausted(), 0u);

  // Persistent fault: the budget runs out and IOError surfaces.
  faults.set_plan({.fail_after_reads = 0, .persistent = true});
  EXPECT_TRUE(r->Read(0, 8, buf).IsIOError());
  EXPECT_EQ(env.retries(), 1u + 3u);
  EXPECT_EQ(env.exhausted(), 1u);
}

TEST(RetryingEnvTest, ZeroBudgetIsPassThrough) {
  MemEnv mem;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(mem.NewWritableFile("/f", &w).ok());
  ASSERT_TRUE(w->Append("abcdefgh", 8).ok());

  FaultInjectionEnv faults(&mem);
  RetryPolicy policy;
  policy.max_retries = 0;
  RetryingEnv env(&faults, policy);
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &r).ok());
  faults.set_plan({.fail_after_reads = 0, .persistent = false});
  char buf[4];
  EXPECT_TRUE(r->Read(0, 4, buf).IsIOError());
  EXPECT_EQ(env.retries(), 0u);
}

TEST(RetryingEnvTest, CorruptionIsNeverRetried) {
  MemEnv mem;
  Dataset data = RandomData(64, 16, 23);
  ASSERT_TRUE(PointFile::Create(&mem, "/points", data).ok());

  FaultInjectionEnv faults(&mem);
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_initial_ms = 0.0;
  RetryingEnv env(&faults, policy);
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(&env, "/points", &pf).ok());

  // Corrupt every read: the checksum layer above the retry wrapper reports
  // Corruption, and the wrapper must not burn its budget on it — the raw
  // read itself succeeded, so there is nothing transient to retry.
  FaultPlan plan;
  plan.corrupt_rate = 1.0;
  plan.seed = 29;
  faults.set_plan(plan);
  std::vector<Scalar> buf(16);
  EXPECT_TRUE(pf->ReadPoint(0, buf, nullptr, nullptr).IsCorruption());
  EXPECT_EQ(env.retries(), 0u);
  EXPECT_EQ(env.exhausted(), 0u);
}

TEST(RetryingEnvTest, WritesAreNeverRetried) {
  MemEnv mem;
  FaultInjectionEnv faults(&mem);
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_initial_ms = 0.0;
  RetryingEnv env(&faults, policy);
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/w", &w).ok());
  faults.set_plan({.fail_after_writes = 0, .persistent = false});
  // A transient write fault surfaces immediately: retrying an Append could
  // duplicate a partially applied one, so the policy is fail-and-cleanup.
  EXPECT_TRUE(w->Append("x", 1).IsIOError());
  EXPECT_EQ(env.retries(), 0u);
}

TEST(RetryingEnvTest, SystemSurvivesTransientFaultsWithRetries) {
  MemEnv mem;
  FaultInjectionEnv faults(&mem);
  Dataset data = RandomData(2000, 16, 31);
  std::unique_ptr<index::C2Lsh> lsh;
  index::C2LshOptions lo;
  lo.num_functions = 16;
  lo.collision_threshold = 8;
  lo.beta_candidates = 100;
  ASSERT_TRUE(index::C2Lsh::Build(data, lo, &lsh).ok());
  ASSERT_TRUE(PointFile::Create(&faults, "/points", data).ok());

  RetryPolicy policy;
  policy.max_retries = 8;
  policy.backoff_initial_ms = 0.0;
  RetryingEnv renv(&faults, policy);
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(&renv, "/points", &pf).ok());
  core::KnnEngine engine(lsh.get(), pf.get(), nullptr);

  // 10% transient faults with an 8-deep retry budget: the chance a single
  // read exhausts the budget is 1e-9; queries stay exact, not degraded.
  FaultPlan plan;
  plan.read_fault_rate = 0.1;
  plan.seed = 37;
  faults.set_plan(plan);
  std::vector<Scalar> q(16, 100);
  core::QueryResult r;
  ASSERT_TRUE(engine.Query(q, 10, &r).ok());
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.read_failures, 0u);
  EXPECT_GT(renv.retries(), 0u);
}

TEST(RetryingEnvTest, JitteredBackoffStaysWithinTheRetryBudget) {
  MemEnv mem;
  FaultInjectionEnv faults(&mem);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_ms = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_ms = 5.0;
  policy.backoff_jitter = 0.5;
  policy.jitter_seed = 71;
  RetryingEnv env(&faults, policy);

  // Persistent fault: all 3 retries fire, sleeping the jittered ladder
  // 0.5 + 1 + 2 ms. Each sleep is scaled by a factor in [1-j, 1+j], so the
  // total must stay within the jitter envelope of the nominal budget:
  // at least (1-j) * 3.5 ms (sleep_for never undershoots). The upper bound
  // is left to the regression gate below — wall-clock on a loaded box can
  // overshoot any constant.
  faults.set_plan({.fail_after_reads = 0, .persistent = true});
  const double nominal_ms = 0.5 + 1.0 + 2.0;
  Timer t;
  std::unique_ptr<RandomAccessFile> r;
  EXPECT_TRUE(env.NewRandomAccessFile("/missing", &r).IsIOError());
  const double elapsed_ms = t.ElapsedMillis();
  EXPECT_EQ(env.retries(), 3u);
  EXPECT_GE(elapsed_ms, (1.0 - policy.backoff_jitter) * nominal_ms);

  // Jitter off: the ladder is the exact pre-jitter schedule, so the sleep
  // is at least the full nominal budget — the regression this guards is a
  // jitter implementation that silently shrinks (or skips) the backoff.
  RetryPolicy exact = policy;
  exact.backoff_jitter = 0.0;
  RetryingEnv exact_env(&faults, exact);
  Timer t2;
  EXPECT_TRUE(exact_env.NewRandomAccessFile("/missing", &r).IsIOError());
  EXPECT_GE(t2.ElapsedMillis(), nominal_ms);
  EXPECT_EQ(exact_env.retries(), 3u);
}

TEST(FaultInjectionTest, TreeSearchPropagatesDiskFaults) {
  MemEnv mem;
  FaultInjectionEnv env(&mem);
  Dataset data = RandomData(2000, 16, 11);
  std::unique_ptr<index::IDistance> idx;
  index::IDistanceOptions opt;
  opt.num_partitions = 8;
  ASSERT_TRUE(index::IDistance::Build(&env, "/idist", data, opt, &idx).ok());

  std::vector<Scalar> q(16, 100);
  index::TreeSearchResult res;
  env.set_plan({.fail_after_reads = 3, .persistent = true});
  EXPECT_TRUE(idx->Search(q, 10, nullptr, &res).IsIOError());
  env.set_plan({.fail_after_reads = UINT64_MAX, .persistent = true});
  EXPECT_TRUE(idx->Search(q, 10, nullptr, &res).ok());
}

}  // namespace
}  // namespace eeb::storage
