// Determinism guarantees (README): two independently built systems over the
// same seeds produce identical results, statistics and histograms; latency
// percentiles are ordered; registry environment knobs behave.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "core/system.h"
#include "workload/generator.h"
#include "workload/registry.h"
#include "scoped_temp_dir.h"

namespace eeb {
namespace {

struct Built {
  Dataset data;
  workload::QueryLog log;
  std::unique_ptr<core::System> system;
};

Built BuildOne(const std::string& dir) {
  std::filesystem::create_directories(dir);
  Built b;
  workload::DatasetSpec dspec;
  dspec.n = 3000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.seed = 5;
  b.data = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 30;
  qspec.workload_size = 100;
  qspec.test_size = 10;
  b.log = workload::GenerateQueryLog(b.data, qspec);
  core::SystemOptions opt;
  opt.lsh.beta_candidates = 100;
  EXPECT_TRUE(core::System::Create(storage::Env::Default(), dir, b.data,
                                   b.log.workload, opt, &b.system)
                  .ok());
  return b;
}

TEST(DeterminismTest, TwoBuildsAgreeEndToEnd) {
  ScopedTempDir tmp("eeb_det");
  ASSERT_TRUE(tmp.ok());
  Built a = BuildOne(tmp.File("a"));
  Built b = BuildOne(tmp.File("b"));

  EXPECT_EQ(a.system->workload_stats().dmax, b.system->workload_stats().dmax);
  EXPECT_EQ(a.system->workload_stats().ids_by_freq,
            b.system->workload_stats().ids_by_freq);

  ASSERT_TRUE(a.system->ConfigureCache(core::CacheMethod::kHcO, 40000).ok());
  ASSERT_TRUE(b.system->ConfigureCache(core::CacheMethod::kHcO, 40000).ok());
  EXPECT_EQ(a.system->last_tau(), b.system->last_tau());

  for (size_t i = 0; i < a.log.test.size(); ++i) {
    core::QueryResult ra, rb;
    ASSERT_TRUE(a.system->Query(a.log.test[i], 10, &ra).ok());
    ASSERT_TRUE(b.system->Query(b.log.test[i], 10, &rb).ok());
    EXPECT_EQ(ra.result_ids, rb.result_ids);
    EXPECT_EQ(ra.candidates, rb.candidates);
    EXPECT_EQ(ra.fetched, rb.fetched);
  }

  // The built histograms are identical: same domain, same bucket bounds.
  hist::Histogram ha, hb;
  ASSERT_TRUE(a.system
                  ->BuildGlobalHistogram(core::CacheMethod::kHcO,
                                         a.system->last_tau(), &ha)
                  .ok());
  ASSERT_TRUE(b.system
                  ->BuildGlobalHistogram(core::CacheMethod::kHcO,
                                         b.system->last_tau(), &hb)
                  .ok());
  EXPECT_EQ(ha.ndom(), hb.ndom());
  ASSERT_EQ(ha.num_buckets(), hb.num_buckets());
  for (uint32_t i = 0; i < ha.num_buckets(); ++i) {
    EXPECT_EQ(ha.bucket(i).lo, hb.bucket(i).lo) << "bucket " << i;
    EXPECT_EQ(ha.bucket(i).hi, hb.bucket(i).hi) << "bucket " << i;
  }
}

TEST(DeterminismTest, PercentilesOrdered) {
  ScopedTempDir tmp("eeb_det_p");
  ASSERT_TRUE(tmp.ok());
  Built b = BuildOne(tmp.path());
  ASSERT_TRUE(b.system->ConfigureCache(core::CacheMethod::kHcO, 40000).ok());
  core::AggregateResult agg;
  ASSERT_TRUE(b.system->Serve(b.log.test, 10, 1, &agg).ok());
  EXPECT_LE(agg.p50_response_seconds, agg.p95_response_seconds);
  EXPECT_LE(agg.p95_response_seconds, agg.p99_response_seconds);
  EXPECT_GT(agg.p99_response_seconds, 0.0);
}

TEST(RegistryEnvTest, EmptyQuickVarIgnored) {
  // An EEB_QUICK set to the empty string must NOT activate quick mode (a
  // real shell footgun: `EEB_QUICK= cmd`).
  setenv("EEB_QUICK", "", 1);
  auto spec = workload::MaybeQuick(workload::SogouSimSpec());
  EXPECT_EQ(spec.n, workload::SogouSimSpec().n);
  setenv("EEB_QUICK", "1", 1);
  spec = workload::MaybeQuick(workload::SogouSimSpec());
  EXPECT_LE(spec.n, 8000u);
  unsetenv("EEB_QUICK");
}

TEST(RegistryEnvTest, CachePctOverride) {
  auto spec = workload::NuswSimSpec();
  const size_t dflt = workload::DefaultCacheBytes(spec);
  setenv("EEB_CACHE_PCT", "20", 1);
  const size_t overridden = workload::DefaultCacheBytes(spec);
  unsetenv("EEB_CACHE_PCT");
  const size_t file = spec.n * spec.dim * sizeof(float);
  EXPECT_EQ(overridden, file / 5);
  EXPECT_NE(overridden, dflt);
}

}  // namespace
}  // namespace eeb
