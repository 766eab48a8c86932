// Randomized end-to-end property sweep (TEST_P over seeds): for arbitrary
// data/workload seeds — including continuous (non-integral) coordinates —
// caching preserves results, bounds hold, and phase accounting stays
// consistent.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/scoped_temp_dir.h"
#include "core/system.h"
#include "workload/generator.h"

namespace eeb {
namespace {

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, CachingInvariantsHoldEndToEnd) {
  const uint64_t seed = GetParam();
  const bool continuous = (seed % 2) == 1;

  // Data: integral for even seeds; jittered to fractional for odd seeds.
  workload::DatasetSpec dspec;
  dspec.n = 2500;
  dspec.dim = 12;
  dspec.ndom = 256;
  dspec.clusters = 6;
  dspec.seed = seed;
  Dataset data = workload::GenerateClustered(dspec);
  if (continuous) {
    Rng rng(seed * 13);
    for (size_t i = 0; i < data.size(); ++i) {
      for (Scalar& v : data.mutable_point(static_cast<PointId>(i))) {
        v = std::min<Scalar>(255.9f,
                             std::max<Scalar>(0.0f,
                                              v + static_cast<Scalar>(
                                                      rng.NextDouble())));
      }
    }
  }

  workload::QueryLogSpec qspec;
  qspec.pool_size = 25;
  qspec.workload_size = 80;
  qspec.test_size = 8;
  qspec.seed = seed * 7 + 1;
  auto log = workload::GenerateQueryLog(data, qspec);

  ScopedTempDir tmp("eeb_seed_" + std::to_string(seed));
  ASSERT_TRUE(tmp.ok());

  core::SystemOptions opt;
  opt.integral_values = !continuous;
  opt.lsh.beta_candidates = 80;
  opt.lsh.seed = seed + 3;
  std::unique_ptr<core::System> sys;
  ASSERT_TRUE(core::System::Create(storage::Env::Default(), tmp.path(), data,
                                   log.workload, opt, &sys)
                  .ok());

  // Reference results (no cache).
  ASSERT_TRUE(sys->ConfigureCache(core::CacheMethod::kNone, 0).ok());
  std::vector<std::vector<PointId>> reference;
  for (const auto& q : log.test) {
    core::QueryResult r;
    ASSERT_TRUE(sys->Query(q, 10, &r).ok());
    reference.push_back(r.result_ids);
  }

  for (core::CacheMethod m :
       {core::CacheMethod::kExact, core::CacheMethod::kHcO,
        core::CacheMethod::kHcD}) {
    ASSERT_TRUE(sys->ConfigureCache(m, 30000).ok());
    for (size_t i = 0; i < log.test.size(); ++i) {
      core::QueryResult r;
      ASSERT_TRUE(sys->Query(log.test[i], 10, &r).ok());
      EXPECT_EQ(r.result_ids, reference[i])
          << core::CacheMethodName(m) << " seed=" << seed
          << " continuous=" << continuous << " query " << i;
      EXPECT_EQ(r.pruned + r.true_hits + r.remaining, r.candidates);
      EXPECT_LE(r.fetched, r.remaining);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace eeb
