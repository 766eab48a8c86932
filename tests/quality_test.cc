// Tests for the result-quality module, including the paper's "caching does
// not affect quality" claim measured end to end.

#include <gtest/gtest.h>


#include "common/scoped_temp_dir.h"
#include "core/quality.h"
#include "core/system.h"
#include "workload/generator.h"

namespace eeb::core {
namespace {

TEST(QualityTest, PerfectResultScoresOne) {
  Dataset data(2);
  for (Scalar v : {0.f, 10.f, 20.f, 30.f}) {
    std::vector<Scalar> p{v, 0};
    data.Append(p);
  }
  std::vector<Scalar> q{1, 0};
  std::vector<PointId> perfect{0, 1};  // true 2NN of q
  const auto quality = MeasureQuality(data, q, perfect, 2);
  EXPECT_DOUBLE_EQ(quality.recall, 1.0);
  EXPECT_DOUBLE_EQ(quality.overall_ratio, 1.0);
}

TEST(QualityTest, WrongResultScoresLower) {
  Dataset data(2);
  for (Scalar v : {0.f, 10.f, 20.f, 30.f}) {
    std::vector<Scalar> p{v, 0};
    data.Append(p);
  }
  std::vector<Scalar> q{1, 0};
  std::vector<PointId> wrong{2, 3};  // the two farthest points
  const auto quality = MeasureQuality(data, q, wrong, 2);
  EXPECT_DOUBLE_EQ(quality.recall, 0.0);
  EXPECT_GT(quality.overall_ratio, 1.0);
}

TEST(QualityTest, PartialOverlap) {
  Dataset data(2);
  for (Scalar v : {0.f, 10.f, 20.f, 30.f}) {
    std::vector<Scalar> p{v, 0};
    data.Append(p);
  }
  std::vector<Scalar> q{1, 0};
  std::vector<PointId> half{0, 3};
  const auto quality = MeasureQuality(data, q, half, 2);
  EXPECT_DOUBLE_EQ(quality.recall, 0.5);
}

TEST(QualityTest, BatchAverages) {
  Dataset data(1);
  for (Scalar v : {0.f, 1.f, 2.f, 100.f}) {
    std::vector<Scalar> p{v};
    data.Append(p);
  }
  std::vector<std::vector<Scalar>> queries{{0.1f}, {0.2f}};
  std::vector<std::vector<PointId>> results{{0, 1}, {2, 3}};
  const auto batch = MeasureBatchQuality(data, queries, results, 2);
  EXPECT_EQ(batch.queries, 2u);
  EXPECT_DOUBLE_EQ(batch.mean_recall, 0.5);  // (1.0 + 0.0) / 2
}

TEST(QualityTest, CachingDoesNotAffectQualityEndToEnd) {
  // The paper's Sec. 2.2 claim, measured: LSH quality (recall, ratio) is
  // identical with and without the cache.
  ScopedTempDir tmp("eeb_quality");
  ASSERT_TRUE(tmp.ok());
  workload::DatasetSpec dspec;
  dspec.n = 4000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.seed = 3;
  Dataset data = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 40;
  qspec.workload_size = 100;
  qspec.test_size = 15;
  auto log = workload::GenerateQueryLog(data, qspec);

  core::SystemOptions opt;
  opt.lsh.beta_candidates = 150;
  std::unique_ptr<System> sys;
  ASSERT_TRUE(System::Create(storage::Env::Default(), tmp.path(), data,
                             log.workload, opt, &sys)
                  .ok());

  auto collect = [&](CacheMethod m) {
    EXPECT_TRUE(sys->ConfigureCache(m, m == CacheMethod::kNone ? 0 : 50000)
                    .ok());
    std::vector<std::vector<PointId>> results;
    for (const auto& q : log.test) {
      QueryResult r;
      EXPECT_TRUE(sys->Query(q, 10, &r).ok());
      results.push_back(r.result_ids);
    }
    return MeasureBatchQuality(data, log.test, results, 10);
  };

  const auto plain = collect(CacheMethod::kNone);
  const auto cached = collect(CacheMethod::kHcO);
  EXPECT_DOUBLE_EQ(plain.mean_recall, cached.mean_recall);
  EXPECT_DOUBLE_EQ(plain.mean_overall_ratio, cached.mean_overall_ratio);
  // And the LSH layer itself finds most true neighbors on this data.
  EXPECT_GT(plain.mean_recall, 0.6);
  EXPECT_LT(plain.mean_overall_ratio, 1.3);
}

}  // namespace
}  // namespace eeb::core
