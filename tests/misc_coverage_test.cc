// Coverage for corners not exercised elsewhere: cache statistics, Zipf and
// k-means edge cases, System error paths, DBSCAN over an approximate (LSH)
// candidate generator, kNN join through the LSH engine, and SK-LSH-ordered
// file locality.

#include <gtest/gtest.h>

#include <set>

#include "common/distance.h"
#include "common/scoped_temp_dir.h"
#include "common/zipf.h"
#include "core/dbscan.h"
#include "core/knn_join.h"
#include "core/system.h"
#include "index/lsh/c2lsh.h"
#include "storage/file_ordering.h"
#include "storage/mem_env.h"
#include "workload/generator.h"

namespace eeb {
namespace {

TEST(CacheStatsTest, HitRatioArithmetic) {
  cache::CacheStats stats;
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRatio(), 0.75);
  stats.Reset();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(ZipfEdgeTest, SingleItem) {
  ZipfSampler z(1, 1.0);
  Rng rng(1);
  EXPECT_EQ(z.Sample(rng), 0u);
  EXPECT_DOUBLE_EQ(z.Probability(0), 1.0);
  EXPECT_DOUBLE_EQ(z.Probability(5), 0.0);
}

TEST(SystemErrorsTest, RejectsHugeTauAndServesWithoutCache) {
  ScopedTempDir tmp("eeb_sys_err");
  ASSERT_TRUE(tmp.ok());
  workload::DatasetSpec dspec;
  dspec.n = 1000;
  dspec.dim = 8;
  dspec.ndom = 256;
  Dataset data = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 10;
  qspec.workload_size = 30;
  qspec.test_size = 3;
  auto log = workload::GenerateQueryLog(data, qspec);
  std::unique_ptr<core::System> sys;
  ASSERT_TRUE(core::System::Create(storage::Env::Default(), tmp.path(), data,
                                   log.workload, {}, &sys)
                  .ok());
  EXPECT_TRUE(sys->ConfigureCache(core::CacheMethod::kHcO, 10000, 30)
                  .IsInvalidArgument());
  // NO-CACHE still serves.
  ASSERT_TRUE(sys->ConfigureCache(core::CacheMethod::kNone, 0).ok());
  core::QueryResult r;
  ASSERT_TRUE(sys->Query(log.test[0], 5, &r).ok());
  EXPECT_EQ(r.result_ids.size(), 5u);
}

TEST(ApproximateDbscanTest, LshNeighborhoodsStillCluster) {
  // DBSCAN over LSH candidates is the approximate variant: neighborhoods
  // are restricted to LSH candidates, but on well-separated blobs it finds
  // the same macro structure.
  Rng rng(31);
  Dataset data(8);
  std::vector<Scalar> p(8);
  const double centers[2] = {40, 216};
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < 400; ++i) {
      for (auto& v : p) {
        v = static_cast<Scalar>(std::max(
            0.0, std::min(255.0, centers[b] + rng.NextGaussian() * 5)));
      }
      data.Append(p);
    }
  }
  storage::MemEnv env;
  ASSERT_TRUE(storage::PointFile::Create(&env, "/p", data).ok());
  std::unique_ptr<storage::PointFile> pf;
  ASSERT_TRUE(storage::PointFile::Open(&env, "/p", &pf).ok());

  index::C2LshOptions lo;
  lo.num_functions = 16;
  lo.collision_threshold = 6;
  lo.beta_candidates = 300;
  std::unique_ptr<index::C2Lsh> lsh;
  ASSERT_TRUE(index::C2Lsh::Build(data, lo, &lsh).ok());

  core::DbscanOptions opt;
  opt.eps = 40.0;
  opt.min_pts = 5;
  opt.k_hint = 50;
  core::DbscanResult res;
  ASSERT_TRUE(core::Dbscan(lsh.get(), *pf, nullptr, data, opt, &res).ok());
  EXPECT_EQ(res.num_clusters, 2);
  // The two blobs get different labels.
  EXPECT_NE(res.labels[0], res.labels[500]);
}

TEST(KnnJoinOnLshTest, JoinRunsThroughTheLshEngine) {
  workload::DatasetSpec dspec;
  dspec.n = 3000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.seed = 41;
  Dataset data = workload::GenerateClustered(dspec);
  storage::MemEnv env;
  ASSERT_TRUE(storage::PointFile::Create(&env, "/p", data).ok());
  std::unique_ptr<storage::PointFile> pf;
  ASSERT_TRUE(storage::PointFile::Open(&env, "/p", &pf).ok());
  index::C2LshOptions lo;
  lo.beta_candidates = 100;
  std::unique_ptr<index::C2Lsh> lsh;
  ASSERT_TRUE(index::C2Lsh::Build(data, lo, &lsh).ok());
  core::KnnEngine engine(lsh.get(), pf.get(), nullptr);

  Dataset outer(16);
  for (int i = 0; i < 10; ++i) {
    outer.Append(data.point(static_cast<PointId>(i * 100)));
  }
  core::KnnJoinResult join;
  ASSERT_TRUE(core::KnnJoin(engine, outer, {.k = 5}, &join).ok());
  ASSERT_EQ(join.neighbors.size(), 10u);
  for (const auto& nbrs : join.neighbors) {
    EXPECT_EQ(nbrs.size(), 5u);
    EXPECT_EQ(std::set<PointId>(nbrs.begin(), nbrs.end()).size(), 5u);
  }
}

TEST(SortedKeyLocalityTest, SimilarPointsLandNearby) {
  // The SK-LSH ordering's whole point: the positions of two near-duplicate
  // points in the order are closer (on average) than those of two random
  // points.
  workload::DatasetSpec dspec;
  dspec.n = 2000;
  dspec.dim = 16;
  dspec.ndom = 256;
  dspec.clusters = 10;
  dspec.cluster_stddev = 10.0;
  dspec.seed = 43;
  Dataset data = workload::GenerateClustered(dspec);
  auto order = storage::SortedKeyOrder(data, 4, 64.0, 1);
  std::vector<size_t> pos(data.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

  // Pairs of nearest neighbors vs random pairs.
  Rng rng(47);
  double near_gap = 0, random_gap = 0;
  int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const PointId a = static_cast<PointId>(rng.Uniform(data.size()));
    // Nearest neighbor of a (brute force).
    PointId best = a;
    double best_d = 1e18;
    for (size_t i = 0; i < data.size(); ++i) {
      if (i == a) continue;
      const double d = L2(data.point(a), data.point(static_cast<PointId>(i)));
      if (d < best_d) {
        best_d = d;
        best = static_cast<PointId>(i);
      }
    }
    near_gap += std::abs(static_cast<long>(pos[a]) -
                         static_cast<long>(pos[best]));
    const PointId r = static_cast<PointId>(rng.Uniform(data.size()));
    random_gap += std::abs(static_cast<long>(pos[a]) -
                           static_cast<long>(pos[r]));
  }
  EXPECT_LT(near_gap, random_gap * 0.5)
      << "sorted-key order should co-locate similar points";
}

}  // namespace
}  // namespace eeb
