// Tests for workload analysis (HFF frequencies, QR, Dmax) and the synthetic
// dataset / query-log generators.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/distance.h"
#include "common/random.h"
#include "core/workload.h"
#include "index/idistance/idistance.h"
#include "index/lsh/c2lsh.h"
#include "workload/generator.h"
#include "workload/registry.h"
#include "scoped_temp_dir.h"

namespace eeb {
namespace {

// ------------------------------------------------------------- generator --

TEST(GeneratorTest, ValuesInDomain) {
  workload::DatasetSpec spec;
  spec.n = 2000;
  spec.dim = 16;
  spec.ndom = 128;
  spec.sparsity = 0.3;
  Dataset d = workload::GenerateClustered(spec);
  ASSERT_EQ(d.size(), 2000u);
  ASSERT_EQ(d.dim(), 16u);
  for (size_t i = 0; i < d.size(); ++i) {
    for (Scalar v : d.point(static_cast<PointId>(i))) {
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 127);
      EXPECT_EQ(v, std::floor(v)) << "values must be integral";
    }
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  workload::DatasetSpec spec;
  spec.n = 100;
  spec.dim = 8;
  Dataset a = workload::GenerateClustered(spec);
  Dataset b = workload::GenerateClustered(spec);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_EQ(a.point(static_cast<PointId>(i))[j],
                b.point(static_cast<PointId>(i))[j]);
    }
  }
}

TEST(GeneratorTest, SparsityPushesValuesDown) {
  workload::DatasetSpec dense, sparse;
  dense.n = sparse.n = 2000;
  dense.dim = sparse.dim = 16;
  dense.sparsity = 0.0;
  sparse.sparsity = 0.6;
  sparse.seed = dense.seed = 9;
  Dataset dd = workload::GenerateClustered(dense);
  Dataset ds = workload::GenerateClustered(sparse);
  double sum_d = 0, sum_s = 0;
  for (size_t i = 0; i < 2000; ++i) {
    for (size_t j = 0; j < 16; ++j) {
      sum_d += dd.point(static_cast<PointId>(i))[j];
      sum_s += ds.point(static_cast<PointId>(i))[j];
    }
  }
  EXPECT_LT(sum_s, sum_d * 0.7);
}

TEST(GeneratorTest, ClusteredDataHasNearNeighbors) {
  // In clustered data, the mean NN distance is far below the mean pairwise
  // distance (this is what makes LSH effective).
  workload::DatasetSpec spec;
  spec.n = 1000;
  spec.dim = 16;
  spec.clusters = 8;
  Dataset d = workload::GenerateClustered(spec);
  Rng rng(3);
  double nn_sum = 0, pair_sum = 0;
  for (int t = 0; t < 30; ++t) {
    const PointId a = static_cast<PointId>(rng.Uniform(d.size()));
    double best = 1e18;
    for (size_t i = 0; i < d.size(); ++i) {
      if (i == a) continue;
      best = std::min(best, L2(d.point(a), d.point(static_cast<PointId>(i))));
    }
    nn_sum += best;
    const PointId b = static_cast<PointId>(rng.Uniform(d.size()));
    pair_sum += L2(d.point(a), d.point(b));
  }
  EXPECT_LT(nn_sum, pair_sum * 0.6);
}

// ------------------------------------------------------------- query log --

TEST(QueryLogTest, ShapesMatchSpec) {
  workload::DatasetSpec dspec;
  dspec.n = 500;
  dspec.dim = 8;
  Dataset d = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 50;
  qspec.workload_size = 300;
  qspec.test_size = 20;
  auto log = workload::GenerateQueryLog(d, qspec);
  EXPECT_EQ(log.workload.size(), 300u);
  EXPECT_EQ(log.test.size(), 20u);
  for (const auto& q : log.workload) EXPECT_EQ(q.size(), 8u);
}

TEST(QueryLogTest, RepeatsExhibitTemporalLocality) {
  workload::DatasetSpec dspec;
  dspec.n = 500;
  dspec.dim = 8;
  Dataset d = workload::GenerateClustered(dspec);
  workload::QueryLogSpec qspec;
  qspec.pool_size = 50;
  qspec.workload_size = 1000;
  qspec.zipf_s = 1.0;
  auto log = workload::GenerateQueryLog(d, qspec);

  // Count distinct queries: Zipf skew means far fewer distinct than draws,
  // and the most popular query must repeat a lot.
  std::map<std::vector<Scalar>, int> counts;
  for (const auto& q : log.workload) counts[q]++;
  EXPECT_LE(counts.size(), 50u);
  int max_count = 0;
  for (const auto& [_, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 50) << "head query should dominate (power law)";
}

TEST(RegistryTest, SpecsScaleInPaperOrder) {
  auto specs = workload::AllSpecs();
  ASSERT_EQ(specs.size(), 3u);
  const size_t nusw = specs[0].n * specs[0].dim;
  const size_t imgnet = specs[1].n * specs[1].dim;
  const size_t sogou = specs[2].n * specs[2].dim;
  EXPECT_LT(nusw, imgnet);
  EXPECT_LT(imgnet, sogou);
  EXPECT_EQ(specs[2].dim, 128u) << "SOGOU surrogate is the high-dim one";
}

TEST(RegistryTest, DefaultCacheIsScaledFractionOfFile) {
  auto spec = workload::NuswSimSpec();
  const size_t cs = workload::DefaultCacheBytes(spec);
  const size_t file = spec.n * spec.dim * sizeof(float);
  EXPECT_NEAR(static_cast<double>(cs) / file, 0.10, 0.01);
}

// ------------------------------------------------------ workload analysis --

TEST(WorkloadAnalysisTest, FrequenciesAndQr) {
  workload::DatasetSpec dspec;
  dspec.n = 3000;
  dspec.dim = 16;
  Dataset d = workload::GenerateClustered(dspec);
  index::C2LshOptions lo;
  lo.num_functions = 16;
  lo.collision_threshold = 8;
  lo.beta_candidates = 100;
  std::unique_ptr<index::C2Lsh> lsh;
  ASSERT_TRUE(index::C2Lsh::Build(d, lo, &lsh).ok());

  workload::QueryLogSpec qspec;
  qspec.pool_size = 20;
  qspec.workload_size = 100;
  auto log = workload::GenerateQueryLog(d, qspec);

  core::WorkloadStats wl;
  ASSERT_TRUE(
      core::AnalyzeWorkload(lsh.get(), d, log.workload, 10, &wl).ok());

  // QR collects exactly k entries per query.
  EXPECT_EQ(wl.qr_points.size(), 100u * 10u);
  // Frequencies sorted descending.
  for (size_t i = 1; i < wl.ids_by_freq.size(); ++i) {
    EXPECT_GE(wl.freq[wl.ids_by_freq[i - 1]], wl.freq[wl.ids_by_freq[i]]);
  }
  // Total frequency equals total candidates reported.
  double total = 0;
  for (double f : wl.freq) total += f;
  EXPECT_NEAR(total, wl.avg_candidates * 100.0, 1e-6);
  EXPECT_GT(wl.dmax, 0.0);
  EXPECT_GE(wl.dmax, wl.avg_knn_dist);
}

TEST(WorkloadAnalysisTest, TreeWorkloadCountsLeaves) {
  workload::DatasetSpec dspec;
  dspec.n = 2000;
  dspec.dim = 16;
  Dataset d = workload::GenerateClustered(dspec);
  ScopedTempDir tmp("eeb_wl_tree");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.File("idist");
  index::IDistanceOptions opt;
  opt.num_partitions = 8;
  std::unique_ptr<index::IDistance> idx;
  ASSERT_TRUE(
      index::IDistance::Build(storage::Env::Default(), path, d, opt, &idx)
          .ok());

  workload::QueryLogSpec qspec;
  qspec.pool_size = 10;
  qspec.workload_size = 50;
  auto log = workload::GenerateQueryLog(d, qspec);

  core::LeafWorkloadStats stats;
  auto search = [&](std::span<const Scalar> q, size_t k,
                    index::TreeSearchResult* out) {
    return idx->Search(q, k, nullptr, out);
  };
  ASSERT_TRUE(core::AnalyzeTreeWorkload(search, idx->num_leaves(),
                                        log.workload, 10, &stats)
                  .ok());
  double total = 0;
  for (double f : stats.leaf_freq) total += f;
  EXPECT_GT(total, 0.0);
  EXPECT_EQ(stats.qr_points.size(), 50u * 10u);
  // Hottest leaf first.
  EXPECT_GE(stats.leaf_freq[stats.leaves_by_freq[0]],
            stats.leaf_freq[stats.leaves_by_freq.back()]);
}

}  // namespace
}  // namespace eeb
