// Tests for the C2LSH index: option validation, determinism, candidate
// volume, recall against ground truth, radius growth, I/O accounting, and
// golden hashes that pin C(q) and the engine's results bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "common/dataset.h"
#include "common/random.h"
#include "core/knn_engine.h"
#include "index/linear_scan.h"
#include "index/lsh/c2lsh.h"
#include "storage/mem_env.h"
#include "storage/point_file.h"
#include "fnv1a.h"

namespace eeb::index {
namespace {

Dataset ClusteredData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  const int clusters = 8;
  std::vector<std::vector<double>> centers(clusters,
                                           std::vector<double>(dim));
  for (auto& c : centers) {
    for (auto& v : c) v = 40 + rng.NextDouble() * 176;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.Uniform(clusters)];
    for (size_t j = 0; j < dim; ++j) {
      double v = c[j] + rng.NextGaussian() * 10;
      if (v < 0) v = 0;
      if (v > 255) v = 255;
      p[j] = static_cast<Scalar>(static_cast<int>(v));
    }
    d.Append(p);
  }
  return d;
}

C2LshOptions DefaultOptions() {
  C2LshOptions o;
  o.num_functions = 16;
  o.collision_threshold = 8;
  o.beta_candidates = 100;
  o.seed = 5;
  return o;
}

TEST(C2LshTest, RejectsBadOptions) {
  Dataset data = ClusteredData(100, 8, 1);
  std::unique_ptr<C2Lsh> idx;
  C2LshOptions o = DefaultOptions();
  o.collision_threshold = 20;  // > m
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o = DefaultOptions();
  o.approximation_ratio = 1.5;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  EXPECT_TRUE(C2Lsh::Build(Dataset(8), DefaultOptions(), &idx)
                  .IsInvalidArgument());
  // Options under which every query would return an empty C(q): no hash
  // functions, a zero collision threshold, or more functions than the
  // 8-bit collision counters can count.
  o = DefaultOptions();
  o.num_functions = 0;
  o.collision_threshold = 0;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o = DefaultOptions();
  o.collision_threshold = 0;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o = DefaultOptions();
  o.num_functions = 300;
  o.collision_threshold = 280;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).IsInvalidArgument());
  o = DefaultOptions();
  o.num_functions = 255;
  o.collision_threshold = 255;
  EXPECT_TRUE(C2Lsh::Build(data, o, &idx).ok()) << "m = 255 still fits";
}

TEST(C2LshTest, ReportsEnoughCandidates) {
  Dataset data = ClusteredData(2000, 16, 3);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  Rng rng(7);
  std::vector<Scalar> q(16);
  for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(256));
  std::vector<PointId> cand;
  ASSERT_TRUE(idx->Candidates(q, 10, &cand, nullptr).ok());
  EXPECT_GE(cand.size(), 110u);  // k + beta
  EXPECT_LE(cand.size(), data.size());
  // Ids are unique and sorted.
  std::set<PointId> uniq(cand.begin(), cand.end());
  EXPECT_EQ(uniq.size(), cand.size());
  EXPECT_TRUE(std::is_sorted(cand.begin(), cand.end()));
}

TEST(C2LshTest, DeterministicAcrossRuns) {
  Dataset data = ClusteredData(1000, 16, 5);
  std::unique_ptr<C2Lsh> a, b;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &a).ok());
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &b).ok());
  std::vector<Scalar> q(16, 128);
  std::vector<PointId> ca, cb;
  ASSERT_TRUE(a->Candidates(q, 10, &ca, nullptr).ok());
  ASSERT_TRUE(b->Candidates(q, 10, &cb, nullptr).ok());
  EXPECT_EQ(ca, cb);
  // Repeated queries on the same index are also stable.
  std::vector<PointId> ca2;
  ASSERT_TRUE(a->Candidates(q, 10, &ca2, nullptr).ok());
  EXPECT_EQ(ca, ca2);
}

TEST(C2LshTest, RecallOnClusteredData) {
  // c-approximate guarantee cannot be asserted exactly, but on clustered
  // data most true neighbors must appear among the candidates.
  Dataset data = ClusteredData(5000, 16, 11);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  Rng rng(13);
  double recall_sum = 0;
  const int queries = 20;
  const size_t k = 10;
  for (int t = 0; t < queries; ++t) {
    // Query near a data point, as multimedia queries are.
    const PointId src = static_cast<PointId>(rng.Uniform(data.size()));
    std::vector<Scalar> q(data.point(src).begin(), data.point(src).end());
    for (auto& v : q) {
      v = static_cast<Scalar>(
          std::max(0.0, std::min(255.0, v + rng.NextGaussian() * 2)));
    }
    std::vector<PointId> cand;
    ASSERT_TRUE(idx->Candidates(q, k, &cand, nullptr).ok());
    std::set<PointId> cset(cand.begin(), cand.end());
    auto truth = LinearScanKnn(data, q, k);
    int found = 0;
    for (const auto& nb : truth) found += cset.count(nb.id) ? 1 : 0;
    recall_sum += static_cast<double>(found) / k;
  }
  EXPECT_GT(recall_sum / queries, 0.6) << "candidate recall too low";
}

TEST(C2LshTest, ChargesIndexIo) {
  Dataset data = ClusteredData(2000, 16, 17);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());
  std::vector<Scalar> q(16, 100);
  std::vector<PointId> cand;
  storage::IoStats stats;
  ASSERT_TRUE(idx->Candidates(q, 10, &cand, &stats).ok());
  EXPECT_GE(stats.page_reads, DefaultOptions().num_functions)
      << "at least one bucket lookup per hash function";
}

TEST(C2LshTest, RadiusGrowsWithScatteredQueries) {
  Dataset data = ClusteredData(2000, 16, 19);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());

  // A query at a data point terminates at a smaller radius than a far-away
  // query in empty space.
  std::vector<Scalar> near(data.point(0).begin(), data.point(0).end());
  std::vector<PointId> cand;
  ASSERT_TRUE(idx->Candidates(near, 10, &cand, nullptr).ok());
  const double r_near = idx->last_radius();

  std::vector<Scalar> far(16, 0);  // domain corner, far from all clusters
  ASSERT_TRUE(idx->Candidates(far, 10, &cand, nullptr).ok());
  const double r_far = idx->last_radius();
  EXPECT_GE(r_far, r_near);
}

TEST(C2LshTest, QueryDimMismatchRejected) {
  Dataset data = ClusteredData(100, 8, 23);
  std::unique_ptr<C2Lsh> idx;
  ASSERT_TRUE(C2Lsh::Build(data, DefaultOptions(), &idx).ok());
  std::vector<Scalar> q(4, 0);
  std::vector<PointId> cand;
  EXPECT_TRUE(idx->Candidates(q, 5, &cand, nullptr).IsInvalidArgument());
}

// Pins C(q), its modeled index I/O and the terminal radius for a fixed
// build and query set, plus the NO-CACHE engine's answers over them. Any
// layout or kernel change to C2LSH must leave both hashes unchanged: every
// paper figure depends on C(q).
TEST(C2LshTest, GoldenCandidateSets) {
  const size_t dim = 32;
  Dataset data = ClusteredData(20000, dim, 29);
  storage::MemEnv env;
  ASSERT_TRUE(storage::PointFile::Create(&env, "/golden", data).ok());
  std::unique_ptr<storage::PointFile> pf;
  ASSERT_TRUE(storage::PointFile::Open(&env, "/golden", &pf).ok());

  // 120 queries: even ones perturb a data point, odd ones are uniform.
  Rng rng(31);
  std::vector<std::vector<Scalar>> queries;
  for (int t = 0; t < 120; ++t) {
    std::vector<Scalar> q(dim);
    if (t % 2 == 0) {
      auto src = data.point(static_cast<PointId>(rng.Uniform(data.size())));
      for (size_t j = 0; j < dim; ++j) {
        q[j] = static_cast<Scalar>(std::max(
            0.0, std::min(255.0, src[j] + rng.NextGaussian() * 3)));
      }
    } else {
      for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(256));
    }
    queries.push_back(std::move(q));
  }
  const size_t ks[] = {1, 10, 100};

  Fnv1a cand_hash, result_hash;
  for (const C2LshOptions& o : {C2LshOptions{}, DefaultOptions()}) {
    std::unique_ptr<C2Lsh> idx;
    ASSERT_TRUE(C2Lsh::Build(data, o, &idx).ok());
    core::KnnEngine engine(idx.get(), pf.get(), nullptr);
    for (size_t t = 0; t < queries.size(); ++t) {
      const size_t k = ks[t % 3];
      std::vector<PointId> cand;
      storage::IoStats stats;
      ASSERT_TRUE(idx->Candidates(queries[t], k, &cand, &stats).ok());
      cand_hash.Add(cand.size());
      for (PointId id : cand) cand_hash.Add(id);
      cand_hash.Add(stats.page_reads);
      cand_hash.Add(stats.seq_page_reads);
      cand_hash.Add(stats.bytes_read);
      cand_hash.Add(std::bit_cast<uint64_t>(idx->last_radius()));

      core::QueryResult r;
      ASSERT_TRUE(engine.Query(queries[t], k, &r).ok());
      result_hash.Add(r.result_ids.size());
      for (PointId id : r.result_ids) result_hash.Add(id);
    }
  }
  EXPECT_EQ(cand_hash.value(), 0x4bcf00cddee52013ull)
      << std::hex << cand_hash.value();
  EXPECT_EQ(result_hash.value(), 0xcdf947dd7ebb4207ull)
      << std::hex << result_hash.value();
}

TEST(LinearScanTest, ExactOnTinyInput) {
  Dataset data(1);
  for (Scalar v : {5.f, 1.f, 9.f, 3.f}) {
    std::vector<Scalar> p{v};
    data.Append(p);
  }
  std::vector<Scalar> q{2};
  auto r = LinearScanKnn(data, q, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].id, 1u);  // value 1, dist 1
  EXPECT_EQ(r[1].id, 3u);  // value 3, dist 1 (tie, larger id)
}

}  // namespace
}  // namespace eeb::index
