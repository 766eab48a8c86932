// Tests for Algorithm 1 (KnnEngine): the central correctness property —
// caching never changes query results — plus phase accounting invariants
// and the multi-step early-stop.

#include <gtest/gtest.h>

#include <set>

#include "common/dataset.h"
#include "common/random.h"
#include "cache/code_cache.h"
#include "cache/exact_cache.h"
#include "core/knn_engine.h"
#include "hist/builders.h"
#include "index/lsh/c2lsh.h"
#include "storage/env.h"
#include "scoped_temp_dir.h"

namespace eeb::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(71);
    data_ = Dataset(16);
    std::vector<Scalar> p(16);
    const int clusters = 6;
    std::vector<std::vector<double>> centers(clusters,
                                             std::vector<double>(16));
    for (auto& c : centers) {
      for (auto& v : c) v = 40 + rng.NextDouble() * 176;
    }
    for (size_t i = 0; i < 4000; ++i) {
      const auto& c = centers[rng.Uniform(clusters)];
      for (size_t j = 0; j < 16; ++j) {
        p[j] = static_cast<Scalar>(static_cast<int>(
            std::max(0.0, std::min(255.0, c[j] + rng.NextGaussian() * 10))));
      }
      data_.Append(p);
    }

    ASSERT_TRUE(tmp_.ok());
    path_ = tmp_.File("pf");
    ASSERT_TRUE(
        storage::PointFile::Create(storage::Env::Default(), path_, data_)
            .ok());
    ASSERT_TRUE(
        storage::PointFile::Open(storage::Env::Default(), path_, &points_)
            .ok());

    index::C2LshOptions lo;
    lo.num_functions = 16;
    lo.collision_threshold = 8;
    lo.beta_candidates = 150;
    ASSERT_TRUE(index::C2Lsh::Build(data_, lo, &lsh_).ok());

    for (int i = 0; i < 20; ++i) {
      std::vector<Scalar> q(16);
      const PointId src = static_cast<PointId>(rng.Uniform(data_.size()));
      auto sp = data_.point(src);
      for (size_t j = 0; j < 16; ++j) {
        q[j] = static_cast<Scalar>(std::max(
            0.0, std::min(255.0, sp[j] + rng.NextGaussian() * 3)));
      }
      queries_.push_back(q);
    }
  }

  std::vector<PointId> AllIds() const {
    std::vector<PointId> ids(data_.size());
    for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
    return ids;
  }

  Dataset data_;
  ScopedTempDir tmp_{"eeb_engine"};
  std::string path_;
  std::unique_ptr<storage::PointFile> points_;
  std::unique_ptr<index::C2Lsh> lsh_;
  std::vector<std::vector<Scalar>> queries_;
};

TEST_F(EngineTest, NoCacheBaselineFetchesForRefinement) {
  KnnEngine engine(lsh_.get(), points_.get(), nullptr);
  QueryResult r;
  ASSERT_TRUE(engine.Query(queries_[0], 10, &r).ok());
  EXPECT_EQ(r.result_ids.size(), 10u);
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_EQ(r.pruned, 0u);
  EXPECT_GT(r.refine_io.point_reads, 0u);
  EXPECT_EQ(r.remaining, r.candidates);
}

TEST_F(EngineTest, ExactCacheGivesSameResults) {
  KnnEngine plain(lsh_.get(), points_.get(), nullptr);
  cache::ExactCache cache(16, 1 << 22);
  ASSERT_TRUE(cache.Fill(data_, AllIds()).ok());
  KnnEngine cached(lsh_.get(), points_.get(), &cache);

  for (const auto& q : queries_) {
    QueryResult a, b;
    ASSERT_TRUE(plain.Query(q, 10, &a).ok());
    ASSERT_TRUE(cached.Query(q, 10, &b).ok());
    EXPECT_EQ(a.result_ids, b.result_ids);
    EXPECT_LE(b.refine_io.point_reads, a.refine_io.point_reads);
  }
}

TEST_F(EngineTest, CodeCacheGivesSameResultsAcrossTau) {
  KnnEngine plain(lsh_.get(), points_.get(), nullptr);
  for (uint32_t tau : {1u, 2u, 4u, 6u, 8u}) {
    hist::Histogram h;
    ASSERT_TRUE(hist::BuildEquiWidth(256, 1u << tau, &h).ok());
    // Both interval semantics must preserve results on integral data.
    for (bool integral : {false, true}) {
      cache::HistCodeCache cache(&h, 16, 1 << 22, false, integral);
      ASSERT_TRUE(cache.Fill(data_, AllIds()).ok());
      KnnEngine cached(lsh_.get(), points_.get(), &cache);
      for (const auto& q : queries_) {
        QueryResult a, b;
        ASSERT_TRUE(plain.Query(q, 10, &a).ok());
        ASSERT_TRUE(cached.Query(q, 10, &b).ok());
        EXPECT_EQ(a.result_ids, b.result_ids)
            << "tau=" << tau << " integral=" << integral;
      }
    }
  }
}

TEST_F(EngineTest, PhaseCountsAreConsistent) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 64, &h).ok());
  cache::HistCodeCache cache(&h, 16, 1 << 22);
  ASSERT_TRUE(cache.Fill(data_, AllIds()).ok());
  KnnEngine engine(lsh_.get(), points_.get(), &cache);

  for (const auto& q : queries_) {
    QueryResult r;
    ASSERT_TRUE(engine.Query(q, 10, &r).ok());
    EXPECT_EQ(r.pruned + r.true_hits + r.remaining, r.candidates);
    EXPECT_LE(r.fetched, r.remaining);
    EXPECT_EQ(r.cache_hits, r.candidates);  // everything cached here
    EXPECT_EQ(r.result_ids.size(), 10u);
  }
}

TEST_F(EngineTest, TighterCodesPruneMore) {
  uint64_t fetched_coarse = 0, fetched_fine = 0;
  for (uint32_t tau : {2u, 7u}) {
    hist::Histogram h;
    ASSERT_TRUE(hist::BuildEquiWidth(256, 1u << tau, &h).ok());
    cache::HistCodeCache cache(&h, 16, 1 << 24);
    ASSERT_TRUE(cache.Fill(data_, AllIds()).ok());
    KnnEngine engine(lsh_.get(), points_.get(), &cache);
    uint64_t fetched = 0;
    for (const auto& q : queries_) {
      QueryResult r;
      ASSERT_TRUE(engine.Query(q, 10, &r).ok());
      fetched += r.fetched;
    }
    (tau == 2 ? fetched_coarse : fetched_fine) = fetched;
  }
  EXPECT_LT(fetched_fine, fetched_coarse)
      << "tau=7 bounds must prune more candidates than tau=2";
}

TEST_F(EngineTest, TrueResultDetectionSavesFetches) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 256, &h).ok());  // singleton buckets
  cache::HistCodeCache cache(&h, 16, 1 << 24, false, /*integral=*/true);
  ASSERT_TRUE(cache.Fill(data_, AllIds()).ok());

  KnnEngine with(lsh_.get(), points_.get(), &cache,
                 EngineOptions{.true_result_detection = true});
  KnnEngine without(lsh_.get(), points_.get(), &cache,
                    EngineOptions{.true_result_detection = false});
  uint64_t fetched_with = 0, fetched_without = 0, sure = 0;
  for (const auto& q : queries_) {
    QueryResult a, b;
    ASSERT_TRUE(with.Query(q, 10, &a).ok());
    ASSERT_TRUE(without.Query(q, 10, &b).ok());
    EXPECT_EQ(a.result_ids, b.result_ids);
    fetched_with += a.fetched;
    fetched_without += b.fetched;
    sure += a.true_hits;
  }
  EXPECT_GT(sure, 0u) << "singleton buckets must detect sure results";
  EXPECT_LE(fetched_with, fetched_without);
}

TEST_F(EngineTest, LruCacheWarmsUpOnRepeats) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 64, &h).ok());
  cache::HistCodeCache cache(&h, 16, 1 << 20, /*lru=*/true);
  KnnEngine engine(lsh_.get(), points_.get(), &cache);

  QueryResult first, second;
  ASSERT_TRUE(engine.Query(queries_[0], 10, &first).ok());
  ASSERT_TRUE(engine.Query(queries_[0], 10, &second).ok());
  EXPECT_EQ(first.result_ids, second.result_ids);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(second.cache_hits, 0u) << "repeat query should hit the cache";
  EXPECT_LT(second.refine_io.point_reads, first.refine_io.point_reads);
}

TEST_F(EngineTest, KZeroRejected) {
  KnnEngine engine(lsh_.get(), points_.get(), nullptr);
  QueryResult r;
  EXPECT_TRUE(engine.Query(queries_[0], 0, &r).IsInvalidArgument());
}

TEST_F(EngineTest, SmallCandidateSetShortCircuits) {
  // With k larger than the candidate set every candidate is a result and no
  // fetch is needed.
  KnnEngine engine(lsh_.get(), points_.get(), nullptr);
  QueryResult r;
  ASSERT_TRUE(engine.Query(queries_[0], 100000, &r).ok());
  EXPECT_EQ(r.result_ids.size(), r.candidates);
  EXPECT_EQ(r.refine_io.point_reads, 0u);
}

}  // namespace
}  // namespace eeb::core
