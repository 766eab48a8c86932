// Tests for the tree-index substrate: LeafStore, the generic cache-aware
// TreeKnnSearch, iDistance and VP-tree exactness (with and without node
// caches), lower-bound validity, and I/O reduction from approximate caching.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/dataset.h"
#include "common/distance.h"
#include "common/random.h"
#include "common/scoped_temp_dir.h"
#include "cache/node_cache.h"
#include "hist/builders.h"
#include "index/idistance/idistance.h"
#include "index/linear_scan.h"
#include "index/tree_common.h"
#include "index/vptree/vptree.h"

namespace eeb::index {
namespace {

// Every case's files live in one directory private to this process.
std::string TempPath(const std::string& name) {
  static const ScopedTempDir dir("eeb_tree");
  EXPECT_TRUE(dir.ok()) << "could not create a temp directory";
  return dir.File(name);
}

Dataset ClusteredData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  const int clusters = 6;
  std::vector<std::vector<double>> centers(clusters,
                                           std::vector<double>(dim));
  for (auto& c : centers) {
    for (auto& v : c) v = 40 + rng.NextDouble() * 176;
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& c = centers[rng.Uniform(clusters)];
    for (size_t j = 0; j < dim; ++j) {
      double v = c[j] + rng.NextGaussian() * 12;
      p[j] = static_cast<Scalar>(std::max(0.0, std::min(255.0, v)));
    }
    d.Append(p);
  }
  return d;
}

std::vector<Scalar> RandomQuery(const Dataset& data, Rng& rng) {
  const PointId src = static_cast<PointId>(rng.Uniform(data.size()));
  std::vector<Scalar> q(data.point(src).begin(), data.point(src).end());
  for (auto& v : q) v += static_cast<Scalar>(rng.NextGaussian() * 3);
  return q;
}

bool SameIds(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  std::set<PointId> sa, sb;
  for (const auto& x : a) sa.insert(x.id);
  for (const auto& x : b) sb.insert(x.id);
  return sa == sb;
}

// -------------------------------------------------------------- LeafStore --

TEST(LeafStoreTest, FetchReturnsMembers) {
  Dataset data = ClusteredData(100, 8, 1);
  std::vector<std::vector<PointId>> leaves;
  for (int l = 0; l < 10; ++l) {
    std::vector<PointId> ids;
    for (int i = 0; i < 10; ++i) ids.push_back(l * 10 + i);
    leaves.push_back(ids);
  }
  std::unique_ptr<LeafStore> store;
  const std::string path = TempPath("leafstore");
  ASSERT_TRUE(LeafStore::Create(storage::Env::Default(), path, data,
                                std::move(leaves), &store)
                  .ok());
  ASSERT_EQ(store->num_leaves(), 10u);

  storage::IoStats stats;
  storage::PageTracker tracker;
  std::set<PointId> seen;
  ASSERT_TRUE(store
                  ->FetchLeaf(
                      3,
                      [&](PointId id, std::span<const Scalar> p) {
                        seen.insert(id);
                        EXPECT_EQ(p[0], data.point(id)[0]);
                      },
                      &stats, &tracker)
                  .ok());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 30u);
  // 10 points * 32 bytes fit one page; leaf is page-aligned.
  EXPECT_EQ(stats.page_reads, 1u);
  storage::Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(LeafStoreTest, LeavesArePageDisjoint) {
  Dataset data = ClusteredData(64, 8, 3);
  // Two leaves of 3 points each, rest in a big leaf: each must start on a
  // fresh page, so fetching leaf 0 and leaf 1 touches different pages.
  std::vector<std::vector<PointId>> leaves{{0, 1, 2}, {3, 4, 5}};
  std::vector<PointId> rest;
  for (PointId id = 6; id < 64; ++id) rest.push_back(id);
  leaves.push_back(rest);
  std::unique_ptr<LeafStore> store;
  const std::string path = TempPath("disjoint");
  ASSERT_TRUE(LeafStore::Create(storage::Env::Default(), path, data,
                                std::move(leaves), &store)
                  .ok());
  storage::IoStats stats;
  storage::PageTracker tracker;
  auto noop = [](PointId, std::span<const Scalar>) {};
  ASSERT_TRUE(store->FetchLeaf(0, noop, &stats, &tracker).ok());
  ASSERT_TRUE(store->FetchLeaf(1, noop, &stats, &tracker).ok());
  EXPECT_EQ(stats.page_reads, 2u) << "leaves must not share pages";
  storage::Env::Default()->DeleteFile(path).IgnoreError();
}

// -------------------------------------------------------------- iDistance --

class IDistanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = ClusteredData(3000, 16, 7);
    path_ = TempPath("idist");
    IDistanceOptions opt;
    opt.num_partitions = 16;
    ASSERT_TRUE(
        IDistance::Build(storage::Env::Default(), path_, data_, opt, &idx_)
            .ok());
  }
  void TearDown() override {
    storage::Env::Default()->DeleteFile(path_).IgnoreError();
  }

  Dataset data_;
  std::string path_;
  std::unique_ptr<IDistance> idx_;
};

TEST_F(IDistanceTest, ExactWithoutCache) {
  Rng rng(11);
  for (int t = 0; t < 15; ++t) {
    auto q = RandomQuery(data_, rng);
    TreeSearchResult res;
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &res).ok());
    auto truth = LinearScanKnn(data_, q, 10);
    EXPECT_TRUE(SameIds(res.neighbors, truth)) << "query " << t;
  }
}

TEST_F(IDistanceTest, LeafLowerBoundsAreValid) {
  Rng rng(13);
  auto q = RandomQuery(data_, rng);
  std::vector<double> lb;
  idx_->LeafLowerBounds(q, &lb);
  ASSERT_EQ(lb.size(), idx_->num_leaves());
  // Every point's true distance respects its leaf's lower bound.
  const auto& leaves = idx_->store().leaf_points();
  for (size_t l = 0; l < leaves.size(); ++l) {
    for (PointId id : leaves[l]) {
      EXPECT_GE(L2(std::span<const Scalar>(q), data_.point(id)),
                lb[l] - 1e-6);
    }
  }
}

TEST_F(IDistanceTest, PrunesMostLeaves) {
  Rng rng(17);
  auto q = RandomQuery(data_, rng);
  TreeSearchResult res;
  ASSERT_TRUE(idx_->Search(q, 10, nullptr, &res).ok());
  EXPECT_LT(res.leaves_fetched, idx_->num_leaves() / 2)
      << "metric pruning should skip most leaves";
}

TEST_F(IDistanceTest, ExactWithApproxNodeCache) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 64, &h).ok());
  cache::ApproxNodeCache cache(&h, 16, 1 << 22);
  std::vector<uint32_t> order(idx_->num_leaves());
  std::iota(order.begin(), order.end(), 0u);
  ASSERT_TRUE(
      cache.Fill(data_, idx_->store().leaf_points(), order).ok());

  Rng rng(19);
  for (int t = 0; t < 15; ++t) {
    auto q = RandomQuery(data_, rng);
    TreeSearchResult with_cache, without;
    ASSERT_TRUE(idx_->Search(q, 10, &cache, &with_cache).ok());
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &without).ok());
    EXPECT_TRUE(SameIds(with_cache.neighbors, without.neighbors));
    EXPECT_LE(with_cache.leaves_fetched, without.leaves_fetched);
  }
}

TEST_F(IDistanceTest, ExactWithExactNodeCache) {
  cache::ExactNodeCache cache(1 << 22);
  std::vector<uint32_t> order(idx_->num_leaves());
  std::iota(order.begin(), order.end(), 0u);
  ASSERT_TRUE(
      cache.Fill(data_, idx_->store().leaf_points(), order).ok());

  Rng rng(23);
  for (int t = 0; t < 10; ++t) {
    auto q = RandomQuery(data_, rng);
    TreeSearchResult with_cache, without;
    ASSERT_TRUE(idx_->Search(q, 10, &cache, &with_cache).ok());
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &without).ok());
    EXPECT_TRUE(SameIds(with_cache.neighbors, without.neighbors));
  }
}

// ---------------------------------------------------------------- VP-tree --

class VpTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = ClusteredData(3000, 16, 29);
    path_ = TempPath("vptree");
    ASSERT_TRUE(VpTree::Build(storage::Env::Default(), path_, data_, {},
                              &idx_)
                    .ok());
  }
  void TearDown() override {
    storage::Env::Default()->DeleteFile(path_).IgnoreError();
  }

  Dataset data_;
  std::string path_;
  std::unique_ptr<VpTree> idx_;
};

TEST_F(VpTreeTest, AllPointsInExactlyOneLeaf) {
  std::vector<int> count(data_.size(), 0);
  for (const auto& leaf : idx_->store().leaf_points()) {
    for (PointId id : leaf) count[id]++;
  }
  for (size_t i = 0; i < count.size(); ++i) {
    EXPECT_EQ(count[i], 1) << "point " << i;
  }
}

TEST_F(VpTreeTest, ExactWithoutCache) {
  Rng rng(31);
  for (int t = 0; t < 15; ++t) {
    auto q = RandomQuery(data_, rng);
    TreeSearchResult res;
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &res).ok());
    auto truth = LinearScanKnn(data_, q, 10);
    EXPECT_TRUE(SameIds(res.neighbors, truth)) << "query " << t;
  }
}

TEST_F(VpTreeTest, LeafLowerBoundsAreValid) {
  Rng rng(37);
  auto q = RandomQuery(data_, rng);
  std::vector<double> lb;
  idx_->LeafLowerBounds(q, &lb);
  const auto& leaves = idx_->store().leaf_points();
  for (size_t l = 0; l < leaves.size(); ++l) {
    for (PointId id : leaves[l]) {
      EXPECT_GE(L2(std::span<const Scalar>(q), data_.point(id)),
                lb[l] - 1e-6);
    }
  }
}

TEST_F(VpTreeTest, ExactWithApproxNodeCacheAndFewerFetches) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 64, &h).ok());
  cache::ApproxNodeCache cache(&h, 16, 1 << 22);
  std::vector<uint32_t> order(idx_->num_leaves());
  std::iota(order.begin(), order.end(), 0u);
  ASSERT_TRUE(
      cache.Fill(data_, idx_->store().leaf_points(), order).ok());

  Rng rng(41);
  uint64_t fetched_cached = 0, fetched_plain = 0;
  for (int t = 0; t < 15; ++t) {
    auto q = RandomQuery(data_, rng);
    TreeSearchResult with_cache, without;
    ASSERT_TRUE(idx_->Search(q, 10, &cache, &with_cache).ok());
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &without).ok());
    EXPECT_TRUE(SameIds(with_cache.neighbors, without.neighbors));
    fetched_cached += with_cache.leaves_fetched;
    fetched_plain += without.leaves_fetched;
  }
  EXPECT_LT(fetched_cached, fetched_plain)
      << "approximate node cache should avoid some leaf fetches";
}

TEST_F(VpTreeTest, K1AndLargeK) {
  Rng rng(43);
  auto q = RandomQuery(data_, rng);
  TreeSearchResult res;
  ASSERT_TRUE(idx_->Search(q, 1, nullptr, &res).ok());
  auto truth = LinearScanKnn(data_, q, 1);
  EXPECT_TRUE(SameIds(res.neighbors, truth));

  ASSERT_TRUE(idx_->Search(q, 100, nullptr, &res).ok());
  truth = LinearScanKnn(data_, q, 100);
  EXPECT_TRUE(SameIds(res.neighbors, truth));
}

// Generic TreeKnnSearch sanity: rejects a bad bounds vector.
TEST(TreeSearchTest, RejectsWrongBoundsSize) {
  Dataset data = ClusteredData(50, 8, 47);
  std::vector<std::vector<PointId>> leaves{{}};
  for (PointId id = 0; id < 50; ++id) leaves[0].push_back(id);
  std::unique_ptr<LeafStore> store;
  const std::string path = TempPath("badlb");
  ASSERT_TRUE(LeafStore::Create(storage::Env::Default(), path, data,
                                std::move(leaves), &store)
                  .ok());
  std::vector<double> lb(3, 0.0);
  std::vector<Scalar> q(8, 0);
  TreeSearchResult res;
  EXPECT_TRUE(
      TreeKnnSearch(*store, lb, q, 5, nullptr, &res).IsInvalidArgument());
  storage::Env::Default()->DeleteFile(path).IgnoreError();
}

}  // namespace
}  // namespace eeb::index
