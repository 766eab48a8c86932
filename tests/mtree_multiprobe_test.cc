// Tests for the M-tree(-family ball tree) and Multi-Probe LSH.

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "common/dataset.h"
#include "common/random.h"
#include "cache/node_cache.h"
#include "hist/builders.h"
#include "index/linear_scan.h"
#include "index/lsh/e2lsh.h"
#include "index/lsh/multiprobe.h"
#include "index/mtree/mtree.h"
#include "workload/generator.h"
#include "scoped_temp_dir.h"

namespace eeb::index {
namespace {

Dataset MakeData(size_t n, uint64_t seed) {
  workload::DatasetSpec spec;
  spec.n = n;
  spec.dim = 16;
  spec.ndom = 256;
  spec.clusters = 8;
  spec.cluster_stddev = 30.0;
  spec.sub_stddev = 5.0;
  spec.intrinsic_dim = 6;
  spec.seed = seed;
  return workload::GenerateClustered(spec);
}

std::vector<Scalar> NearQuery(const Dataset& data, Rng& rng) {
  const PointId src = static_cast<PointId>(rng.Uniform(data.size()));
  std::vector<Scalar> q(data.point(src).begin(), data.point(src).end());
  for (auto& v : q) v += static_cast<Scalar>(rng.NextGaussian() * 2);
  return q;
}

bool SameIds(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  std::set<PointId> sa, sb;
  for (const auto& x : a) sa.insert(x.id);
  for (const auto& x : b) sb.insert(x.id);
  return sa == sb;
}

// ------------------------------------------------------------------ M-tree --

class MTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = MakeData(3000, 31);
    ASSERT_TRUE(tmp_.ok());
    ASSERT_TRUE(MTree::Build(storage::Env::Default(), tmp_.File("mtree"),
                             data_, {}, &idx_)
                    .ok());
  }

  Dataset data_;
  ScopedTempDir tmp_{"eeb_mtree"};
  std::unique_ptr<MTree> idx_;
};

TEST_F(MTreeTest, EveryPointInExactlyOneLeaf) {
  std::vector<int> count(data_.size(), 0);
  for (const auto& leaf : idx_->store().leaf_points()) {
    for (PointId id : leaf) count[id]++;
  }
  for (size_t i = 0; i < count.size(); ++i) EXPECT_EQ(count[i], 1);
}

TEST_F(MTreeTest, ExactWithoutCache) {
  Rng rng(37);
  for (int t = 0; t < 12; ++t) {
    auto q = NearQuery(data_, rng);
    TreeSearchResult res;
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &res).ok());
    EXPECT_TRUE(SameIds(res.neighbors, LinearScanKnn(data_, q, 10)));
  }
}

TEST_F(MTreeTest, LeafLowerBoundsAreValid) {
  Rng rng(41);
  auto q = NearQuery(data_, rng);
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

TEST_F(MTreeTest, PrunesMostLeavesOnStructuredData) {
  Rng rng(43);
  auto q = NearQuery(data_, rng);
  TreeSearchResult res;
  ASSERT_TRUE(idx_->Search(q, 10, nullptr, &res).ok());
  EXPECT_LT(res.leaves_fetched, idx_->num_leaves() / 2);
}

TEST_F(MTreeTest, ApproxNodeCachePreservesResultsAndSavesFetches) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 64, &h).ok());
  cache::ApproxNodeCache cache(&h, 16, 1 << 22, /*integral=*/true);
  std::vector<uint32_t> order(idx_->num_leaves());
  std::iota(order.begin(), order.end(), 0u);
  ASSERT_TRUE(cache.Fill(data_, idx_->store().leaf_points(), order).ok());

  Rng rng(47);
  uint64_t cached = 0, plain = 0;
  for (int t = 0; t < 12; ++t) {
    auto q = NearQuery(data_, rng);
    TreeSearchResult a, b;
    ASSERT_TRUE(idx_->Search(q, 10, &cache, &a).ok());
    ASSERT_TRUE(idx_->Search(q, 10, nullptr, &b).ok());
    EXPECT_TRUE(SameIds(a.neighbors, b.neighbors));
    cached += a.leaves_fetched;
    plain += b.leaves_fetched;
  }
  EXPECT_LE(cached, plain);
}

// ---------------------------------------------------------- Multi-Probe --

TEST(MultiProbeTest, RejectsBadOptions) {
  Dataset data = MakeData(100, 3);
  std::unique_ptr<MultiProbeLsh> idx;
  MultiProbeOptions o;
  o.num_tables = 0;
  EXPECT_TRUE(MultiProbeLsh::Build(data, o, &idx).IsInvalidArgument());
}

TEST(MultiProbeTest, DeterministicSortedUnique) {
  Dataset data = MakeData(2000, 5);
  std::unique_ptr<MultiProbeLsh> a, b;
  ASSERT_TRUE(MultiProbeLsh::Build(data, {}, &a).ok());
  ASSERT_TRUE(MultiProbeLsh::Build(data, {}, &b).ok());
  std::vector<Scalar> q(16, 128);
  std::vector<PointId> ca, cb;
  ASSERT_TRUE(a->Candidates(q, 10, &ca, nullptr).ok());
  ASSERT_TRUE(b->Candidates(q, 10, &cb, nullptr).ok());
  EXPECT_EQ(ca, cb);
  EXPECT_TRUE(std::is_sorted(ca.begin(), ca.end()));
  EXPECT_EQ(std::set<PointId>(ca.begin(), ca.end()).size(), ca.size());
}

TEST(MultiProbeTest, MoreProbesMoreCandidates) {
  Dataset data = MakeData(4000, 7);
  std::unique_ptr<MultiProbeLsh> few, many;
  MultiProbeOptions lo, hi;
  lo.probes_per_table = 0;
  hi.probes_per_table = 8;
  ASSERT_TRUE(MultiProbeLsh::Build(data, lo, &few).ok());
  ASSERT_TRUE(MultiProbeLsh::Build(data, hi, &many).ok());
  Rng rng(9);
  size_t few_total = 0, many_total = 0;
  for (int t = 0; t < 10; ++t) {
    auto q = NearQuery(data, rng);
    std::vector<PointId> cf, cm;
    ASSERT_TRUE(few->Candidates(q, 10, &cf, nullptr).ok());
    ASSERT_TRUE(many->Candidates(q, 10, &cm, nullptr).ok());
    few_total += cf.size();
    many_total += cm.size();
  }
  EXPECT_GT(many_total, few_total);
}

TEST(MultiProbeTest, MatchesE2LshRecallWithFewerTables) {
  // The multi-probe pitch: similar recall from fewer tables.
  Dataset data = MakeData(5000, 11);
  std::unique_ptr<MultiProbeLsh> mp;
  MultiProbeOptions mo;
  mo.num_tables = 4;
  mo.probes_per_table = 8;
  ASSERT_TRUE(MultiProbeLsh::Build(data, mo, &mp).ok());
  std::unique_ptr<E2Lsh> e2;
  E2LshOptions eo;
  eo.num_tables = 4;  // same table budget, no probing
  ASSERT_TRUE(E2Lsh::Build(data, eo, &e2).ok());

  Rng rng(13);
  double recall_mp = 0, recall_e2 = 0;
  const size_t k = 10;
  for (int t = 0; t < 20; ++t) {
    auto q = NearQuery(data, rng);
    std::vector<PointId> cm, ce;
    ASSERT_TRUE(mp->Candidates(q, k, &cm, nullptr).ok());
    ASSERT_TRUE(e2->Candidates(q, k, &ce, nullptr).ok());
    std::set<PointId> sm(cm.begin(), cm.end()), se(ce.begin(), ce.end());
    for (const auto& nb : LinearScanKnn(data, q, k)) {
      recall_mp += sm.count(nb.id) ? 1 : 0;
      recall_e2 += se.count(nb.id) ? 1 : 0;
    }
  }
  EXPECT_GE(recall_mp, recall_e2)
      << "probing should not lose recall at equal table count";
}

TEST(MultiProbeTest, ChargesOneProbePerBucket) {
  Dataset data = MakeData(1000, 17);
  std::unique_ptr<MultiProbeLsh> idx;
  MultiProbeOptions o;
  o.num_tables = 3;
  o.probes_per_table = 5;
  ASSERT_TRUE(MultiProbeLsh::Build(data, o, &idx).ok());
  std::vector<Scalar> q(16, 100);
  std::vector<PointId> cand;
  storage::IoStats stats;
  ASSERT_TRUE(idx->Candidates(q, 10, &cand, &stats).ok());
  EXPECT_EQ(stats.page_reads, 3u * 6u);  // base + 5 probes per table
}

}  // namespace
}  // namespace eeb::index
