// Tests for the cache module: code store packing, the recency order behind
// SlotCache's LRU policy, the exact / code / multi-dim / node caches,
// capacity accounting and policies.

#include <gtest/gtest.h>

#include <cmath>

#include "common/dataset.h"
#include "common/distance.h"
#include "common/random.h"
#include "cache/code_cache.h"
#include "cache/code_store.h"
#include "cache/exact_cache.h"
#include "cache/multidim_cache.h"
#include "cache/node_cache.h"
#include "cache/slot_cache.h"
#include "hist/builders.h"
#include "index/rtree/rtree_histogram.h"

namespace eeb::cache {
namespace {

Dataset RandomData(size_t n, size_t dim, uint32_t ndom, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(ndom));
    d.Append(p);
  }
  return d;
}

std::vector<PointId> Iota(size_t n) {
  std::vector<PointId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i);
  return ids;
}

// -------------------------------------------------------------- CodeStore --

TEST(CodeStoreTest, RoundTrip) {
  CodeStore store(10, 6);
  const uint32_t slot = store.AllocateSlot();
  std::vector<BucketId> in{1, 2, 3, 63, 0, 7, 33, 12, 5, 62};
  store.Write(slot, in);
  std::vector<BucketId> out(10);
  store.Read(slot, out);
  EXPECT_EQ(in, out);
}

TEST(CodeStoreTest, ItemBytesPacksWords) {
  // 64 dims * 10 bits = 640 bits = 10 words = 80 bytes.
  CodeStore store(64, 10);
  EXPECT_EQ(store.item_bytes(), 80u);
  // 2 dims * 2 bits = 4 bits -> 1 word.
  CodeStore tiny(2, 2);
  EXPECT_EQ(tiny.item_bytes(), 8u);
}

TEST(CodeStoreTest, OverwriteSlot) {
  CodeStore store(4, 8);
  const uint32_t slot = store.AllocateSlot();
  std::vector<BucketId> a{255, 0, 128, 7}, b{1, 2, 3, 4}, out(4);
  store.Write(slot, a);
  store.Write(slot, b);
  store.Read(slot, out);
  EXPECT_EQ(out, b);
}

TEST(CodeStoreTest, Property_ManySlotsRandomCodes) {
  Rng rng(91);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t dims = 1 + rng.Uniform(40);
    const uint32_t tau = 1 + static_cast<uint32_t>(rng.Uniform(16));
    CodeStore store(dims, tau);
    const uint64_t mask = (uint64_t{1} << tau) - 1;
    std::vector<std::vector<BucketId>> expect;
    for (int s = 0; s < 20; ++s) {
      std::vector<BucketId> codes(dims);
      for (auto& c : codes) c = static_cast<BucketId>(rng.Next() & mask);
      const uint32_t slot = store.AllocateSlot();
      store.Write(slot, codes);
      expect.push_back(codes);
      EXPECT_EQ(slot, static_cast<uint32_t>(s));
    }
    std::vector<BucketId> out(dims);
    for (size_t s = 0; s < expect.size(); ++s) {
      store.Read(static_cast<uint32_t>(s), out);
      EXPECT_EQ(out, expect[s]);
    }
  }
}

// ------------------------------------------------------------- LruTracker --

TEST(LruTrackerTest, EvictsLeastRecent) {
  LruTracker lru;
  lru.Insert(1);
  lru.Insert(2);
  lru.Insert(3);
  lru.Touch(1);          // order (MRU->LRU): 1, 3, 2
  EXPECT_EQ(lru.EvictBack(), 2u);
  EXPECT_EQ(lru.EvictBack(), 3u);
  EXPECT_EQ(lru.EvictBack(), 1u);
}

// ------------------------------------------------------------- ExactCache --

TEST(ExactCacheTest, HitReturnsExactDistance) {
  Dataset data = RandomData(20, 8, 256, 7);
  ExactCache cache(8, /*capacity=*/20 * 8 * sizeof(Scalar));
  ASSERT_TRUE(cache.Fill(data, Iota(20)).ok());
  EXPECT_EQ(cache.size(), 20u);

  std::vector<Scalar> q(8, 100);
  double lb, ub;
  ASSERT_TRUE(cache.Probe(q, 7, &lb, &ub));
  const double d = L2(std::span<const Scalar>(q), data.point(7));
  EXPECT_DOUBLE_EQ(lb, d);
  EXPECT_DOUBLE_EQ(ub, d);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ExactCacheTest, CapacityLimitsFill) {
  Dataset data = RandomData(100, 8, 256, 11);
  const size_t item = 8 * sizeof(Scalar);
  ExactCache cache(8, 10 * item);
  ASSERT_TRUE(cache.Fill(data, Iota(100)).ok());
  EXPECT_EQ(cache.size(), 10u);
  double lb, ub;
  std::vector<Scalar> q(8, 0);
  EXPECT_TRUE(cache.Probe(q, 5, &lb, &ub));
  EXPECT_FALSE(cache.Probe(q, 50, &lb, &ub));
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ExactCacheTest, LruAdmitAndEvict) {
  Dataset data = RandomData(10, 4, 256, 13);
  const size_t item = 4 * sizeof(Scalar);
  ExactCache cache(4, 2 * item, /*lru=*/true);
  std::vector<Scalar> q(4, 0);
  double lb, ub;

  cache.Admit(0, data.point(0));
  cache.Admit(1, data.point(1));
  EXPECT_TRUE(cache.Probe(q, 0, &lb, &ub));  // 0 now MRU
  cache.Admit(2, data.point(2));             // evicts 1
  EXPECT_TRUE(cache.Probe(q, 0, &lb, &ub));
  EXPECT_TRUE(cache.Probe(q, 2, &lb, &ub));
  EXPECT_FALSE(cache.Probe(q, 1, &lb, &ub));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ExactCacheTest, HffFillRespectsFrequencyOrder) {
  Dataset data = RandomData(10, 4, 256, 17);
  ExactCache cache(4, 3 * 4 * sizeof(Scalar));
  std::vector<PointId> by_freq{9, 3, 7, 0, 1};
  ASSERT_TRUE(cache.Fill(data, by_freq).ok());
  std::vector<Scalar> q(4, 0);
  double lb, ub;
  EXPECT_TRUE(cache.Probe(q, 9, &lb, &ub));
  EXPECT_TRUE(cache.Probe(q, 3, &lb, &ub));
  EXPECT_TRUE(cache.Probe(q, 7, &lb, &ub));
  EXPECT_FALSE(cache.Probe(q, 0, &lb, &ub));
}

// -------------------------------------------------------- HistCodeCache --

TEST(HistCodeCacheTest, ProbeMatchesDirectBounds) {
  Dataset data = RandomData(50, 16, 64, 19);
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(64, 8, &h).ok());
  HistCodeCache cache(&h, 16, 1 << 20);
  ASSERT_TRUE(cache.Fill(data, Iota(50)).ok());

  Rng rng(23);
  std::vector<Scalar> q(16);
  for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(64));
  std::vector<BucketId> codes(16);
  for (PointId id = 0; id < 50; ++id) {
    double lb, ub;
    ASSERT_TRUE(cache.Probe(q, id, &lb, &ub));
    EncodeGlobal(h, data.point(id), codes);
    double elb, eub;
    hist::CodeBoundsGlobal(h, q, codes, &elb, &eub);
    EXPECT_DOUBLE_EQ(lb, elb);
    EXPECT_DOUBLE_EQ(ub, eub);
  }
}

TEST(HistCodeCacheTest, ItemBytesReflectTau) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 256, &h).ok());  // tau = 8
  HistCodeCache c8(&h, 64, 1 << 20);
  EXPECT_EQ(c8.item_bytes(), 64u);  // 64*8 bits = 8 words

  hist::Histogram h2;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 4, &h2).ok());  // tau = 2
  HistCodeCache c2(&h2, 64, 1 << 20);
  EXPECT_EQ(c2.item_bytes(), 16u);  // 128 bits = 2 words
}

TEST(HistCodeCacheTest, MoreItemsFitThanExactCache) {
  // The core cache-density effect (Thm. 1): tau=2 fits Lvalue*... more.
  Dataset data = RandomData(1000, 64, 256, 29);
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 4, &h).ok());
  const size_t budget = 4096;
  ExactCache exact(64, budget);
  HistCodeCache code(&h, 64, budget);
  ASSERT_TRUE(exact.Fill(data, Iota(1000)).ok());
  ASSERT_TRUE(code.Fill(data, Iota(1000)).ok());
  EXPECT_EQ(exact.size(), budget / (64 * sizeof(Scalar)));  // 16
  EXPECT_EQ(code.size(), budget / 16);                      // 256
  EXPECT_GT(code.size(), exact.size() * 10);
}

TEST(HistCodeCacheTest, LruAdmitEncodesFromExactPoint) {
  Dataset data = RandomData(10, 8, 64, 31);
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(64, 8, &h).ok());
  // Capacity: two items (8 dims * 3 bits -> 1 word = 8 bytes each).
  HistCodeCache cache(&h, 8, 16, /*lru=*/true);
  std::vector<Scalar> q(8, 0);
  double lb, ub;
  EXPECT_FALSE(cache.Probe(q, 3, &lb, &ub));
  cache.Admit(3, data.point(3));
  EXPECT_TRUE(cache.Probe(q, 3, &lb, &ub));
}

// ------------------------------------------------------ IndividualCodeCache

TEST(IndividualCodeCacheTest, ProbeMatchesDirectBounds) {
  Dataset data = RandomData(30, 8, 64, 37);
  auto freqs = hist::PerDimFrequencies(data, Iota(30), 64);
  hist::IndividualHistograms ih;
  ASSERT_TRUE(
      hist::BuildIndividual(freqs, 8, hist::BuilderKind::kEquiDepth, &ih)
          .ok());
  IndividualCodeCache cache(&ih, 8, 1 << 20);
  ASSERT_TRUE(cache.Fill(data, Iota(30)).ok());

  Rng rng(41);
  std::vector<Scalar> q(8);
  for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(64));
  std::vector<BucketId> codes(8);
  for (PointId id = 0; id < 30; ++id) {
    double lb, ub;
    ASSERT_TRUE(cache.Probe(q, id, &lb, &ub));
    EncodeIndividual(ih, data.point(id), codes);
    double elb, eub;
    hist::CodeBoundsIndividual(ih, q, codes, &elb, &eub);
    EXPECT_DOUBLE_EQ(lb, elb);
    EXPECT_DOUBLE_EQ(ub, eub);
  }
}

// ------------------------------------------------------- MultiDimCodeCache

TEST(MultiDimCodeCacheTest, BoundsComeFromEnclosingMbr) {
  Dataset data = RandomData(200, 4, 64, 43);
  hist::MultiDimHistogram mh;
  std::vector<BucketId> assign;
  ASSERT_TRUE(index::BuildRTreeHistogram(data, 16, &mh, &assign).ok());

  MultiDimCodeCache cache(&mh, 1 << 20);
  ASSERT_TRUE(cache.Fill(Iota(200), assign).ok());

  Rng rng(47);
  std::vector<Scalar> q(4);
  for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(64));
  for (PointId id = 0; id < 200; ++id) {
    double lb, ub;
    ASSERT_TRUE(cache.Probe(q, id, &lb, &ub));
    const double dist = L2(std::span<const Scalar>(q), data.point(id));
    EXPECT_LE(lb, dist + 1e-6);
    EXPECT_GE(ub, dist - 1e-6);
  }
}

TEST(MultiDimCodeCacheTest, SingleCodePerPoint) {
  hist::MultiDimHistogram mh(std::vector<hist::Mbr>(256));
  MultiDimCodeCache cache(&mh, 1 << 10);
  EXPECT_EQ(cache.item_bytes(), 8u);  // one 8-bit code packed in one word
}

// ------------------------------------------------------------- NodeCaches

TEST(NodeCacheTest, ExactNodeGivesExactDistances) {
  Dataset data = RandomData(40, 8, 64, 53);
  std::vector<std::vector<PointId>> leaves{{0, 1, 2, 3}, {4, 5, 6, 7}};
  ExactNodeCache cache(1 << 20);
  std::vector<uint32_t> order{0, 1};
  ASSERT_TRUE(cache.Fill(data, leaves, order).ok());

  std::vector<Scalar> q(8, 10);
  int seen = 0;
  ASSERT_TRUE(cache.ProbeNode(1, q, [&](PointId id, double lb, double ub) {
    const double d = L2(std::span<const Scalar>(q), data.point(id));
    EXPECT_DOUBLE_EQ(lb, d);
    EXPECT_DOUBLE_EQ(ub, d);
    EXPECT_GE(id, 4u);
    ++seen;
  }));
  EXPECT_EQ(seen, 4);
  EXPECT_FALSE(cache.ProbeNode(7, q, [](PointId, double, double) {}));
}

TEST(NodeCacheTest, ApproxNodeBoundsSandwich) {
  Dataset data = RandomData(60, 8, 64, 59);
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(64, 8, &h).ok());
  std::vector<std::vector<PointId>> leaves;
  for (int l = 0; l < 6; ++l) {
    std::vector<PointId> ids;
    for (int i = 0; i < 10; ++i) ids.push_back(l * 10 + i);
    leaves.push_back(ids);
  }
  ApproxNodeCache cache(&h, 8, 1 << 20);
  std::vector<uint32_t> order{0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(cache.Fill(data, leaves, order).ok());

  std::vector<Scalar> q(8, 30);
  for (uint32_t leaf = 0; leaf < 6; ++leaf) {
    ASSERT_TRUE(cache.ProbeNode(leaf, q, [&](PointId id, double lb, double ub) {
      const double d = L2(std::span<const Scalar>(q), data.point(id));
      EXPECT_LE(lb, d + 1e-6);
      EXPECT_GE(ub, d - 1e-6);
    }));
  }
}

TEST(NodeCacheTest, ApproxFitsMoreNodesThanExact) {
  Dataset data = RandomData(1024, 64, 256, 61);
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 4, &h).ok());  // tau = 2
  std::vector<std::vector<PointId>> leaves;
  std::vector<uint32_t> order;
  for (uint32_t l = 0; l < 64; ++l) {
    std::vector<PointId> ids;
    for (int i = 0; i < 16; ++i) ids.push_back(l * 16 + i);
    leaves.push_back(ids);
    order.push_back(l);
  }
  const size_t budget = 16384;
  ExactNodeCache exact(budget);
  ApproxNodeCache approx(&h, 64, budget);
  ASSERT_TRUE(exact.Fill(data, leaves, order).ok());
  ASSERT_TRUE(approx.Fill(data, leaves, order).ok());
  EXPECT_GT(approx.size(), exact.size() * 4);
}

}  // namespace
}  // namespace eeb::cache
