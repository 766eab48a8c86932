// Unit and property tests for the common substrate: Status, Rng, Zipf,
// bit packing, TopK, Dataset, k-means.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bitops.h"
#include "common/crc32c.h"
#include "common/dataset.h"
#include "common/distance.h"
#include "common/kmeans.h"
#include "common/random.h"
#include "common/status.h"
#include "common/topk.h"
#include "common/zipf.h"

namespace eeb {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::IOError("open failed");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(s.message(), "open failed");
  EXPECT_EQ(s.ToString(), "IOError: open failed");
}

TEST(StatusTest, AllConstructorsSetMatchingPredicate) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("inner"); };
  auto outer = [&]() -> Status {
    EEB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsNotFound());
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int cnt = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) cnt += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(cnt) / n, 0.3, 0.02);
}

// ------------------------------------------------------------------ Zipf --

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 0.8);
  double total = 0;
  for (uint64_t i = 0; i < 100; ++i) total += z.Probability(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfSampler z(50, 1.0);
  for (uint64_t i = 1; i < 50; ++i) {
    EXPECT_GE(z.Probability(i - 1), z.Probability(i));
  }
}

TEST(ZipfTest, SkewZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Probability(i), 0.1, 1e-9);
}

TEST(ZipfTest, EmpiricalMatchesTheoretical) {
  ZipfSampler z(20, 1.2);
  Rng rng(17);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[z.Sample(rng)]++;
  for (uint64_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, z.Probability(r), 0.01);
  }
}

TEST(ZipfTest, SamplesInRange) {
  ZipfSampler z(7, 0.5);
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Sample(rng), 7u);
}

// ---------------------------------------------------------------- bitops --

TEST(BitopsTest, CeilLog2) {
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(4), 2u);
  EXPECT_EQ(CeilLog2(255), 8u);
  EXPECT_EQ(CeilLog2(256), 8u);
  EXPECT_EQ(CeilLog2(257), 9u);
}

TEST(BitopsTest, WordsForBits) {
  EXPECT_EQ(WordsForBits(0), 0u);
  EXPECT_EQ(WordsForBits(1), 1u);
  EXPECT_EQ(WordsForBits(64), 1u);
  EXPECT_EQ(WordsForBits(65), 2u);
  EXPECT_EQ(WordsForBits(128), 2u);
}

TEST(BitopsTest, PackUnpackRoundTripProperty) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t width = 1 + static_cast<uint32_t>(rng.Uniform(32));
    const size_t count = 1 + rng.Uniform(100);
    std::vector<uint64_t> values(count);
    const uint64_t mask =
        width >= 64 ? ~0ULL : ((uint64_t{1} << width) - 1);
    for (auto& v : values) v = rng.Next() & mask;

    std::vector<uint64_t> words(WordsForBits(width * count), 0);
    size_t bit = 0;
    for (uint64_t v : values) {
      PackBits(words, bit, width, v);
      bit += width;
    }
    bit = 0;
    for (uint64_t v : values) {
      EXPECT_EQ(UnpackBits(words.data(), bit, width), v);
      bit += width;
    }
  }
}

TEST(BitopsTest, PackAcrossWordBoundary) {
  std::vector<uint64_t> words(2, 0);
  PackBits(words, 60, 10, 0x3FF);  // straddles the word boundary
  EXPECT_EQ(UnpackBits(words.data(), 60, 10), 0x3FFull);
}

// ------------------------------------------------------------------ TopK --

TEST(TopKTest, KeepsKSmallest) {
  TopK top(3);
  for (int i = 10; i >= 1; --i) top.Push(i, i);
  auto r = top.TakeSorted();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].id, 1u);
  EXPECT_EQ(r[1].id, 2u);
  EXPECT_EQ(r[2].id, 3u);
}

TEST(TopKTest, ThresholdInfinityUntilFull) {
  TopK top(2);
  EXPECT_TRUE(std::isinf(top.Threshold()));
  top.Push(1, 5.0);
  EXPECT_TRUE(std::isinf(top.Threshold()));
  top.Push(2, 3.0);
  EXPECT_EQ(top.Threshold(), 5.0);
  top.Push(3, 1.0);
  EXPECT_EQ(top.Threshold(), 3.0);
}

TEST(TopKTest, TieBrokenById) {
  TopK top(1);
  top.Push(9, 2.0);
  top.Push(4, 2.0);  // same distance, smaller id wins
  auto r = top.TakeSorted();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].id, 4u);
}

TEST(TopKTest, MatchesSortProperty) {
  Rng rng(37);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t k = 1 + rng.Uniform(10);
    std::vector<Neighbor> all;
    TopK top(k);
    for (int i = 0; i < 200; ++i) {
      const double d = rng.NextDouble() * 100;
      all.push_back({static_cast<PointId>(i), d});
      top.Push(static_cast<PointId>(i), d);
    }
    std::sort(all.begin(), all.end());
    auto got = top.TakeSorted();
    ASSERT_EQ(got.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(got[i].id, all[i].id);
      EXPECT_EQ(got[i].dist, all[i].dist);
    }
  }
}

// --------------------------------------------------------------- Dataset --

TEST(DatasetTest, AppendAndAccess) {
  Dataset d(3);
  std::vector<Scalar> p1{1, 2, 3}, p2{4, 5, 6};
  EXPECT_EQ(d.Append(p1), 0u);
  EXPECT_EQ(d.Append(p2), 1u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.point(1)[2], 6);
  d.mutable_point(0)[0] = 9;
  EXPECT_EQ(d.point(0)[0], 9);
}

TEST(DatasetTest, MaxValue) {
  Dataset d(2);
  std::vector<Scalar> p{3, 250};
  d.Append(p);
  EXPECT_EQ(d.MaxValue(), 250);
  EXPECT_EQ(Dataset(2).MaxValue(), 0);
}

// -------------------------------------------------------------- distance --

TEST(DistanceTest, KnownValues) {
  std::vector<Scalar> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(L2(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredL2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(L2(a, a), 0.0);
}

TEST(DistanceTest, Symmetric) {
  Rng rng(41);
  std::vector<Scalar> a(16), b(16);
  for (auto& v : a) v = static_cast<Scalar>(rng.NextGaussian());
  for (auto& v : b) v = static_cast<Scalar>(rng.NextGaussian());
  EXPECT_DOUBLE_EQ(L2(a, b), L2(b, a));
}

// ---------------------------------------------------------------- kmeans --

Dataset MakeBlobs(size_t per_cluster, uint64_t seed) {
  Rng rng(seed);
  Dataset d(2);
  const double centers[3][2] = {{0, 0}, {100, 0}, {0, 100}};
  for (int c = 0; c < 3; ++c) {
    for (size_t i = 0; i < per_cluster; ++i) {
      std::vector<Scalar> p{
          static_cast<Scalar>(centers[c][0] + rng.NextGaussian()),
          static_cast<Scalar>(centers[c][1] + rng.NextGaussian())};
      d.Append(p);
    }
  }
  return d;
}

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  Dataset d = MakeBlobs(50, 43);
  KMeansResult km = KMeans(d, 3, 20, 1);
  ASSERT_EQ(km.centers.size(), 3u);
  // Every cluster is pure: all points of a blob share an assignment.
  for (int c = 0; c < 3; ++c) {
    std::set<uint32_t> labels;
    for (size_t i = 0; i < 50; ++i) labels.insert(km.assign[c * 50 + i]);
    EXPECT_EQ(labels.size(), 1u) << "blob " << c << " split";
  }
  EXPECT_LT(km.inertia / d.size(), 4.0);
}

TEST(KMeansTest, DeterministicForSeed) {
  Dataset d = MakeBlobs(30, 47);
  KMeansResult a = KMeans(d, 3, 10, 5);
  KMeansResult b = KMeans(d, 3, 10, 5);
  EXPECT_EQ(a.assign, b.assign);
  EXPECT_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, KClampedToN) {
  Dataset d(2);
  std::vector<Scalar> p{1, 1};
  d.Append(p);
  KMeansResult km = KMeans(d, 10, 5, 1);
  EXPECT_EQ(km.centers.size(), 1u);
  EXPECT_EQ(km.sizes[0], 1u);
}

TEST(KMeansTest, SizesSumToN) {
  Dataset d = MakeBlobs(40, 53);
  KMeansResult km = KMeans(d, 5, 10, 3);
  uint32_t total = 0;
  for (uint32_t s : km.sizes) total += s;
  EXPECT_EQ(total, d.size());
}

// ----------------------------------------------------------------- CRC32C --

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 Appendix B / de-facto Castagnoli test vectors.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  const std::vector<char> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<char> ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string s = "exploit every bit: caching for NN search";
  const uint32_t whole = Crc32c(s.data(), s.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, s.size()}) {
    uint32_t crc = Crc32cExtend(0, s.data(), split);
    crc = Crc32cExtend(crc, s.data() + split, s.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToSingleBitFlips) {
  std::vector<char> buf(4096, 'p');
  const uint32_t clean = Crc32c(buf.data(), buf.size());
  Rng rng(59);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t bit = rng.Uniform(buf.size() * 8);
    buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf.data(), buf.size()), clean);
    buf[bit / 8] ^= static_cast<char>(1u << (bit % 8));  // restore
  }
  EXPECT_EQ(Crc32c(buf.data(), buf.size()), clean);
}

}  // namespace
}  // namespace eeb
