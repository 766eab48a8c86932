// Cache-introspection tests (docs/OBSERVABILITY.md "Cache analytics"): the
// SHARDS-sampled reuse-distance tracker against a brute-force Mattson
// reference, the sharp MRC shape of synthetic streams (with and without
// spatial sampling), the exact miss-cause reconciliation across generation
// swaps, and the LRU what-if panel against the same brute-force reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "obs/cache_analytics.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace eeb {
namespace {

using obs::CacheAnalytics;

// Brute-force Mattson reference: exact LRU stack distances by scanning a
// recency list. Distances are 1-based (an immediate re-access has distance
// 1), matching the tracker's +1 rescale convention.
class MattsonRef {
 public:
  // Returns the access's stack distance, or 0 for a cold access.
  uint64_t Access(uint64_t key) {
    auto it = std::find(stack_.begin(), stack_.end(), key);
    uint64_t d = 0;
    if (it == stack_.end()) {
      ++cold_;
    } else {
      d = static_cast<uint64_t>(std::distance(stack_.begin(), it)) + 1;
      distances_.push_back(d);
      stack_.erase(it);
    }
    stack_.push_front(key);
    return d;
  }

  // Exact hits of an LRU cache holding `c` items over the stream: the
  // re-accesses at stack distance <= c.
  uint64_t HitsAt(uint64_t c) const {
    uint64_t hits = 0;
    for (uint64_t d : distances_) {
      if (d <= c) ++hits;
    }
    return hits;
  }

  // Exact LRU miss ratio of a cache holding `c` items over the stream.
  double MissRatioAt(uint64_t c) const {
    const uint64_t total = cold_ + distances_.size();
    return total == 0 ? 0.0
                      : 1.0 - static_cast<double>(HitsAt(c)) /
                                  static_cast<double>(total);
  }

  uint64_t cold() const { return cold_; }

 private:
  std::deque<uint64_t> stack_;
  std::vector<uint64_t> distances_;
  uint64_t cold_ = 0;
};

// Small deterministic PRNG (SplitMix64) so streams reproduce exactly.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = (*state += 0x9e3779b97f4a7c15ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(ReuseDistanceTest, Rate1MatchesBruteForceMattsonWithinBucketError) {
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;  // exact mode: every access is sampled
  opt.max_sampled_keys = 4096;
  CacheAnalytics a(opt);
  MattsonRef ref;

  // Skewed random stream over 200 keys: hot head, long tail.
  uint64_t rng = 42;
  std::set<uint64_t> distinct;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t r = NextRand(&rng);
    const uint64_t key = (r % 100 < 70) ? r % 20 : 20 + r % 180;
    distinct.insert(key);
    ref.Access(key);
    a.OnAccess(key, /*hit=*/false);
  }

  EXPECT_EQ(a.sampled_accesses(), 5000u);
  EXPECT_EQ(a.tracked_keys(), distinct.size());
  EXPECT_EQ(a.overflow_evictions(), 0u);
  // The tracker quantizes distances into log buckets (1/8 octave), so the
  // predicted curve may deviate from the exact one by at most the mass of
  // one straddled bucket; 0.05 absolute is comfortably above that here.
  for (uint64_t c : {2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    EXPECT_NEAR(a.PredictedMissRatioAt(c), ref.MissRatioAt(c), 0.05)
        << "cache size " << c;
  }
}

TEST(ReuseDistanceTest, Rate1WhatIfPanelEqualsBruteForceLru) {
  uint64_t rng = 7;
  std::vector<uint64_t> stream;
  for (int i = 0; i < 4000; ++i) stream.push_back(NextRand(&rng) % 64);
  MattsonRef ref;
  for (uint64_t key : stream) ref.Access(key);

  for (const uint64_t size : {1u, 7u, 16u, 64u}) {
    CacheAnalytics::Options opt;
    opt.sampling_rate = 1.0;
    opt.max_sampled_keys = 4096;
    CacheAnalytics a(opt);
    a.set_reference_size(size);
    for (uint64_t key : stream) a.OnAccess(key, /*hit=*/false);

    // At rate 1 every stack distance is exact, so each panel entry is the
    // hit ratio of a real LRU cache of that size, with no bucket error.
    const std::array<CacheAnalytics::WhatIfPoint, 3> panel = a.LruWhatIf();
    const uint64_t sizes[3] = {size / 2, size, 2 * size};
    for (size_t i = 0; i < panel.size(); ++i) {
      EXPECT_EQ(panel[i].size_items, sizes[i]);
      EXPECT_EQ(panel[i].hit_ratio, ref.HitsAt(sizes[i]) / 4000.0)
          << "reference " << size << ", size " << sizes[i];
    }
  }
}

TEST(ReuseDistanceTest, WhatIfCountsSurviveSameSizeAndRestartOnNewSize) {
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;
  CacheAnalytics a(opt);
  MattsonRef ref;
  uint64_t rng = 11;
  // Feeds `n` accesses; returns the exact LRU hits among them at the panel
  // sizes of reference size `size`.
  auto feed = [&](int n, uint64_t size) {
    std::array<uint64_t, 3> hits{};
    for (int i = 0; i < n; ++i) {
      const uint64_t key = NextRand(&rng) % 48;
      const uint64_t d = ref.Access(key);
      a.OnAccess(key, /*hit=*/false);
      for (size_t j = 0; j < hits.size(); ++j) {
        if (d != 0 && d <= (size << j) / 2) ++hits[j];
      }
    }
    return hits;
  };

  a.set_reference_size(16);
  const std::array<uint64_t, 3> first = feed(500, 16);
  // A same-capacity rebuild re-announces the size: the counts carry on.
  a.set_reference_size(16);
  const std::array<uint64_t, 3> second = feed(500, 16);
  std::array<CacheAnalytics::WhatIfPoint, 3> panel = a.LruWhatIf();
  for (size_t j = 0; j < panel.size(); ++j) {
    EXPECT_EQ(panel[j].hit_ratio, (first[j] + second[j]) / 1000.0) << j;
  }

  // A new size restarts the counts; the stack history stays, so the
  // distances of later accesses still see the earlier ones.
  a.set_reference_size(32);
  panel = a.LruWhatIf();
  EXPECT_EQ(panel[1].size_items, 32u);
  for (const CacheAnalytics::WhatIfPoint& p : panel) {
    EXPECT_EQ(p.hit_ratio, 0.0);
  }
  const std::array<uint64_t, 3> third = feed(300, 32);
  panel = a.LruWhatIf();
  for (size_t j = 0; j < panel.size(); ++j) {
    EXPECT_EQ(panel[j].hit_ratio, third[j] / 300.0) << j;
  }
  EXPECT_EQ(a.sampled_accesses(), 1300u);
}

TEST(ReuseDistanceTest, CyclicScanHasSharpMissCliff) {
  // Cyclic scan over K keys: every reuse has exact stack distance K, so the
  // MRC is a step — certain miss below K, cold-only misses above it.
  constexpr uint64_t kKeys = 32;
  constexpr int kRounds = 10;
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;
  CacheAnalytics a(opt);
  for (int r = 0; r < kRounds; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) a.OnAccess(k, false);
  }

  const double total = kKeys * kRounds;
  const double cold_ratio = kKeys / total;
  // Well below the cliff every reuse misses; well above it only cold does.
  EXPECT_DOUBLE_EQ(a.PredictedMissRatioAt(8), 1.0);
  EXPECT_DOUBLE_EQ(a.PredictedMissRatioAt(2 * kKeys), cold_ratio);

  // The curve's last point carries the floor, and sizes are increasing.
  const std::vector<CacheAnalytics::MrcPoint> mrc = a.Mrc();
  ASSERT_FALSE(mrc.empty());
  for (size_t i = 1; i < mrc.size(); ++i) {
    EXPECT_GT(mrc[i].size_items, mrc[i - 1].size_items);
    EXPECT_LE(mrc[i].miss_ratio, mrc[i - 1].miss_ratio + 1e-12);
  }
  EXPECT_NEAR(mrc.back().miss_ratio, cold_ratio, 1e-9);
}

TEST(ReuseDistanceTest, SampledSubstreamRescalesToTrueDistances) {
  // With spatial rate 0.5 over a 256-key cycle, a sampled key sees only the
  // ~128 sampled keys between its accesses; the 1/rate rescale must land
  // the estimate near the true distance 256 — between 64 and 512.
  constexpr uint64_t kKeys = 256;
  constexpr int kRounds = 20;
  CacheAnalytics::Options opt;
  opt.sampling_rate = 0.5;
  opt.max_sampled_keys = 1024;
  CacheAnalytics a(opt);
  for (int r = 0; r < kRounds; ++r) {
    for (uint64_t k = 0; k < kKeys; ++k) a.OnAccess(k, false);
  }

  EXPECT_GT(a.sampled_accesses(), 0u);
  EXPECT_LT(a.sampled_accesses(), kKeys * kRounds);
  // Every sampled key contributes 1 cold + (kRounds-1) reuses, so the
  // sampled cold fraction is exactly 1/kRounds regardless of which keys
  // the hash picked.
  EXPECT_NEAR(a.PredictedMissRatioAt(4 * kKeys), 1.0 / kRounds, 1e-9);
  EXPECT_DOUBLE_EQ(a.PredictedMissRatioAt(kKeys / 4), 1.0);
}

TEST(ReuseDistanceTest, OverflowEvictsOldestAndKeepsMemoryBounded) {
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;
  opt.max_sampled_keys = 16;  // the sanitized minimum
  CacheAnalytics a(opt);
  // 100 distinct keys, several passes: far more than 16 tracked at once.
  for (int r = 0; r < 3; ++r) {
    for (uint64_t k = 0; k < 100; ++k) a.OnAccess(k, false);
  }
  EXPECT_LE(a.tracked_keys(), 16u);
  EXPECT_GT(a.overflow_evictions(), 0u);
  // A reuse of a long-evicted key reads as cold for the sampled stream —
  // the tracker must stay consistent, not crash or mis-count.
  EXPECT_EQ(a.sampled_accesses(), 300u);
}

TEST(MissClassificationTest, ReconcilesExactlyAcrossGenerationSwaps) {
  CacheAnalytics a;
  // First pass: 10 compulsory misses, then 10 hits on re-access.
  for (uint64_t k = 0; k < 10; ++k) a.OnAccess(k, false);
  for (uint64_t k = 0; k < 10; ++k) a.OnAccess(k, true);

  CacheAnalytics::MissBreakdown mb = a.miss_breakdown();
  EXPECT_EQ(mb.accesses, 20u);
  EXPECT_EQ(mb.hits, 10u);
  EXPECT_EQ(mb.compulsory, 10u);
  EXPECT_EQ(mb.capacity, 0u);
  EXPECT_EQ(mb.invalidation, 0u);

  // A generation swap reclassifies the next miss of each seen-before key
  // as invalidation; a second miss in the same generation is capacity.
  a.NoteGenerationSwap();
  EXPECT_EQ(a.generation_swaps(), 1u);
  for (uint64_t k = 0; k < 10; ++k) a.OnAccess(k, false);  // invalidation
  for (uint64_t k = 0; k < 10; ++k) a.OnAccess(k, false);  // capacity
  a.OnAccess(999, false);                                  // compulsory

  mb = a.miss_breakdown();
  EXPECT_EQ(mb.invalidation, 10u);
  EXPECT_EQ(mb.capacity, 10u);
  EXPECT_EQ(mb.compulsory, 11u);
  // The reconciliation invariant: every miss has exactly one cause.
  EXPECT_EQ(mb.compulsory + mb.capacity + mb.invalidation, mb.misses);
  EXPECT_EQ(mb.accesses, mb.hits + mb.misses);
}

TEST(CacheAnalyticsTest, PublishMetricsMovesDeltasAndSurvivesResetAll) {
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;  // every key sampled: the ref gauge must appear
  CacheAnalytics a(opt);
  obs::MetricsRegistry reg;
  a.BindMetrics(&reg);

  for (uint64_t k = 0; k < 8; ++k) a.OnAccess(k, false);
  a.set_reference_size(4);
  a.PublishMetrics();
  EXPECT_EQ(reg.GetCounter("cache.miss.compulsory")->value(), 8u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("cache.mrc.sampling_rate")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("cache.mrc.ref_size_items")->value(), 4.0);

  // Registry epochs must not replay already-published history...
  reg.ResetAll();
  a.PublishMetrics();
  EXPECT_EQ(reg.GetCounter("cache.miss.compulsory")->value(), 0u);
  // ...while new events still land as deltas.
  for (uint64_t k = 0; k < 3; ++k) a.OnAccess(100 + k, false);
  a.PublishMetrics();
  EXPECT_EQ(reg.GetCounter("cache.miss.compulsory")->value(), 3u);
}

TEST(CacheAnalyticsTest, MrcJsonCarriesEverySection) {
  CacheAnalytics::Options opt;
  opt.sampling_rate = 1.0;
  CacheAnalytics a(opt);
  for (int r = 0; r < 3; ++r) {
    for (uint64_t k = 0; k < 16; ++k) a.OnAccess(k, r > 0);
  }
  a.set_reference_size(8);
  const std::string json = a.MrcJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"sampling_rate\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"total_accesses\":48"), std::string::npos) << json;
  EXPECT_NE(json.find("\"reference\":{\"size_items\":8"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"sampled_accesses\":48"), std::string::npos) << json;
  EXPECT_NE(json.find("\"miss_classes\":{\"compulsory\":16"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"points\":[{\"size_items\":"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lru_what_if\":[{\"size_items\":4,"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace eeb
