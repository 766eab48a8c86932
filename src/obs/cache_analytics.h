// Cache introspection: the measurement substrate for cache re-tuning
// decisions (ROADMAP item 4). Two independent instruments behind one
// hot-path entry point, OnAccess(key, hit):
//
//   * A SHARDS-style spatially-sampled reuse-distance tracker. A key is
//     sampled iff hash(key) falls under a fixed threshold (the sampling
//     rate), so the decision is one multiply-free hash plus a compare; the
//     sampled substream feeds an order-statistics structure (a Fenwick tree
//     over arrival positions with periodic compaction) in fixed memory.
//     Sampled stack distances, rescaled by 1/rate, yield the miss-ratio
//     curve MRC(size) for an LRU cache over the same stream — "what hit
//     ratio would we get at a different cache size" without running one.
//     Three exact counters beside the curve count LRU hits at 1/2x, 1x and
//     2x the reference size (the live cache's capacity): the what-if panel.
//
//   * Exact miss classification. Two bitsets over the (aliased) key space —
//     ever-seen and seen-this-generation — classify every miss as
//     compulsory (first access), generation-invalidation (seen before the
//     last cache publication but not since), or capacity (everything
//     else). Each miss increments exactly one cause counter, so
//     compulsory + capacity + invalidation == misses always reconciles.
//
// Everything is sized at construction: the hot path performs no allocation
// and, off the sampled substream, no locking. obs sits below cache/core in
// the link order, so callers push plain integer keys in — this class never
// names a cache type.

#ifndef EEB_OBS_CACHE_ANALYTICS_H_
#define EEB_OBS_CACHE_ANALYTICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/key_table.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace eeb::obs {

class CacheAnalytics {
 public:
  struct Options {
    // SHARDS spatial sampling rate in (0, 1]. 1.0 tracks every key (exact
    // reuse distances — test mode); ~0.01 is the intended production rate.
    double sampling_rate = 0.01;
    // Bound on distinct sampled keys tracked at once. When exceeded, the
    // oldest sampled key is dropped (counted in overflow_evictions).
    size_t max_sampled_keys = 8192;
    // Classifier bitset size; keys are aliased modulo this. Size it at or
    // above the dataset cardinality for exact classification.
    uint64_t key_space = uint64_t{1} << 20;
  };

  /// One point of the miss-ratio curve: the predicted LRU miss ratio of a
  /// cache holding `size_items` items over the observed stream.
  struct MrcPoint {
    uint64_t size_items = 0;
    double miss_ratio = 0.0;
  };

  /// One point of the what-if panel: the LRU hit ratio a cache holding
  /// `size_items` items would get over the sampled accesses since the
  /// reference size last changed.
  struct WhatIfPoint {
    uint64_t size_items = 0;
    double hit_ratio = 0.0;
  };

  /// Cause-tagged miss totals. Each miss lands in exactly one cause, so
  /// compulsory + capacity + invalidation == misses (read quiesced for an
  /// exact reconciliation; counters are individually exact regardless).
  struct MissBreakdown {
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t compulsory = 0;
    uint64_t capacity = 0;
    uint64_t invalidation = 0;
  };

  // Two constructors instead of one defaulted argument: a `= {}` default
  // for a nested struct with member initializers is ill-formed until the
  // enclosing class is complete, but a delegating body is parsed late.
  CacheAnalytics() : CacheAnalytics(Options()) {}
  explicit CacheAnalytics(Options options);

  CacheAnalytics(const CacheAnalytics&) = delete;
  CacheAnalytics& operator=(const CacheAnalytics&) = delete;

  /// Hot-path hook: one cache probe of `key`, which `hit` or missed.
  /// Allocation-free; lock-free except on the sampled substream.
  void OnAccess(uint64_t key, bool hit) EEB_EXCLUDES(rd_mu_);

  /// Marks a cache generation swap: keys seen before but not after are
  /// classified as invalidation misses on their next miss.
  void NoteGenerationSwap();

  /// Sets the reference size (items) for the predicted-miss-ratio gauge and
  /// the what-if panel; 0 (the initial value) leaves both unpublished. A new
  /// size restarts the panel's counts; the same size keeps them, so a
  /// same-capacity cache rebuild does not lose history.
  void set_reference_size(uint64_t items) EEB_EXCLUDES(rd_mu_);
  uint64_t reference_size() const EEB_EXCLUDES(rd_mu_);

  MissBreakdown miss_breakdown() const;

  /// The miss-ratio curve from the sampled reuse distances, one point per
  /// distinct log-bucket edge up to the largest observed distance.
  std::vector<MrcPoint> Mrc() const EEB_EXCLUDES(rd_mu_);

  /// Predicted LRU miss ratio at a single cache size (log-interpolated
  /// within the straddled distance bucket). Returns 0 with no samples.
  double PredictedMissRatioAt(uint64_t size_items) const EEB_EXCLUDES(rd_mu_);

  /// The what-if panel: LRU hit ratios at 1/2x, 1x and 2x the reference
  /// size. A sampled re-access whose rescaled stack distance is at most c
  /// counts as a hit at c, so at sampling_rate 1 the ratios equal an exact
  /// LRU simulation of the stream (while the distinct keys fit
  /// max_sampled_keys); below rate 1 they are an estimate. A size above
  /// the number of distinct keys reads as "every reuse hits".
  std::array<WhatIfPoint, 3> LruWhatIf() const EEB_EXCLUDES(rd_mu_);

  uint64_t total_accesses() const {
    return total_accesses_.load(std::memory_order_relaxed);
  }
  uint64_t sampled_accesses() const EEB_EXCLUDES(rd_mu_);
  uint64_t tracked_keys() const EEB_EXCLUDES(rd_mu_);
  uint64_t overflow_evictions() const EEB_EXCLUDES(rd_mu_);
  uint64_t generation_swaps() const {
    return generation_swaps_.load(std::memory_order_relaxed);
  }
  double sampling_rate() const { return options_.sampling_rate; }

  /// The MRC artifact body: {"sampling_rate":…,"total_accesses":…,
  /// "sampled_accesses":…,"cold_sampled":…,"tracked_keys":…,
  /// "overflow_evictions":…,"miss_classes":{…},"points":[{"size_items":…,
  /// "miss_ratio":…},…]}; with a reference size it also carries "reference"
  /// and "lru_what_if":[{"size_items":…,"hit_ratio":…}×3].
  std::string MrcJson() const EEB_EXCLUDES(rd_mu_);

  /// Binds the "cache.miss.*" counters and "cache.mrc.*" gauges;
  /// PublishMetrics then moves counter deltas (so a registry ResetAll loses
  /// nothing) and refreshes the gauges. Nothing on the query path publishes:
  /// call PublishMetrics when a reader is about to read the registry.
  void BindMetrics(MetricsRegistry* registry) EEB_EXCLUDES(publish_mu_);
  void PublishMetrics() EEB_EXCLUDES(publish_mu_);

  const Options& options() const { return options_; }

 private:
  // Log-bucketed histogram of rescaled stack distances (items): bucket 0
  // holds distances <= 1 (immediate reuse), bucket i > 0 the half-open
  // range (2^((i-1)/B), 2^(i/B)].
  static constexpr int kDistBucketsPerOctave = 8;
  static constexpr int kDistOctaves = 40;
  static constexpr int kDistBuckets = kDistOctaves * kDistBucketsPerOctave + 1;

  static int DistBucket(double d);
  static double DistBucketUpper(int idx);

  void SampledAccess(uint64_t key) EEB_EXCLUDES(rd_mu_);
  uint32_t AllocPositionLocked() EEB_REQUIRES(rd_mu_);
  void CompactLocked() EEB_REQUIRES(rd_mu_);
  void EvictOldestSampledLocked() EEB_REQUIRES(rd_mu_);
  void FenwickAdd(size_t pos, int delta) EEB_REQUIRES(rd_mu_);
  uint32_t FenwickPrefix(size_t pos) const EEB_REQUIRES(rd_mu_);
  size_t FenwickFirstOccupied() const EEB_REQUIRES(rd_mu_);
  double HitsAtLocked(double size_items) const EEB_REQUIRES(rd_mu_);

  const Options options_;
  const uint64_t sample_threshold_;  // sampled iff Mix64(key) <= threshold
  const uint64_t key_space_;
  const size_t max_sampled_;
  const size_t position_capacity_;  // Fenwick span before compaction

  // --- miss classification (lock-free) ---
  std::vector<std::atomic<uint64_t>> ever_seen_ EEB_UNGUARDED(
      "bitset words are relaxed atomics updated with fetch_or; the vector "
      "itself is sized in the constructor and never resized");
  std::vector<std::atomic<uint64_t>> seen_this_gen_ EEB_UNGUARDED(
      "bitset words are relaxed atomics; cleared with plain atomic stores "
      "on generation swap, racing fetch_or updates benignly (a concurrent "
      "access lands on one side of the swap)");
  std::atomic<uint64_t> total_accesses_{0};
  std::atomic<uint64_t> total_hits_{0};
  std::atomic<uint64_t> miss_compulsory_{0};
  std::atomic<uint64_t> miss_capacity_{0};
  std::atomic<uint64_t> miss_invalidation_{0};
  std::atomic<uint64_t> generation_swaps_{0};

  // --- sampled reuse distances (mutex-guarded, sampled substream only) ---
  mutable Mutex rd_mu_;
  std::vector<uint32_t> fenwick_ EEB_GUARDED_BY(rd_mu_);
  std::vector<uint64_t> pos_key_ EEB_GUARDED_BY(rd_mu_);  // key+1; 0 = empty
  // Sampled key -> its arrival position in the Fenwick array.
  KeyTable table_ EEB_GUARDED_BY(rd_mu_);
  size_t next_pos_ EEB_GUARDED_BY(rd_mu_) = 0;
  size_t occupied_ EEB_GUARDED_BY(rd_mu_) = 0;
  std::array<uint64_t, kDistBuckets> dist_hist_ EEB_GUARDED_BY(rd_mu_);
  uint64_t sampled_accesses_ EEB_GUARDED_BY(rd_mu_) = 0;
  uint64_t cold_sampled_ EEB_GUARDED_BY(rd_mu_) = 0;
  uint64_t overflow_evictions_ EEB_GUARDED_BY(rd_mu_) = 0;
  // What-if panel: the reference size and, since it last changed, the
  // sampled accesses and the LRU hits at (ref << i) >> 1 items.
  uint64_t ref_size_items_ EEB_GUARDED_BY(rd_mu_) = 0;
  uint64_t what_if_accesses_ EEB_GUARDED_BY(rd_mu_) = 0;
  std::array<uint64_t, 3> what_if_hits_ EEB_GUARDED_BY(rd_mu_){};

  // --- delta publication into a MetricsRegistry ---
  mutable Mutex publish_mu_;
  MetricsRegistry* registry_ EEB_GUARDED_BY(publish_mu_) = nullptr;
  MissBreakdown published_ EEB_GUARDED_BY(publish_mu_);
};

}  // namespace eeb::obs

#endif  // EEB_OBS_CACHE_ANALYTICS_H_
