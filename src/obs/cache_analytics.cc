#include "obs/cache_analytics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>

#include "obs/export.h"

namespace eeb::obs {
namespace {

// Keys with Mix64(key) <= threshold form the sampled substream, so the
// sampling decision is two multiplies and a compare — no state, no branch
// history.
uint64_t ThresholdFor(double rate) {
  if (rate >= 1.0) return ~uint64_t{0};
  // rate < 1 keeps the product below 2^64, so the cast is defined.
  const double scaled = rate * 18446744073709551616.0;  // 2^64
  return scaled <= 1.0 ? 0 : static_cast<uint64_t>(scaled) - 1;
}

CacheAnalytics::Options Sanitize(CacheAnalytics::Options options) {
  if (!(options.sampling_rate > 0.0)) options.sampling_rate = 0.01;
  if (options.sampling_rate > 1.0) options.sampling_rate = 1.0;
  options.max_sampled_keys = std::max<size_t>(options.max_sampled_keys, 16);
  options.key_space = std::max<uint64_t>(options.key_space, 64);
  options.ws_window_accesses =
      std::max<uint64_t>(options.ws_window_accesses, 64);
  return options;
}

// Standard HyperLogLog estimator with the small-range correction; the
// large-range correction is irrelevant at these cardinalities.
double EstimateFromRegisters(const uint64_t* regs, size_t m) {
  double sum = 0.0;
  size_t zeros = 0;
  for (size_t i = 0; i < m; ++i) {
    sum += std::ldexp(1.0, -static_cast<int>(regs[i]));
    if (regs[i] == 0) ++zeros;
  }
  const double md = static_cast<double>(m);
  const double alpha = 0.7213 / (1.0 + 1.079 / md);
  double e = alpha * md * md / sum;
  if (e <= 2.5 * md && zeros > 0) {
    e = md * std::log(md / static_cast<double>(zeros));
  }
  return e;
}

}  // namespace

int CacheAnalytics::DistBucket(double d) {
  if (!(d > 1.0)) return 0;
  const int idx = 1 + static_cast<int>(std::log2(d) * kDistBucketsPerOctave);
  return idx >= kDistBuckets ? kDistBuckets - 1 : idx;
}

double CacheAnalytics::DistBucketUpper(int idx) {
  if (idx <= 0) return 1.0;
  return std::exp2(static_cast<double>(idx) / kDistBucketsPerOctave);
}

CacheAnalytics::CacheAnalytics(Options options)
    : options_(Sanitize(options)),
      sample_threshold_(ThresholdFor(options_.sampling_rate)),
      key_space_(options_.key_space),
      max_sampled_(options_.max_sampled_keys),
      position_capacity_(max_sampled_ * 4),
      ever_seen_((key_space_ + 63) / 64),
      seen_this_gen_((key_space_ + 63) / 64),
      fenwick_(position_capacity_ + 1, 0),
      pos_key_(position_capacity_, 0),
      table_(max_sampled_) {
  dist_hist_.fill(0);
  hll_prev_.fill(0);
}

void CacheAnalytics::OnAccess(uint64_t key, bool hit) {
  total_accesses_.fetch_add(1, std::memory_order_relaxed);

  // Miss classification: mark the key seen (ever / this generation) and,
  // on a miss, attribute exactly one cause from the pre-update state.
  const uint64_t aliased = key % key_space_;
  const size_t word = static_cast<size_t>(aliased >> 6);
  const uint64_t bit = uint64_t{1} << (aliased & 63);
  const uint64_t prev_ever =
      ever_seen_[word].fetch_or(bit, std::memory_order_relaxed);
  const uint64_t prev_gen =
      seen_this_gen_[word].fetch_or(bit, std::memory_order_relaxed);
  if (hit) {
    total_hits_.fetch_add(1, std::memory_order_relaxed);
  } else if ((prev_ever & bit) == 0) {
    miss_compulsory_.fetch_add(1, std::memory_order_relaxed);
  } else if ((prev_gen & bit) == 0) {
    miss_invalidation_.fetch_add(1, std::memory_order_relaxed);
  } else {
    miss_capacity_.fetch_add(1, std::memory_order_relaxed);
  }

  // Working-set sketch; rotation fires once per window boundary (each
  // access observes a distinct counter value).
  HllAdd(key);
  const uint64_t n = ws_accesses_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % options_.ws_window_accesses == 0) RotateWindow();

  // The SHARDS gate: one hash plus one compare decides membership in the
  // sampled substream; only members pay the mutex and tree update.
  if (Mix64(key) <= sample_threshold_) SampledAccess(key);
}

void CacheAnalytics::NoteGenerationSwap() {
  for (std::atomic<uint64_t>& w : seen_this_gen_) {
    w.store(0, std::memory_order_relaxed);
  }
  generation_swaps_.fetch_add(1, std::memory_order_relaxed);
}

void CacheAnalytics::set_reference_size(uint64_t items) {
  MutexLock lock(rd_mu_);
  if (items == ref_size_items_) return;
  ref_size_items_ = items;
  what_if_accesses_ = 0;
  what_if_hits_.fill(0);
}

uint64_t CacheAnalytics::reference_size() const {
  MutexLock lock(rd_mu_);
  return ref_size_items_;
}

void CacheAnalytics::SampledAccess(uint64_t key) {
  MutexLock lock(rd_mu_);
  ++sampled_accesses_;
  ++what_if_accesses_;
  uint32_t* slot = table_.Find(key);
  if (slot != nullptr) {
    const uint32_t pos = *slot;
    // Sampled stack depth: distinct sampled keys whose latest access came
    // after this key's. Rescaled by 1/rate it estimates the true number of
    // intervening distinct keys; +1 puts the key itself on the stack.
    const uint32_t depth =
        static_cast<uint32_t>(occupied_) - FenwickPrefix(pos);
    const double scaled =
        static_cast<double>(depth) / options_.sampling_rate + 1.0;
    ++dist_hist_[static_cast<size_t>(DistBucket(scaled))];
    // An LRU cache of c items hits iff the stack distance is at most c.
    for (size_t i = 0; i < what_if_hits_.size(); ++i) {
      if (scaled <= static_cast<double>((ref_size_items_ << i) >> 1)) {
        ++what_if_hits_[i];
      }
    }
    FenwickAdd(pos, -1);
    pos_key_[pos] = 0;
    const uint32_t npos = AllocPositionLocked();
    pos_key_[npos] = key + 1;
    FenwickAdd(npos, +1);
    // `slot` stays valid across compaction: compaction only rewrites
    // values, and the key holds no position while it runs.
    *slot = npos;
  } else {
    ++cold_sampled_;
    if (occupied_ >= max_sampled_) EvictOldestSampledLocked();
    const uint32_t npos = AllocPositionLocked();
    pos_key_[npos] = key + 1;
    FenwickAdd(npos, +1);
    table_.Insert(key, npos);
    ++occupied_;
  }
}

uint32_t CacheAnalytics::AllocPositionLocked() {
  if (next_pos_ >= position_capacity_) CompactLocked();
  return static_cast<uint32_t>(next_pos_++);
}

void CacheAnalytics::CompactLocked() {
  // Remap the occupied arrival positions to a dense prefix, preserving
  // order. Runs every >= 3 * max_sampled insertions, so amortized O(1).
  size_t w = 0;
  for (size_t r = 0; r < next_pos_; ++r) {
    const uint64_t kp = pos_key_[r];
    if (kp == 0) continue;
    pos_key_[r] = 0;
    pos_key_[w] = kp;
    *table_.Find(kp - 1) = static_cast<uint32_t>(w);
    ++w;
  }
  std::fill(fenwick_.begin(), fenwick_.end(), 0u);
  for (size_t i = 0; i < w; ++i) FenwickAdd(i, +1);
  next_pos_ = w;
}

void CacheAnalytics::EvictOldestSampledLocked() {
  const size_t pos = FenwickFirstOccupied();
  const uint64_t kp = pos_key_[pos];
  pos_key_[pos] = 0;
  FenwickAdd(pos, -1);
  table_.Erase(kp - 1);
  --occupied_;
  ++overflow_evictions_;
}

void CacheAnalytics::FenwickAdd(size_t pos, int delta) {
  for (size_t i = pos + 1; i < fenwick_.size(); i += i & (~i + 1)) {
    fenwick_[i] =
        static_cast<uint32_t>(static_cast<int64_t>(fenwick_[i]) + delta);
  }
}

uint32_t CacheAnalytics::FenwickPrefix(size_t pos) const {
  uint32_t sum = 0;
  for (size_t i = pos + 1; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return sum;
}

size_t CacheAnalytics::FenwickFirstOccupied() const {
  // Largest index with prefix sum < 1; the next position is the first
  // occupied one. Caller guarantees occupied_ > 0.
  size_t idx = 0;
  uint32_t rem = 1;
  for (size_t step = std::bit_floor(fenwick_.size() - 1); step > 0;
       step >>= 1) {
    const size_t nxt = idx + step;
    if (nxt < fenwick_.size() && fenwick_[nxt] < rem) {
      idx = nxt;
      rem -= fenwick_[idx];
    }
  }
  return idx;
}

double CacheAnalytics::HitsAtLocked(double size_items) const {
  if (!(size_items >= 1.0)) return 0.0;
  double hits = 0.0;
  for (int i = 0; i < kDistBuckets; ++i) {
    const uint64_t count = dist_hist_[static_cast<size_t>(i)];
    if (count == 0) continue;
    const double upper = DistBucketUpper(i);
    if (upper <= size_items) {
      hits += static_cast<double>(count);
      continue;
    }
    const double lower = i == 0 ? 1.0 : DistBucketUpper(i - 1);
    if (lower < size_items) {
      // Straddled bucket: log-linear interpolation within the bucket.
      const double frac = (std::log2(size_items) - std::log2(lower)) /
                          (std::log2(upper) - std::log2(lower));
      hits += static_cast<double>(count) * frac;
    }
  }
  return hits;
}

double CacheAnalytics::PredictedMissRatioAt(uint64_t size_items) const {
  MutexLock lock(rd_mu_);
  if (sampled_accesses_ == 0) return 0.0;
  const double hits = HitsAtLocked(static_cast<double>(size_items));
  return 1.0 - hits / static_cast<double>(sampled_accesses_);
}

std::array<CacheAnalytics::WhatIfPoint, 3> CacheAnalytics::LruWhatIf() const {
  MutexLock lock(rd_mu_);
  std::array<WhatIfPoint, 3> out;
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].size_items = (ref_size_items_ << i) >> 1;
    if (what_if_accesses_ > 0) {
      out[i].hit_ratio = static_cast<double>(what_if_hits_[i]) /
                         static_cast<double>(what_if_accesses_);
    }
  }
  return out;
}

std::vector<CacheAnalytics::MrcPoint> CacheAnalytics::Mrc() const {
  MutexLock lock(rd_mu_);
  std::vector<MrcPoint> out;
  if (sampled_accesses_ == 0) return out;
  int hi = 0;
  for (int i = 0; i < kDistBuckets; ++i) {
    if (dist_hist_[static_cast<size_t>(i)] != 0) hi = i;
  }
  const int last = std::min(hi + 1, kDistBuckets - 1);
  double cum = 0.0;
  for (int i = 0; i <= last; ++i) {
    cum += static_cast<double>(dist_hist_[static_cast<size_t>(i)]);
    const uint64_t size =
        static_cast<uint64_t>(std::llround(DistBucketUpper(i)));
    const double ratio = 1.0 - cum / static_cast<double>(sampled_accesses_);
    if (!out.empty() && out.back().size_items == size) {
      out.back().miss_ratio = ratio;  // later edge rounds to the same size
    } else {
      out.push_back(MrcPoint{size, ratio});
    }
  }
  return out;
}

uint64_t CacheAnalytics::sampled_accesses() const {
  MutexLock lock(rd_mu_);
  return sampled_accesses_;
}

uint64_t CacheAnalytics::tracked_keys() const {
  MutexLock lock(rd_mu_);
  return occupied_;
}

uint64_t CacheAnalytics::overflow_evictions() const {
  MutexLock lock(rd_mu_);
  return overflow_evictions_;
}

CacheAnalytics::MissBreakdown CacheAnalytics::miss_breakdown() const {
  MissBreakdown b;
  b.accesses = total_accesses_.load(std::memory_order_relaxed);
  b.hits = total_hits_.load(std::memory_order_relaxed);
  b.misses = b.accesses >= b.hits ? b.accesses - b.hits : 0;
  b.compulsory = miss_compulsory_.load(std::memory_order_relaxed);
  b.capacity = miss_capacity_.load(std::memory_order_relaxed);
  b.invalidation = miss_invalidation_.load(std::memory_order_relaxed);
  return b;
}

void CacheAnalytics::HllAdd(uint64_t key) {
  // A second hash stream (constant-xored input) decorrelates the sketch
  // from the sampling gate, which consumes Mix64(key) directly.
  const uint64_t h = Mix64(key ^ 0x5851f42d4c957f2dULL);
  const size_t idx = static_cast<size_t>(h >> 56);
  const uint64_t w = h << 8;
  const uint64_t rank =
      w == 0 ? 57 : static_cast<uint64_t>(std::countl_zero(w)) + 1;
  uint64_t old = hll_cur_[idx].load(std::memory_order_relaxed);
  while (old < rank && !hll_cur_[idx].compare_exchange_weak(
                           old, rank, std::memory_order_relaxed)) {
  }
}

double CacheAnalytics::EstimateCurrentCardinality() const {
  std::array<uint64_t, kHllRegisters> regs;
  for (size_t i = 0; i < kHllRegisters; ++i) {
    regs[i] = hll_cur_[i].load(std::memory_order_relaxed);
  }
  return EstimateFromRegisters(regs.data(), kHllRegisters);
}

void CacheAnalytics::RotateWindow() {
  MutexLock lock(ws_mu_);
  std::array<uint64_t, kHllRegisters> cur;
  for (size_t i = 0; i < kHllRegisters; ++i) {
    cur[i] = hll_cur_[i].exchange(0, std::memory_order_relaxed);
  }
  const double cur_card = EstimateFromRegisters(cur.data(), kHllRegisters);
  if (windows_completed_ > 0) {
    // Jaccard by inclusion-exclusion over the merged (register-max) sketch.
    std::array<uint64_t, kHllRegisters> merged;
    for (size_t i = 0; i < kHllRegisters; ++i) {
      merged[i] = std::max(cur[i], hll_prev_[i]);
    }
    const double u = EstimateFromRegisters(merged.data(), kHllRegisters);
    const double inter = prev_cardinality_ + cur_card - u;
    last_jaccard_ =
        (u > 0.0 && inter > 0.0) ? std::min(inter / u, 1.0) : 0.0;
  }
  hll_prev_ = cur;
  prev_cardinality_ = cur_card;
  ++windows_completed_;
}

CacheAnalytics::WorkingSet CacheAnalytics::working_set() const {
  WorkingSet ws;
  ws.current_cardinality = EstimateCurrentCardinality();
  MutexLock lock(ws_mu_);
  ws.previous_cardinality = prev_cardinality_;
  ws.jaccard = last_jaccard_;
  ws.windows = windows_completed_;
  return ws;
}

void CacheAnalytics::BindMetrics(MetricsRegistry* registry) {
  MutexLock lock(publish_mu_);
  registry_ = registry;
  // Delta-base so pre-bind history is not replayed into a fresh registry;
  // subsequent PublishMetrics calls move deltas only.
  published_ = miss_breakdown();
}

void CacheAnalytics::PublishMetrics() {
  MutexLock lock(publish_mu_);
  if (registry_ == nullptr) return;
  const MissBreakdown cur = miss_breakdown();
  auto delta = [](uint64_t c, uint64_t p) { return c >= p ? c - p : 0; };
  registry_->GetCounter("cache.miss.compulsory")
      ->Add(delta(cur.compulsory, published_.compulsory));
  registry_->GetCounter("cache.miss.capacity")
      ->Add(delta(cur.capacity, published_.capacity));
  registry_->GetCounter("cache.miss.invalidation")
      ->Add(delta(cur.invalidation, published_.invalidation));
  published_ = cur;

  registry_->GetGauge("cache.mrc.sampling_rate")->Set(options_.sampling_rate);
  {
    MutexLock rd(rd_mu_);
    registry_->GetGauge("cache.mrc.sampled_accesses")
        ->Set(static_cast<double>(sampled_accesses_));
    registry_->GetGauge("cache.mrc.tracked_keys")
        ->Set(static_cast<double>(occupied_));
    registry_->GetGauge("cache.mrc.cold_misses")
        ->Set(static_cast<double>(cold_sampled_));
    const uint64_t ref = ref_size_items_;
    if (ref > 0 && sampled_accesses_ > 0) {
      const double hits = HitsAtLocked(static_cast<double>(ref));
      registry_->GetGauge("cache.mrc.ref_size_items")
          ->Set(static_cast<double>(ref));
      registry_->GetGauge("cache.mrc.predicted_miss_ratio")
          ->Set(1.0 - hits / static_cast<double>(sampled_accesses_));
    }
  }
  const std::array<WhatIfPoint, 3> panel = LruWhatIf();
  if (panel[1].size_items > 0) {  // a reference size is set
    registry_->GetGauge("cache.mrc.lru_half.hit_ratio")
        ->Set(panel[0].hit_ratio);
    registry_->GetGauge("cache.mrc.lru_1x.hit_ratio")->Set(panel[1].hit_ratio);
    registry_->GetGauge("cache.mrc.lru_2x.hit_ratio")->Set(panel[2].hit_ratio);
  }

  const WorkingSet ws = working_set();
  registry_->GetGauge("cache.ws.current_cardinality")
      ->Set(ws.current_cardinality);
  registry_->GetGauge("cache.ws.previous_cardinality")
      ->Set(ws.previous_cardinality);
  registry_->GetGauge("cache.ws.jaccard")->Set(ws.jaccard);
  registry_->GetGauge("cache.analytics.generation_swaps")
      ->Set(static_cast<double>(
          generation_swaps_.load(std::memory_order_relaxed)));
}

std::string CacheAnalytics::MrcJson() const {
  const MissBreakdown mb = miss_breakdown();
  const WorkingSet ws = working_set();
  const std::vector<MrcPoint> points = Mrc();
  uint64_t sampled = 0;
  uint64_t cold = 0;
  uint64_t tracked = 0;
  uint64_t overflow = 0;
  {
    MutexLock lock(rd_mu_);
    sampled = sampled_accesses_;
    cold = cold_sampled_;
    tracked = occupied_;
    overflow = overflow_evictions_;
  }
  std::string out;
  AppendF(&out, "{\"schema_version\":1,\"sampling_rate\":%.9g",
          options_.sampling_rate);
  AppendF(&out,
          ",\"total_accesses\":%" PRIu64 ",\"sampled_accesses\":%" PRIu64
          ",\"cold_sampled\":%" PRIu64 ",\"tracked_keys\":%" PRIu64
          ",\"overflow_evictions\":%" PRIu64,
          mb.accesses, sampled, cold, tracked, overflow);
  const uint64_t ref = reference_size();
  if (ref > 0 && sampled > 0) {
    AppendF(&out,
            ",\"reference\":{\"size_items\":%" PRIu64
            ",\"predicted_miss_ratio\":%.9g}",
            ref, PredictedMissRatioAt(ref));
  }
  if (ref > 0) {
    const std::array<WhatIfPoint, 3> panel = LruWhatIf();
    out += ",\"lru_what_if\":[";
    for (size_t i = 0; i < panel.size(); ++i) {
      AppendF(&out, "%s{\"size_items\":%" PRIu64 ",\"hit_ratio\":%.9g}",
              i == 0 ? "" : ",", panel[i].size_items, panel[i].hit_ratio);
    }
    out += "]";
  }
  AppendF(&out,
          ",\"miss_classes\":{\"compulsory\":%" PRIu64
          ",\"capacity\":%" PRIu64 ",\"invalidation\":%" PRIu64
          ",\"misses\":%" PRIu64 "}",
          mb.compulsory, mb.capacity, mb.invalidation, mb.misses);
  AppendF(&out,
          ",\"working_set\":{\"current_cardinality\":%.9g"
          ",\"previous_cardinality\":%.9g,\"jaccard\":%.9g"
          ",\"windows\":%" PRIu64 "}",
          ws.current_cardinality, ws.previous_cardinality, ws.jaccard,
          ws.windows);
  out += ",\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    AppendF(&out, "%s{\"size_items\":%" PRIu64 ",\"miss_ratio\":%.9g}",
            i == 0 ? "" : ",", points[i].size_items, points[i].miss_ratio);
  }
  out += "]}";
  return out;
}

}  // namespace eeb::obs
