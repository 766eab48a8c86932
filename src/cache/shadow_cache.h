// Shadow caches: key-only LRU/FIFO simulations of alternative cache
// configurations, driven by the live probe stream. Each shadow sees exactly
// the candidate keys the real cache is probed with and answers the question
// "what hit ratio would configuration X get on this workload" — no
// payloads, no cached bounds, just membership and a replacement policy.
//
// A shadow is sized at construction (preallocated node pool, intrusive
// index-linked list, open-addressed key table), so OnAccess never
// allocates: one mutex, one table probe, at most one eviction. Hit/miss
// totals are plain relaxed atomics, so the windowed-metrics shadow tap
// reads them without taking any shadow's lock.
//
// Shadows deliberately survive cache generation swaps: the simulated
// configurations answer for the workload, not for any one published cache.

#ifndef EEB_CACHE_SHADOW_CACHE_H_
#define EEB_CACHE_SHADOW_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/key_table.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/window.h"

namespace eeb::cache {

struct ShadowConfig {
  enum class Policy { kLru, kFifo };

  std::string name;  // metric segment; sanitized to [a-z0-9_] on use
  size_t capacity_items = 0;
  Policy policy = Policy::kLru;
};

const char* ShadowPolicyName(ShadowConfig::Policy policy);

/// Lowercases and maps every character outside [a-z0-9_] to '_' so the name
/// always forms a valid metric segment ("shadow" when empty).
std::string SanitizeShadowName(const std::string& raw);

/// Parses a comma-separated shadow spec. Each entry is either
/// "<policy>:<capacity_items>" (named "<policy>_<capacity>") or
/// "<name>:<policy>:<capacity_items>"; policy is "lru" or "fifo".
/// E.g. "lru:512,fifo:512,big:lru:2048".
Status ParseShadowConfigs(const std::string& spec,
                          std::vector<ShadowConfig>* out);

/// A spread of configurations around the live cache's capacity: LRU at
/// half/same/double the size plus FIFO at the same size — the standard
/// "would a different size or policy pay off" panel.
std::vector<ShadowConfig> DefaultShadowConfigs(size_t capacity_items);

class ShadowCache {
 public:
  explicit ShadowCache(ShadowConfig config);

  ShadowCache(const ShadowCache&) = delete;
  ShadowCache& operator=(const ShadowCache&) = delete;

  /// Simulates one probe of `key`: a hit refreshes recency (LRU only); a
  /// miss admits the key, evicting per policy when full. Allocation-free.
  void OnAccess(uint64_t key) EEB_EXCLUDES(mu_);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const EEB_EXCLUDES(mu_);
  const ShadowConfig& config() const { return config_; }

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    uint64_t key = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  void UnlinkLocked(uint32_t node) EEB_REQUIRES(mu_);
  void PushFrontLocked(uint32_t node) EEB_REQUIRES(mu_);

  const ShadowConfig config_;

  mutable Mutex mu_;
  std::vector<Node> nodes_ EEB_GUARDED_BY(mu_);
  KeyTable table_ EEB_GUARDED_BY(mu_);  // key -> node
  uint32_t head_ EEB_GUARDED_BY(mu_) = kNil;
  uint32_t tail_ EEB_GUARDED_BY(mu_) = kNil;
  size_t size_ EEB_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

/// The set of shadows a probe stream fans out to, plus the lock-free tap
/// the windowed metrics pull simulated totals through.
class ShadowCacheSet {
 public:
  explicit ShadowCacheSet(std::vector<ShadowConfig> configs);

  ShadowCacheSet(const ShadowCacheSet&) = delete;
  ShadowCacheSet& operator=(const ShadowCacheSet&) = delete;

  void OnAccess(uint64_t key);

  /// Cumulative totals per shadow, in configuration order — the payload of
  /// WindowedMetrics::SetShadowTap. Reads no locks.
  std::vector<obs::ShadowTapEntry> TapSamples() const;

  size_t size() const { return shadows_.size(); }
  const ShadowCache& shadow(size_t i) const { return *shadows_[i]; }

 private:
  std::vector<std::unique_ptr<ShadowCache>> shadows_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_SHADOW_CACHE_H_
