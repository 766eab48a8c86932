// Cache interface used by the kNN engine (paper Fig. 3). A cache answers a
// probe for candidate `id` with distance bounds [lb, ub] relative to the
// query: exact caches return lb == ub == dist, approximate (code) caches
// return the dist-/dist+ interval, misses return false. The engine treats
// all cache flavors uniformly, which is what makes the framework generic
// across EXACT / HC-* / C-VA / mHC-R.
//
// Concurrency: Probe/Admit are safe to call from many engine threads at
// once (docs/CONCURRENCY.md). Static (HFF) caches are immutable after Fill
// and probe lock-free; LRU caches serialize their mutating probe/admission
// path behind an internal mutex (see SlotCache, the base of every point
// cache). A cache counts only what the per-query record cannot hold: its
// admissions and evictions. Probe hits and misses are the record's
// (QueryExplain::cache_hits), and System's sink folds them.

#ifndef EEB_CACHE_KNN_CACHE_H_
#define EEB_CACHE_KNN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "obs/metrics.h"

namespace eeb::cache {

/// Abstract cache of (approximate) point representations.
class KnnCache {
 public:
  virtual ~KnnCache() = default;

  /// Probes for candidate `id` against query `q`. On a hit returns true and
  /// fills `*lb` / `*ub`. On a miss returns false. Thread-safe.
  virtual bool Probe(std::span<const Scalar> q, PointId id, double* lb,
                     double* ub) = 0;

  /// Admission hook called by the engine after a candidate was fetched from
  /// disk (its exact coordinates are supplied). Static policies (HFF)
  /// ignore it; LRU caches insert/refresh. Thread-safe.
  virtual void Admit(PointId id, std::span<const Scalar> exact) {
    (void)id;
    (void)exact;
  }

  /// Bytes one cached item occupies (the paper's cache-size accounting).
  virtual size_t item_bytes() const = 0;

  /// Items currently cached.
  virtual size_t size() const = 0;

  /// Item capacity of the configured byte budget (0 if unbounded/unknown).
  virtual size_t capacity_items() const { return 0; }

  /// Binds this cache's instruments in `registry`: the cache.admits and
  /// cache.evictions counters and the cache.items, cache.capacity_items and
  /// cache.item_bytes gauges. Pass nullptr to detach. Counters record
  /// activity from the moment of binding onward. SlotCache, the base of
  /// every point cache, implements this and activity(); the defaults bind
  /// and count nothing.
  virtual void BindMetrics(obs::MetricsRegistry* registry) { (void)registry; }

  /// Cumulative admissions and evictions since construction. The live
  /// window's cache tap differences successive readings.
  struct CacheActivity {
    uint64_t admits = 0;
    uint64_t evictions = 0;
  };
  virtual CacheActivity activity() const { return {}; }

  /// Generation id stamped by the publisher (System::PublishGeneration):
  /// monotonically increasing, 0 = never published. Surfaced in per-query
  /// explain records so a slow query can be tied to the cache generation
  /// that served it.
  void set_generation_id(uint64_t id) {
    generation_id_.store(id, std::memory_order_relaxed);
  }
  uint64_t generation_id() const {
    return generation_id_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> generation_id_{0};
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_KNN_CACHE_H_
