// Cache interface used by the kNN engine (paper Fig. 3). A cache answers a
// probe for candidate `id` with distance bounds [lb, ub] relative to the
// query: exact caches return lb == ub == dist, approximate (code) caches
// return the dist-/dist+ interval, misses return false. The engine treats
// all cache flavors uniformly, which is what makes the framework generic
// across EXACT / HC-* / C-VA / mHC-R.
//
// Concurrency: Probe/Admit are safe to call from many engine threads at
// once (docs/CONCURRENCY.md). Hit/miss/admission events land in per-thread
// counter shards — one cache-line-padded block of relaxed atomics per
// thread slot, so concurrent readers never bounce a shared line — and are
// merged on snapshot (stats(), PublishMetrics()). Static (HFF) caches are
// immutable after Fill and probe lock-free; LRU caches serialize their
// mutating probe/admission path behind an internal mutex (see SlotCache,
// the base of every point cache).

#ifndef EEB_CACHE_KNN_CACHE_H_
#define EEB_CACHE_KNN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace eeb::cache {

/// Hit/miss accounting for a cache (feeds rho_hit in the experiments).
/// Returned by value from KnnCache::stats() as a merged point-in-time
/// snapshot of the per-thread shards.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  void Reset() { *this = CacheStats{}; }
};

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

  /// Binds this cache's instruments in `registry` under `prefix`:
  /// hit/miss counters, HFF-fill and LRU-admission insert counters, an
  /// eviction counter, and occupancy/capacity/item-size gauges. Pass
  /// nullptr to detach. Safe to call again after a refill. Counters record
  /// activity from the moment of binding onward; events that happened while
  /// unbound are not replayed.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "cache") EEB_EXCLUDES(publish_mu_) {
    MutexLock lock(publish_mu_);
    if (registry == nullptr) {
      obs_ = Instruments{};
      return;
    }
    const bool was_bound = obs_.hits != nullptr;
    obs_.hits = registry->GetCounter(prefix + ".hits");
    obs_.misses = registry->GetCounter(prefix + ".misses");
    obs_.fill_inserts = registry->GetCounter(prefix + ".fill_inserts");
    obs_.admits = registry->GetCounter(prefix + ".admits");
    obs_.evictions = registry->GetCounter(prefix + ".evictions");
    obs_.items = registry->GetGauge(prefix + ".items");
    obs_.capacity = registry->GetGauge(prefix + ".capacity_items");
    obs_.item_size = registry->GetGauge(prefix + ".item_bytes");
    obs_.capacity->Set(static_cast<double>(capacity_items()));
    obs_.item_size->Set(static_cast<double>(item_bytes()));
    if (!was_bound) published_ = CurrentTotals();
    PublishLocked();
  }

  /// Flushes events accumulated since the previous publish into the bound
  /// instruments (one atomic add per counter) and refreshes the occupancy
  /// gauge. The engine calls this once per query; concurrent callers
  /// serialize on an internal mutex so each delta is pushed exactly once.
  /// No-op when unbound.
  void PublishMetrics() EEB_EXCLUDES(publish_mu_) {
    MutexLock lock(publish_mu_);
    PublishLocked();
  }

  /// Merged snapshot of the per-thread hit/miss shards. Concurrent probes
  /// may keep recording; each shard is read once (relaxed).
  CacheStats stats() const {
    const EventTotals t = CurrentTotals();
    return CacheStats{t.hits, t.misses};
  }

  /// Cumulative activity totals (merged shards), for the live-telemetry
  /// cache tap: obs::WindowedMetrics differences successive readings into
  /// windowed hit/admit/evict rates.
  struct CacheActivity {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t admits = 0;
    uint64_t evictions = 0;
  };
  CacheActivity activity() const {
    const EventTotals t = CurrentTotals();
    return CacheActivity{t.hits, t.misses, t.admits, t.evictions};
  }

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

 protected:
  // Event hooks implementations call instead of keeping their own tallies.
  // They are on the per-candidate hot path: one relaxed fetch_add on the
  // calling thread's private shard line — no shared-line contention, no
  // lock. PublishMetrics() merges the shards and moves deltas into the
  // registry.
  void NoteHit() { Shard().hits.fetch_add(1, std::memory_order_relaxed); }
  void NoteMiss() { Shard().misses.fetch_add(1, std::memory_order_relaxed); }
  void NoteFillInsert() {
    Shard().fill_inserts.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteAdmit() { Shard().admits.fetch_add(1, std::memory_order_relaxed); }
  void NoteEviction() {
    Shard().evictions.fetch_add(1, std::memory_order_relaxed);
  }
  // `size()` implementations must be safe to call concurrently with
  // probes/admissions (SlotCache keeps an atomic item count for this).
  void SyncOccupancy() EEB_REQUIRES(publish_mu_) {
    if (obs_.items != nullptr) obs_.items->Set(static_cast<double>(size()));
  }

  struct Instruments {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* fill_inserts = nullptr;
    obs::Counter* admits = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* items = nullptr;
    obs::Gauge* capacity = nullptr;
    obs::Gauge* item_size = nullptr;
  };

  // Cumulative event totals, merged across shards. `published_` remembers
  // the totals as of the last publish so only deltas are pushed into the
  // shared registry.
  struct EventTotals {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t fill_inserts = 0;
    uint64_t admits = 0;
    uint64_t evictions = 0;
  };

  EventTotals CurrentTotals() const {
    EventTotals t;
    for (const EventShard& s : shards_) {
      t.hits += s.hits.load(std::memory_order_relaxed);
      t.misses += s.misses.load(std::memory_order_relaxed);
      t.fill_inserts += s.fill_inserts.load(std::memory_order_relaxed);
      t.admits += s.admits.load(std::memory_order_relaxed);
      t.evictions += s.evictions.load(std::memory_order_relaxed);
    }
    return t;
  }

 private:
  // Number of counter shards. Threads are assigned slots round-robin at
  // first use; with a worker pool at or below this size every thread owns
  // its shard line exclusively. More threads than shards still works —
  // colliding threads share a line via the (still correct) relaxed atomics.
  static constexpr size_t kStatShards = 16;

  struct alignas(64) EventShard {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> fill_inserts{0};
    std::atomic<uint64_t> admits{0};
    std::atomic<uint64_t> evictions{0};
  };

  EventShard& Shard() {
    static std::atomic<size_t> next_slot{0};
    thread_local size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed) % kStatShards;
    return shards_[slot];
  }

  void PublishLocked() EEB_REQUIRES(publish_mu_) {
    if (obs_.hits == nullptr) return;
    const EventTotals now = CurrentTotals();
    obs_.hits->Add(now.hits - published_.hits);
    obs_.misses->Add(now.misses - published_.misses);
    obs_.fill_inserts->Add(now.fill_inserts - published_.fill_inserts);
    obs_.admits->Add(now.admits - published_.admits);
    obs_.evictions->Add(now.evictions - published_.evictions);
    published_ = now;
    SyncOccupancy();
  }

  EventShard shards_[kStatShards] EEB_UNGUARDED(
      "per-thread cache-line shards of relaxed atomics, merged on snapshot");
  Mutex publish_mu_;  // guards obs_ binding + published_ deltas
  EventTotals published_ EEB_GUARDED_BY(publish_mu_);
  Instruments obs_ EEB_GUARDED_BY(publish_mu_);
  std::atomic<uint64_t> generation_id_{0};
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_KNN_CACHE_H_
