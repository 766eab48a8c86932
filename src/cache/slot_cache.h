// Slot bookkeeping shared by every point cache: EXACT, the code caches
// (HC-*, iHC-*, C-VA) and mHC-R. An item's payload sits in a fixed-size
// slot of a store its subclass owns (float values or a CodeStore).
// SlotCache owns everything else: which id holds which slot, the capacity,
// the HFF fill and LRU admission/eviction policy (paper Sec. 2.2, Fig. 8),
// and the hit/miss/fill/admit/evict accounting. A subclass keeps only its
// payload and what a hit computes from it (ReadSlot).
//
// Concurrency (docs/CONCURRENCY.md): a statically filled (HFF) cache is
// immutable after Fill, so lookups take no lock. Under LRU a lookup moves
// the id in the recency list and an admission may recycle a slot, so both
// hold `mu_`, the subclass's ReadSlot of the hit's slot included.

#ifndef EEB_CACHE_SLOT_CACHE_H_
#define EEB_CACHE_SLOT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "cache/knn_cache.h"

namespace eeb::cache {

/// Recency order over point ids (front = most recent).
class LruTracker {
 public:
  /// Inserts id at the front (most recent). Id must not be present.
  void Insert(PointId id) {
    order_.push_front(id);
    pos_[id] = order_.begin();
  }

  /// Moves an existing id to the front.
  void Touch(PointId id) {
    auto it = pos_.find(id);
    if (it == pos_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }

  /// Removes and returns the least recently used id.
  PointId EvictBack() {
    PointId victim = order_.back();
    order_.pop_back();
    pos_.erase(victim);
    return victim;
  }

 private:
  std::list<PointId> order_;
  std::unordered_map<PointId, std::list<PointId>::iterator> pos_;
};

/// Base of the point caches: id -> slot map, capacity and policy.
class SlotCache : public KnnCache {
 public:
  /// Items currently cached. Reads an atomic count maintained under `mu_`,
  /// so it is safe to call concurrently with LRU probes/admissions (the
  /// occupancy gauge publishes it once per query).
  size_t size() const override {
    return item_count_.load(std::memory_order_relaxed);
  }
  size_t capacity_items() const override { return capacity_items_; }

 protected:
  static constexpr uint32_t kNoSlot = ~uint32_t{0};

  /// Capacity is `capacity_bytes / item_bytes` items (0 if item_bytes is 0).
  SlotCache(size_t capacity_bytes, size_t item_bytes, bool lru)
      : lru_(lru),
        capacity_items_(item_bytes == 0 ? 0 : capacity_bytes / item_bytes) {}

  bool full() const EEB_REQUIRES(mu_) {
    return slot_of_.size() >= capacity_items_;
  }

  /// True when Admit has work to do: an LRU cache with room for an item.
  bool admits() const { return lru_ && capacity_items_ > 0; }

  /// Static (HFF) fill of `id` into a cache that is not full(): returns a
  /// new slot for its payload, or kNoSlot when the cache already holds
  /// `id`. Fill runs before the cache is published to engine threads; its
  /// callers hold `mu_` anyway (uncontended, once per build) so the
  /// analysis proves the writes.
  uint32_t FillSlot(PointId id) EEB_REQUIRES(mu_) {
    if (slot_of_.count(id)) return kNoSlot;
    const uint32_t slot = AppendSlot();
    slot_of_[id] = slot;
    if (lru_) lru_list_.Insert(id);
    item_count_.store(slot_of_.size(), std::memory_order_relaxed);
    NoteFillInsert();
    return slot;
  }

  /// LRU admission of `id` (requires admits()): refreshes a resident id and
  /// returns kNoSlot; otherwise returns the slot its payload goes to, a new
  /// one below capacity or else the evicted least recently used id's.
  uint32_t AdmitSlot(PointId id) EEB_REQUIRES(mu_) {
    if (slot_of_.count(id)) {
      lru_list_.Touch(id);
      return kNoSlot;
    }
    uint32_t slot;
    if (!full()) {
      slot = AppendSlot();
    } else {
      auto victim = slot_of_.find(lru_list_.EvictBack());
      slot = victim->second;
      slot_of_.erase(victim);
      NoteEviction();
    }
    slot_of_[id] = slot;
    lru_list_.Insert(id);
    item_count_.store(slot_of_.size(), std::memory_order_relaxed);
    NoteAdmit();
    return slot;
  }

  /// Probe bookkeeping: counts a hit or a miss for `id` and, on a hit,
  /// runs ReadSlot on its slot. Under LRU the recency touch and ReadSlot
  /// hold `mu_`, so a concurrent admission cannot recycle the slot mid-read.
  bool Lookup(std::span<const Scalar> q, PointId id, double* lb, double* ub)
      EEB_EXCLUDES(mu_) {
    if (!lru_) return LookupStatic(q, id, lb, ub);
    MutexLock lock(mu_);
    auto it = slot_of_.find(id);
    if (it == slot_of_.end()) {
      NoteMiss();
      return false;
    }
    NoteHit();
    lru_list_.Touch(id);
    ReadSlot(it->second, q, lb, ub);
    return true;
  }

  /// Grows the payload store by one slot and returns its index.
  virtual uint32_t AppendSlot() EEB_REQUIRES(mu_) = 0;

  /// What a hit computes from `slot`'s payload: [lb, ub] for q, or the
  /// decoded codes a code cache turns into bounds outside the lock.
  virtual void ReadSlot(uint32_t slot, std::span<const Scalar> q, double* lb,
                        double* ub) EEB_REQUIRES(mu_) = 0;

  Mutex mu_;  // guards the slot map, the recency list and the payload

 private:
  /// Static (HFF) lookup. Invariant that makes the suppression sound: a
  /// statically filled cache is immutable after Fill, and ConfigureCache
  /// builds the whole generation before publishing it to engine threads
  /// (core/system.cc), so these unlocked reads race with nothing.
  bool LookupStatic(std::span<const Scalar> q, PointId id, double* lb,
                    double* ub) EEB_NO_THREAD_SAFETY_ANALYSIS {
    auto it = slot_of_.find(id);
    if (it == slot_of_.end()) {
      NoteMiss();
      return false;
    }
    NoteHit();
    ReadSlot(it->second, q, lb, ub);
    return true;
  }

  const bool lru_;
  const size_t capacity_items_;
  std::unordered_map<PointId, uint32_t> slot_of_ EEB_GUARDED_BY(mu_);
  LruTracker lru_list_ EEB_GUARDED_BY(mu_);
  // Mirror of slot_of_.size(), refreshed under mu_ at the end of every
  // mutation; lets size() (and the occupancy gauge behind it) read
  // occupancy without taking the LRU lock.
  std::atomic<size_t> item_count_{0};
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_SLOT_CACHE_H_
