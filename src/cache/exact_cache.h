// EXACT cache baseline (paper Sec. 5.1): caches full-precision points. A hit
// yields the exact distance (lb == ub), a miss forces a disk fetch. Supports
// the static HFF fill and the dynamic LRU policy (Fig. 8); the slot
// bookkeeping and both policies live in SlotCache.
//
// Concurrency: under LRU the distance over a hit's values is computed under
// SlotCache's `mu_` (docs/CONCURRENCY.md).

#ifndef EEB_CACHE_EXACT_CACHE_H_
#define EEB_CACHE_EXACT_CACHE_H_

#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cache/slot_cache.h"

namespace eeb::cache {

/// Cache of exact (full-precision) points.
class ExactCache : public SlotCache {
 public:
  /// @param dim             point dimensionality
  /// @param capacity_bytes  cache budget; item count = budget / item_bytes
  /// @param lru             true enables dynamic admission/eviction
  ExactCache(size_t dim, size_t capacity_bytes, bool lru = false);

  /// Static HFF fill: inserts points from `data` in the given order (callers
  /// pass ids sorted by descending workload frequency) until full.
  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

  size_t item_bytes() const override { return dim_ * sizeof(Scalar); }

 private:
  uint32_t AppendSlot() override EEB_REQUIRES(mu_);
  void ReadSlot(uint32_t slot, std::span<const Scalar> q, double* lb,
                double* ub) override EEB_REQUIRES(mu_);
  void WriteSlot(uint32_t slot, std::span<const Scalar> p) EEB_REQUIRES(mu_);

  const size_t dim_;
  std::vector<Scalar> values_ EEB_GUARDED_BY(mu_);  // slot-major storage
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_EXACT_CACHE_H_
