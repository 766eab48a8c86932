// Histogram-code caches (the paper's proposal, Sec. 3): each cached item is
// the bit-packed approximate point p' — one tau-bit bucket position per
// dimension. A probe decodes the codes and returns the dist-/dist+ interval.
//
// Two flavors share the implementation:
//   HistCodeCache       — one global histogram H (HC-W/HC-D/HC-V/HC-O),
//   IndividualCodeCache — d per-dimension histograms (iHC-*); also used to
//                         realize the C-VA baseline (VA-file = per-dimension
//                         equi-depth encoding of all points).
// mHC-R (multidim_cache.h) is the same cache with one code per item.
//
// Concurrency (docs/CONCURRENCY.md): SlotCache owns the slot map, the
// policies and the lock. A static (HFF) probe is lock-free; an LRU probe
// decodes its slot under `mu_` into a thread_local buffer, and the bounds
// are computed from that buffer after the lock is released.

#ifndef EEB_CACHE_CODE_CACHE_H_
#define EEB_CACHE_CODE_CACHE_H_

#include <span>

#include "common/dataset.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cache/code_store.h"
#include "cache/slot_cache.h"
#include "hist/bounds.h"
#include "hist/histogram.h"
#include "hist/individual.h"

namespace eeb::cache {

/// Encodes an exact point into global-histogram bucket positions (Def. 8).
/// Coordinates are clamped into [0, ndom).
void EncodeGlobal(const hist::Histogram& h, std::span<const Scalar> p,
                  std::span<BucketId> out);

/// Encodes an exact point under per-dimension histograms.
void EncodeIndividual(const hist::IndividualHistograms& hs,
                      std::span<const Scalar> p, std::span<BucketId> out);

/// Common machinery of the code caches: the payload is a CodeStore of
/// `codes_per_item` tau-bit codes per item, and a hit decodes its slot.
class CodeCacheBase : public SlotCache {
 public:
  /// Immutable store config (fixed at construction); reading it through
  /// the mu_-guarded store_ member is lock-free by that invariant.
  size_t item_bytes() const override EEB_NO_THREAD_SAFETY_ANALYSIS {
    return store_.item_bytes();
  }
  /// Immutable store config, same invariant as item_bytes().
  uint32_t tau() const EEB_NO_THREAD_SAFETY_ANALYSIS {
    return store_.bits_per_code();
  }

 protected:
  CodeCacheBase(size_t codes_per_item, uint32_t tau, size_t capacity_bytes,
                bool lru);

  /// LRU admission of codes for `id` (encoded by the caller, outside the
  /// lock). Takes `mu_`.
  void AdmitCodes(PointId id, std::span<const BucketId> codes)
      EEB_EXCLUDES(mu_);

  /// Thread-local decode/encode scratch of dim_ entries, shared across
  /// cache instances (contents never outlive one call). On a hit, Lookup
  /// leaves the slot's codes here; the subclass's Probe turns them into
  /// bounds after the lock is released.
  std::span<BucketId> Scratch() const;

  const size_t dim_;  // codes per item: d, or 1 for mHC-R's bucket id
  CodeStore store_ EEB_GUARDED_BY(mu_);

 private:
  uint32_t AppendSlot() override EEB_REQUIRES(mu_);
  void ReadSlot(uint32_t slot, std::span<const Scalar> q, double* lb,
                double* ub) override EEB_REQUIRES(mu_);
};

/// Cache of codes under one global histogram.
class HistCodeCache : public CodeCacheBase {
 public:
  /// The histogram must outlive the cache. `integral` asserts that data
  /// coordinates are integers, enabling the paper-exact tight interval
  /// edges (see hist/bounds.h).
  HistCodeCache(const hist::Histogram* h, size_t dim, size_t capacity_bytes,
                bool lru = false, bool integral = false);

  /// Static HFF fill in the given (frequency-descending) id order.
  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

  const hist::Histogram& histogram() const { return *hist_; }

 private:
  const hist::Histogram* hist_;
  bool integral_;
};

/// Cache of codes under per-dimension histograms.
class IndividualCodeCache : public CodeCacheBase {
 public:
  IndividualCodeCache(const hist::IndividualHistograms* hs,
                      uint32_t num_buckets, size_t capacity_bytes,
                      bool lru = false, bool integral = false);

  Status Fill(const Dataset& data, std::span<const PointId> ids_by_freq);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

  void Admit(PointId id, std::span<const Scalar> exact) override;

 private:
  const hist::IndividualHistograms* hists_;
  bool integral_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_CODE_CACHE_H_
