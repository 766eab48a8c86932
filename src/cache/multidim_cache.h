// mHC-R cache (paper Sec. 3.6.2): the approximate representation of a point
// is the identifier of the R-tree-leaf bucket enclosing it — a single
// tau-bit code per point, so it is a code cache with one code per item.
// Probing returns MinDist/MaxDist of the query to the bucket's MBR. Static
// (HFF) policy only: assignments are fixed by the build-time space
// partition.

#ifndef EEB_CACHE_MULTIDIM_CACHE_H_
#define EEB_CACHE_MULTIDIM_CACHE_H_

#include <span>

#include "common/status.h"
#include "cache/code_cache.h"
#include "hist/multidim_histogram.h"

namespace eeb::cache {

/// Cache of single-code (bucket id) approximations under a multi-dimensional
/// histogram.
class MultiDimCodeCache : public CodeCacheBase {
 public:
  /// The histogram must outlive the cache.
  MultiDimCodeCache(const hist::MultiDimHistogram* h, size_t capacity_bytes);

  /// Static fill: `assignment[id]` is the bucket containing point `id`.
  /// Inserts ids in the given (frequency-descending) order until full.
  Status Fill(std::span<const PointId> ids_by_freq,
              std::span<const BucketId> assignment);

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;

 private:
  const hist::MultiDimHistogram* hist_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_MULTIDIM_CACHE_H_
