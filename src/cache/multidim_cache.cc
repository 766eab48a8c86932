#include "cache/multidim_cache.h"

#include <algorithm>

namespace eeb::cache {

MultiDimCodeCache::MultiDimCodeCache(const hist::MultiDimHistogram* h,
                                     size_t capacity_bytes)
    : CodeCacheBase(/*codes_per_item=*/1,
                    std::max<uint32_t>(1, h->code_length()), capacity_bytes,
                    /*lru=*/false),
      hist_(h) {}

Status MultiDimCodeCache::Fill(std::span<const PointId> ids_by_freq,
                               std::span<const BucketId> assignment) {
  MutexLock lock(mu_);  // pre-publication, uncontended (see FillSlot)
  for (PointId id : ids_by_freq) {
    if (full()) break;
    if (id >= assignment.size()) {
      return Status::InvalidArgument("assignment table too small");
    }
    const uint32_t slot = FillSlot(id);
    if (slot != kNoSlot) store_.Write(slot, assignment.subspan(id, 1));
  }
  return Status::OK();
}

bool MultiDimCodeCache::Probe(std::span<const Scalar> q, PointId id,
                              double* lb, double* ub) {
  if (!Lookup(q, id, lb, ub)) return false;
  const hist::Mbr& mbr = hist_->bucket(Scratch()[0]);
  *lb = mbr.MinDist(q);
  *ub = mbr.MaxDist(q);
  return true;
}

}  // namespace eeb::cache
