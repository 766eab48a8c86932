#include "cache/exact_cache.h"

#include <cstring>

#include "common/distance.h"

namespace eeb::cache {

ExactCache::ExactCache(size_t dim, size_t capacity_bytes, bool lru)
    : SlotCache(capacity_bytes, dim * sizeof(Scalar), lru), dim_(dim) {}

Status ExactCache::Fill(const Dataset& data,
                        std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  MutexLock lock(mu_);  // pre-publication, uncontended (see FillSlot)
  for (PointId id : ids_by_freq) {
    if (full()) break;
    const uint32_t slot = FillSlot(id);
    if (slot != kNoSlot) WriteSlot(slot, data.point(id));
  }
  return Status::OK();
}

bool ExactCache::Probe(std::span<const Scalar> q, PointId id, double* lb,
                       double* ub) {
  return Lookup(q, id, lb, ub);
}

void ExactCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!admits()) return;
  bool evicted = false;
  {
    MutexLock lock(mu_);
    const uint32_t slot = AdmitSlot(id, &evicted);
    if (slot == kNoSlot) return;
    WriteSlot(slot, exact);
  }
  PublishAdmit(evicted);
}

uint32_t ExactCache::AppendSlot() {
  const uint32_t slot = static_cast<uint32_t>(values_.size() / dim_);
  values_.resize(values_.size() + dim_);
  return slot;
}

void ExactCache::ReadSlot(uint32_t slot, std::span<const Scalar> q,
                          double* lb, double* ub) {
  const double d =
      L2(q, {values_.data() + static_cast<size_t>(slot) * dim_, dim_});
  *lb = d;
  *ub = d;
}

void ExactCache::WriteSlot(uint32_t slot, std::span<const Scalar> p) {
  std::memcpy(values_.data() + static_cast<size_t>(slot) * dim_, p.data(),
              dim_ * sizeof(Scalar));
}

}  // namespace eeb::cache
