#include "cache/code_cache.h"

#include <algorithm>

namespace eeb::cache {
namespace {

uint32_t ClampValue(Scalar v, uint32_t ndom) {
  if (v < 0) return 0;
  uint32_t x = static_cast<uint32_t>(v);
  return x >= ndom ? ndom - 1 : x;
}

uint32_t TauFor(uint32_t num_buckets) {
  return std::max<uint32_t>(1, CeilLog2(num_buckets));
}

}  // namespace

void EncodeGlobal(const hist::Histogram& h, std::span<const Scalar> p,
                  std::span<BucketId> out) {
  const uint32_t ndom = h.ndom();
  for (size_t j = 0; j < p.size(); ++j) {
    out[j] = h.Lookup(ClampValue(p[j], ndom));
  }
}

void EncodeIndividual(const hist::IndividualHistograms& hs,
                      std::span<const Scalar> p, std::span<BucketId> out) {
  for (size_t j = 0; j < p.size(); ++j) {
    const hist::Histogram& h = hs.at(j);
    out[j] = h.Lookup(ClampValue(p[j], h.ndom()));
  }
}

CodeCacheBase::CodeCacheBase(size_t codes_per_item, uint32_t tau,
                             size_t capacity_bytes, bool lru)
    : SlotCache(capacity_bytes, CodeStore(codes_per_item, tau).item_bytes(),
                lru),
      dim_(codes_per_item),
      store_(codes_per_item, tau) {}

std::span<BucketId> CodeCacheBase::Scratch() const {
  thread_local std::vector<BucketId> buf;
  if (buf.size() < dim_) buf.resize(dim_);
  return {buf.data(), dim_};
}

void CodeCacheBase::AdmitCodes(PointId id, std::span<const BucketId> codes) {
  MutexLock lock(mu_);
  const uint32_t slot = AdmitSlot(id);
  if (slot != kNoSlot) store_.Write(slot, codes);
}

uint32_t CodeCacheBase::AppendSlot() { return store_.AllocateSlot(); }

void CodeCacheBase::ReadSlot(uint32_t slot, std::span<const Scalar>, double*,
                             double*) {
  store_.Read(slot, Scratch());
}

HistCodeCache::HistCodeCache(const hist::Histogram* h, size_t dim,
                             size_t capacity_bytes, bool lru, bool integral)
    : CodeCacheBase(dim, TauFor(h->num_buckets()), capacity_bytes, lru),
      hist_(h),
      integral_(integral) {}

Status HistCodeCache::Fill(const Dataset& data,
                           std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  std::span<BucketId> buf = Scratch();
  MutexLock lock(mu_);  // pre-publication, uncontended (see FillSlot)
  for (PointId id : ids_by_freq) {
    if (full()) break;
    const uint32_t slot = FillSlot(id);
    if (slot == kNoSlot) continue;
    EncodeGlobal(*hist_, data.point(id), buf);
    store_.Write(slot, buf);
  }
  return Status::OK();
}

bool HistCodeCache::Probe(std::span<const Scalar> q, PointId id, double* lb,
                          double* ub) {
  if (!Lookup(q, id, lb, ub)) return false;
  hist::CodeBoundsGlobal(*hist_, q, Scratch(), lb, ub, integral_);
  return true;
}

void HistCodeCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!admits()) return;
  std::span<BucketId> codes = Scratch();
  EncodeGlobal(*hist_, exact, codes);
  AdmitCodes(id, codes);
}

IndividualCodeCache::IndividualCodeCache(const hist::IndividualHistograms* hs,
                                         uint32_t num_buckets,
                                         size_t capacity_bytes, bool lru,
                                         bool integral)
    : CodeCacheBase(hs->dim(), TauFor(num_buckets), capacity_bytes, lru),
      hists_(hs),
      integral_(integral) {}

Status IndividualCodeCache::Fill(const Dataset& data,
                                 std::span<const PointId> ids_by_freq) {
  if (data.dim() != dim_) {
    return Status::InvalidArgument("dataset dim mismatch");
  }
  std::span<BucketId> buf = Scratch();
  MutexLock lock(mu_);  // pre-publication, uncontended (see FillSlot)
  for (PointId id : ids_by_freq) {
    if (full()) break;
    const uint32_t slot = FillSlot(id);
    if (slot == kNoSlot) continue;
    EncodeIndividual(*hists_, data.point(id), buf);
    store_.Write(slot, buf);
  }
  return Status::OK();
}

bool IndividualCodeCache::Probe(std::span<const Scalar> q, PointId id,
                                double* lb, double* ub) {
  if (!Lookup(q, id, lb, ub)) return false;
  hist::CodeBoundsIndividual(*hists_, q, Scratch(), lb, ub, integral_);
  return true;
}

void IndividualCodeCache::Admit(PointId id, std::span<const Scalar> exact) {
  if (!admits()) return;
  std::span<BucketId> codes = Scratch();
  EncodeIndividual(*hists_, exact, codes);
  AdmitCodes(id, codes);
}

}  // namespace eeb::cache
