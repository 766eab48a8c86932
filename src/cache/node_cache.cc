#include "cache/node_cache.h"

#include <algorithm>
#include <cstring>

#include "common/distance.h"
#include "cache/code_cache.h"

namespace eeb::cache {

Status ExactNodeCache::Fill(
    const Dataset& data, const std::vector<std::vector<PointId>>& leaf_points,
    std::span<const uint32_t> nodes_by_freq) {
  dim_ = data.dim();
  const size_t per_point = dim_ * sizeof(Scalar) + sizeof(PointId);
  for (uint32_t node : nodes_by_freq) {
    if (node >= leaf_points.size()) {
      return Status::InvalidArgument("node id out of range");
    }
    const auto& ids = leaf_points[node];
    const size_t node_bytes = ids.size() * per_point;
    if (bytes_used_ + node_bytes > capacity_bytes_) break;
    NodeData nd;
    nd.ids = ids;
    nd.values.resize(ids.size() * dim_);
    for (size_t i = 0; i < ids.size(); ++i) {
      auto p = data.point(ids[i]);
      std::memcpy(nd.values.data() + i * dim_, p.data(),
                  dim_ * sizeof(Scalar));
    }
    nodes_.emplace(node, std::move(nd));
    bytes_used_ += node_bytes;
  }
  return Status::OK();
}

bool ExactNodeCache::ProbeNode(uint32_t node, std::span<const Scalar> q,
                               const NodePointFn& fn) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    stats_.misses++;
    return false;
  }
  stats_.hits++;
  const NodeData& nd = it->second;
  for (size_t i = 0; i < nd.ids.size(); ++i) {
    std::span<const Scalar> p{nd.values.data() + i * dim_, dim_};
    const double d = L2(q, p);
    fn(nd.ids[i], d, d);
  }
  return true;
}

ApproxNodeCache::ApproxNodeCache(const hist::Histogram* h, size_t dim,
                                 size_t capacity_bytes, bool integral)
    : hist_(h),
      dim_(dim),
      integral_(integral),
      tau_(std::max<uint32_t>(1, h->code_length())),
      capacity_bytes_(capacity_bytes),
      scratch_(dim) {}

Status ApproxNodeCache::Fill(
    const Dataset& data, const std::vector<std::vector<PointId>>& leaf_points,
    std::span<const uint32_t> nodes_by_freq) {
  if (data.dim() != dim_) return Status::InvalidArgument("dim mismatch");
  const size_t per_point = point_bytes() + sizeof(PointId);
  std::vector<BucketId> codes(dim_);
  for (uint32_t node : nodes_by_freq) {
    if (node >= leaf_points.size()) {
      return Status::InvalidArgument("node id out of range");
    }
    const auto& ids = leaf_points[node];
    const size_t node_bytes = ids.size() * per_point;
    if (bytes_used_ + node_bytes > capacity_bytes_) break;
    NodeData nd{ids, CodeStore(dim_, tau_)};
    for (PointId id : ids) {
      EncodeGlobal(*hist_, data.point(id), codes);
      nd.codes.Write(nd.codes.AllocateSlot(), codes);
    }
    nodes_.emplace(node, std::move(nd));
    bytes_used_ += node_bytes;
  }
  return Status::OK();
}

bool ApproxNodeCache::ProbeNode(uint32_t node, std::span<const Scalar> q,
                                const NodePointFn& fn) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    stats_.misses++;
    return false;
  }
  stats_.hits++;
  const NodeData& nd = it->second;
  for (size_t i = 0; i < nd.ids.size(); ++i) {
    nd.codes.Read(static_cast<uint32_t>(i), scratch_);
    double lb, ub;
    hist::CodeBoundsGlobal(*hist_, q, scratch_, &lb, &ub, integral_);
    fn(nd.ids[i], lb, ub);
  }
  return true;
}

}  // namespace eeb::cache
