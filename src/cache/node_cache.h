// Leaf-node caches for tree-based indexes (paper Sec. 3.6.1): the cache item
// is a whole leaf node. EXACT caching stores the full points of the node;
// approximate caching stores their histogram codes, so several times more
// leaves fit in the same budget — the effect Fig. 16 measures.

#ifndef EEB_CACHE_NODE_CACHE_H_
#define EEB_CACHE_NODE_CACHE_H_

#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "cache/code_store.h"
#include "cache/knn_cache.h"
#include "hist/bounds.h"
#include "hist/histogram.h"

namespace eeb::cache {

/// Callback invoked per point of a cached node: (id, lb, ub). Exact caches
/// pass lb == ub == exact distance.
using NodePointFn = std::function<void(PointId, double, double)>;

/// Abstract leaf-node cache.
class NodeCache {
 public:
  virtual ~NodeCache() = default;

  /// Probes node `node`. On a hit, invokes `fn` for every point stored in
  /// the node with its distance bounds w.r.t. `q` and returns true.
  virtual bool ProbeNode(uint32_t node, std::span<const Scalar> q,
                         const NodePointFn& fn) = 0;

  /// Number of cached nodes.
  virtual size_t size() const = 0;

  /// True when hits report exact distances (lb == ub == dist), in which
  /// case the search can resolve cached points without fetching the leaf.
  virtual bool exact() const { return false; }

  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

 protected:
  CacheStats stats_;
};

/// EXACT leaf cache: full-precision points per node.
class ExactNodeCache : public NodeCache {
 public:
  explicit ExactNodeCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Static HFF fill: nodes in descending access frequency. `leaf_points`
  /// maps node -> member ids; points come from `data`.
  Status Fill(const Dataset& data,
              const std::vector<std::vector<PointId>>& leaf_points,
              std::span<const uint32_t> nodes_by_freq);

  bool ProbeNode(uint32_t node, std::span<const Scalar> q,
                 const NodePointFn& fn) override;

  size_t size() const override { return nodes_.size(); }
  bool exact() const override { return true; }
  size_t bytes_used() const { return bytes_used_; }

 private:
  struct NodeData {
    std::vector<PointId> ids;
    std::vector<Scalar> values;  // ids.size() * dim
  };

  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  size_t dim_ = 0;
  std::unordered_map<uint32_t, NodeData> nodes_;
};

/// Approximate leaf cache: per-node packed histogram codes (global H).
class ApproxNodeCache : public NodeCache {
 public:
  /// The histogram must outlive the cache. `integral` enables the tight
  /// integer-domain interval edges (see hist/bounds.h).
  ApproxNodeCache(const hist::Histogram* h, size_t dim, size_t capacity_bytes,
                  bool integral = false);

  Status Fill(const Dataset& data,
              const std::vector<std::vector<PointId>>& leaf_points,
              std::span<const uint32_t> nodes_by_freq);

  bool ProbeNode(uint32_t node, std::span<const Scalar> q,
                 const NodePointFn& fn) override;

  size_t size() const override { return nodes_.size(); }
  size_t bytes_used() const { return bytes_used_; }

  /// Bytes one point occupies in this cache (codes only).
  size_t point_bytes() const { return CodeStore(dim_, tau_).item_bytes(); }

 private:
  struct NodeData {
    std::vector<PointId> ids;
    CodeStore codes;  // one slot per point, in `ids` order
  };

  const hist::Histogram* hist_;
  size_t dim_;
  bool integral_;
  uint32_t tau_;
  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  std::unordered_map<uint32_t, NodeData> nodes_;
  std::vector<BucketId> scratch_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_NODE_CACHE_H_
