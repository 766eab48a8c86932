// C2LSH [Gan et al., SIGMOD'12]: locality-sensitive hashing with dynamic
// collision counting. m atomic p-stable hash functions h_i(p) =
// floor((a_i . p + b_i) / w); a point becomes a candidate once it collides
// with the query in at least `l` functions. Search radii grow geometrically
// (virtual rehashing: at level r the bucket of key x is floor(x / c^r)),
// so one physical index serves every radius.
//
// The hash tables are conceptually disk-resident (bucket lists of ids); we
// keep them in RAM for speed but charge index I/O per bucket-list visit so
// the candidate-generation cost of paper Fig. 1 is reproduced. In RAM, each
// function's table is a run of 4-byte ids sorted by (key, id) plus a bucket
// directory (distinct keys and their start offsets).
//
// Concurrency: after Build the index is immutable; Candidates uses only
// thread_local collision-count scratch, so concurrent queries are safe
// (docs/CONCURRENCY.md).

#ifndef EEB_INDEX_LSH_C2LSH_H_
#define EEB_INDEX_LSH_C2LSH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "index/candidate_index.h"
#include "obs/metrics.h"

namespace eeb::index {

/// Tuning knobs; defaults follow the C2LSH paper's recommendations scaled to
/// our surrogate datasets.
struct C2LshOptions {
  uint32_t num_functions = 16;     ///< m (1..255), atomic hash functions
  uint32_t collision_threshold = 8;  ///< l (1..m), collisions to candidacy
  double bucket_width = 1.0;       ///< w; scaled by data spread at build
  double approximation_ratio = 2.0;  ///< c, radius growth factor
  uint32_t beta_candidates = 200;  ///< stop after k + beta candidates
  uint32_t max_levels = 24;        ///< virtual rehashing cap
  uint64_t seed = 42;
  /// When true, `bucket_width` is multiplied by the per-projection standard
  /// deviation so one setting works across datasets of different scales.
  bool auto_scale_width = true;
};

/// In-memory C2LSH index with per-query collision counting. Index I/O is
/// charged under the disk model: `lsh.entries_scanned` counts every entry of
/// each newly covered key range, including the final level's entries that
/// the count kernel no longer visits once k + beta candidates are out.
class C2Lsh : public CandidateIndex {
 public:
  /// Builds the index over `data`. The dataset reference must stay valid for
  /// the index lifetime (only for dim(); keys are materialized). Rejects
  /// options under which no point could become a candidate: m == 0, m > 255
  /// (collision counts are 8-bit), l == 0 or l > m.
  static Status Build(const Dataset& data, const C2LshOptions& options,
                      std::unique_ptr<C2Lsh>* out);

  Status Candidates(std::span<const Scalar> q, size_t k,
                    std::vector<PointId>* out,
                    storage::IoStats* stats) override;

  std::string name() const override { return "C2LSH"; }

  /// Terminal search radius R of the last query, in original distance units.
  /// Dmax = c * R feeds the cost model (Thm. 3). Under concurrent queries
  /// this reports whichever query finished last — observational only.
  double last_radius() const {
    return last_radius_.load(std::memory_order_relaxed);
  }

  /// Binds candidate-generation instruments (queries, bucket probes,
  /// entries scanned, sequential pages, candidates, terminal radius) in
  /// `registry`; nullptr detaches. `lsh.entries_scanned` counts the entries
  /// charged under the disk model, including those of the final level that
  /// the kernel skips once k + beta candidates are out.
  void BindMetrics(obs::MetricsRegistry* registry);

  const C2LshOptions& options() const { return options_; }

 private:
  C2Lsh(const C2LshOptions& options, size_t dim)
      : options_(options), dim_(dim) {}

  int64_t KeyFor(uint32_t func, std::span<const Scalar> p) const;

  C2LshOptions options_;
  size_t dim_;
  double width_;  // effective bucket width after auto-scaling
  size_t n_ = 0;

  // Projection vectors, row-major m x d, and one offset per function.
  std::vector<double> proj_;
  std::vector<double> shift_;
  // Function i's run ids_[i*n, (i+1)*n) holds every point id sorted by
  // (key, id), for interval widening during virtual rehashing.
  std::vector<PointId> ids_;
  // Function i's bucket directory: its distinct keys ascending, and each
  // key's start offset within the run plus one closing sentinel (n).
  struct Directory {
    std::vector<int64_t> keys;
    std::vector<uint32_t> starts;
  };
  std::vector<Directory> dirs_;

  std::atomic<double> last_radius_{0.0};

  // Bound instruments (nullptr when observability is off).
  struct Instruments {
    obs::Counter* queries = nullptr;
    obs::Counter* bucket_probes = nullptr;
    obs::Counter* entries_scanned = nullptr;
    obs::Counter* seq_page_reads = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Gauge* last_radius = nullptr;
  } obs_;
};

}  // namespace eeb::index

#endif  // EEB_INDEX_LSH_C2LSH_H_
