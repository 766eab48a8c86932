// The paper's kNN search engine (Algorithm 1 / Fig. 3):
//   Phase 1  candidate generation   — index I reports C(q)        (I/O)
//   Phase 2  candidate reduction    — cache probes give [lb, ub] bounds;
//            early pruning (lb > ubk) and true-result detection (ub < lbk)
//            shrink C(q) without touching the disk                (no I/O)
//   Phase 3  candidate refinement   — optimal multi-step kNN [Seidl &
//            Kriegel '98] fetches surviving candidates in lb order (I/O)
//
// The engine is generic over the cache flavor (EXACT / HC-* / C-VA / mHC-R)
// and never changes query results: the returned ids equal the no-cache ids.
//
// Concurrency (docs/CONCURRENCY.md): Query is safe to call from many
// threads at once provided the index, point file and cache are themselves
// thread-safe on their read paths (all in-tree implementations are). Each
// query pins one shared_ptr snapshot of the cache at entry, so set_cache —
// the maintenance rebuild publication point — can swap in a new cache
// generation while queries are in flight; in-flight queries finish against
// the generation they started with. Trace events are a buffer owned by the
// query's own result, so tracing works on every path.

#ifndef EEB_CORE_KNN_ENGINE_H_
#define EEB_CORE_KNN_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "cache/knn_cache.h"
#include "index/candidate_index.h"
#include "obs/cache_analytics.h"
#include "obs/recorder.h"
#include "storage/io_stats.h"
#include "storage/point_file.h"

namespace eeb::core {

/// Per-query result: the answer plus the per-query record. Every funnel
/// count, phase time, bound and cause lives in the obs::QueryExplain base
/// (docs/OBSERVABILITY.md), written once by the engine; the flight recorder
/// stores the same bytes by slicing.
struct QueryResult : obs::QueryExplain {
  std::vector<PointId> result_ids;  ///< the k nearest ids (Def. 3)
  storage::IoStats gen_io;     ///< index accesses (phase 1)
  storage::IoStats refine_io;  ///< point fetches (phases 2-3)
  /// Per-candidate events, filled only when EngineOptions::trace_events is
  /// set; at most a few per candidate, so bounded by a small multiple of
  /// |C(q)|.
  std::vector<obs::TraceEvent> events;
};

/// Engine options.
struct EngineOptions {
  /// Apply Lines 12-13 of Algorithm 1 (move sure results to R without
  /// fetching them). Disable for strict tie determinism in tests.
  bool true_result_detection = true;

  /// Paper footnote 6: fetch cache-missed candidates from disk immediately
  /// during reduction so lbk/ubk are exact for them and tighten the bounds
  /// used for pruning. The fetched points are not re-read in phase 3. The
  /// paper notes this only helps at middling hit ratios; the flag lets the
  /// ablation bench quantify that.
  bool eager_miss_fetch = false;

  /// When a candidate's disk read ultimately fails (transient IOError after
  /// the Env-level retry budget, or a page-checksum Corruption), score the
  /// candidate by its cached upper bound instead of failing the whole query;
  /// the result is flagged degraded. Disable to propagate the error (strict
  /// mode — the pre-fault-tolerance behavior).
  bool degraded_fallback = true;

  /// Per-query wall-clock deadline in milliseconds, enforced across all
  /// three phases: checked at the generation boundary, every 32 candidates
  /// inside the reduction probe loop, and per fetch (page boundary) inside
  /// refinement. Once crossed, remaining probes stop and unresolved
  /// candidates are resolved from cached bounds instead of disk (degraded,
  /// deadline_hit). 0 disables the deadline.
  double deadline_ms = 0.0;

  /// Record per-candidate cause-tagged events (cache hit, prune, fetch,
  /// page read, ...) into QueryResult::events. Off by default: the untraced
  /// path pays one branch per event site.
  bool trace_events = false;
};

/// Cache-assisted kNN query processor.
class KnnEngine {
 public:
  /// All dependencies are borrowed and must outlive the engine. `cache` may
  /// be nullptr (the NO-CACHE baseline).
  KnnEngine(index::CandidateIndex* index, const storage::PointFile* points,
            cache::KnnCache* cache, EngineOptions options = {})
      : index_(index),
        points_(points),
        cache_(std::shared_ptr<cache::KnnCache>{}, cache),  // non-owning
        options_(options) {}

  /// Executes a kNN query (Algorithm 1) under EngineOptions::deadline_ms.
  /// Thread-safe (see header comment).
  Status Query(std::span<const Scalar> q, size_t k, QueryResult* out);

  /// Snapshot of the currently published cache (may be empty/nullptr).
  std::shared_ptr<cache::KnnCache> cache() EEB_EXCLUDES(cache_mu_) {
    MutexLock lock(cache_mu_);
    return cache_;
  }

  /// Publishes a new cache generation. In-flight queries keep their pinned
  /// snapshot; queries entering afterwards see `cache`. When the shared_ptr
  /// owns (or aliases) the histograms backing the cache, the whole bundle
  /// stays alive until the last in-flight reader drops it.
  void set_cache(std::shared_ptr<cache::KnnCache> cache)
      EEB_EXCLUDES(cache_mu_) {
    MutexLock lock(cache_mu_);
    cache_ = std::move(cache);
  }

  /// Attaches the cache-introspection instrument; every cache probe then
  /// feeds OnAccess(candidate, hit) — reuse-distance sampling, miss
  /// classification, working-set sketches. nullptr (default) disables it.
  void set_analytics(obs::CacheAnalytics* analytics) {
    analytics_ = analytics;
  }

 private:
  index::CandidateIndex* const index_;
  const storage::PointFile* const points_;
  Mutex cache_mu_;  // guards cache_ publication vs. query snapshots
  std::shared_ptr<cache::KnnCache> cache_ EEB_GUARDED_BY(cache_mu_);
  const EngineOptions options_;
  obs::CacheAnalytics* analytics_ EEB_UNGUARDED(
      "attached by single-threaded setup before queries run; the instrument "
      "itself is thread-safe on its access path") = nullptr;
};

}  // namespace eeb::core

#endif  // EEB_CORE_KNN_ENGINE_H_
