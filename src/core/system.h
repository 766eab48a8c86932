// System facade: assembles the full pipeline of paper Fig. 3 — disk-resident
// point file, C2LSH index, workload analysis, histogram construction, cache
// fill, and the query engine — behind one object. Benchmarks and examples
// configure a System per experiment cell instead of re-wiring modules.

#ifndef EEB_CORE_SYSTEM_H_
#define EEB_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "cache/code_cache.h"
#include "cache/exact_cache.h"
#include "cache/multidim_cache.h"
#include "core/cost_model.h"
#include "core/knn_engine.h"
#include "core/workload.h"
#include "hist/builders.h"
#include "hist/individual.h"
#include "hist/multidim_histogram.h"
#include "index/lsh/c2lsh.h"
#include "obs/cache_analytics.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "storage/env.h"
#include "storage/io_stats.h"
#include "storage/point_file.h"
#include "storage/retry_env.h"

namespace eeb::core {

/// The cache configurations evaluated in the paper (Sec. 5.1).
enum class CacheMethod {
  kNone,   ///< NO-CACHE baseline
  kExact,  ///< EXACT: full-precision points
  kHcW,    ///< global equi-width
  kHcV,    ///< global V-optimal
  kHcM,    ///< global MaxDiff (extension; classical family completion)
  kHcD,    ///< global equi-depth
  kHcO,    ///< global kNN-optimal (the paper's method)
  kIHcW,   ///< per-dimension equi-width
  kIHcD,   ///< per-dimension equi-depth
  kIHcO,   ///< per-dimension kNN-optimal
  kMHcR,   ///< multi-dimensional (R-tree) histogram
  kCVa,    ///< cache the whole VA-file (per-dim equi-depth, all points)
};

/// Short display name, e.g. "HC-O".
const char* CacheMethodName(CacheMethod method);

/// Physical ordering of the point file (Fig. 9).
enum class FileOrdering { kRaw, kClustered, kSortedKey };

struct SystemOptions {
  /// Value domain: every coordinate lies in [0, ndom); Create checks it.
  uint32_t ndom = 256;
  /// Data coordinates are integers in [0, ndom) (true for the generated
  /// surrogate datasets): enables the paper-exact tight bucket edges.
  /// Create rejects a fractional coordinate when set.
  bool integral_values = true;
  size_t analysis_k = 10;  ///< k used for workload analysis (QR shape)
  index::C2LshOptions lsh;
  size_t page_size = storage::kDefaultPageSize;
  FileOrdering ordering = FileOrdering::kRaw;
  uint64_t seed = 5;
  EngineOptions engine;  ///< forwarded to the KnnEngine
  /// Transient-IOError retry budget for point-file reads (Corruption is
  /// never retried). max_retries = 0 disables retrying.
  storage::RetryPolicy io_retry;
};

/// Aggregate statistics over a batch of queries.
struct AggregateResult {
  size_t queries = 0;
  double avg_candidates = 0.0;
  double avg_remaining = 0.0;     ///< Crefine after reduction
  double avg_fetched = 0.0;       ///< points actually fetched (multi-step)
  double avg_refine_pages = 0.0;  ///< refinement random-page I/O per query
  double avg_gen_pages = 0.0;     ///< index random-page I/O per query
  double avg_gen_seq_pages = 0.0;  ///< index sequential pages per query
  double hit_ratio = 0.0;         ///< rho_hit over the batch
  double prune_ratio = 0.0;       ///< rho_prune: pruned+sure over hits
  // Phase times are steady_clock wall time on the thread that ran each
  // query (not CPU time); refine includes the point reads' pread time.
  double avg_gen_cpu = 0.0;       ///< measured wall seconds, phase 1
  double avg_reduce_cpu = 0.0;    ///< measured wall seconds, phase 2
  double avg_refine_cpu = 0.0;    ///< measured wall seconds, phase 3
  double avg_gen_seconds = 0.0;   ///< phase 1 wall + modeled index I/O
  double avg_refine_seconds = 0.0;  ///< phases 2-3 wall + modeled I/O
  double avg_response_seconds = 0.0;  ///< total per query

  // Modeled per-query response-time distribution (tail latency matters to
  // interactive retrieval; the paper reports means only).
  double p50_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double p99_response_seconds = 0.0;

  // Degraded execution over the batch (0 on a healthy disk).
  size_t degraded_queries = 0;   ///< queries with any bound-substituted result
  double degraded_rate = 0.0;    ///< degraded_queries / queries
  double avg_substituted = 0.0;  ///< bound-substituted candidates per query
  size_t read_failures = 0;      ///< total reads that failed post-retry
  size_t deadline_cuts = 0;      ///< queries cut over by deadline_ms
};

/// Fully assembled kNN-search system with pluggable caching.
class System {
 public:
  /// Builds the offline state: writes the point file under `dir`, builds the
  /// C2LSH index, runs the workload analysis and derives F'/F. `data` and
  /// `workload` must outlive the system (no copies are made of `data`).
  /// Returns InvalidArgument, naming the point, dimension and value, when a
  /// coordinate is non-finite, outside [0, ndom), or fractional under
  /// integral_values.
  static Status Create(storage::Env* env, const std::string& dir,
                       const Dataset& data,
                       const std::vector<std::vector<Scalar>>& workload,
                       const SystemOptions& options,
                       std::unique_ptr<System>* out);

  /// Installs a cache. `tau == 0` lets the cost model choose (Sec. 4.2).
  /// `lru` switches from the default HFF fill to dynamic LRU caching.
  Status ConfigureCache(CacheMethod method, size_t cache_bytes,
                        uint32_t tau = 0, bool lru = false);

  /// Re-runs the workload analysis against a new query log (paper
  /// Sec. 3.5: the histogram/cache are rebuilt periodically from the
  /// latest log). Call ConfigureCache afterwards to rebuild the cache
  /// content; the installed cache keeps serving until then.
  Status RefreshWorkload(const std::vector<std::vector<Scalar>>& workload);

  /// Re-applies the most recent ConfigureCache arguments (after a
  /// RefreshWorkload, this rebuilds histogram + cache from the new stats).
  Status ReconfigureCache();

  /// Installs externally computed workload statistics — e.g. an EWMA blend
  /// over epochs from CacheMaintainer. `fprime` must be over
  /// options().ndom. Call ReconfigureCache afterwards.
  Status SetWorkloadStats(WorkloadStats stats, hist::FrequencyArray fprime);

  /// Runs one query (Algorithm 1). Thread-safe: concurrent callers share
  /// the read-only index/point file and the thread-safe cache, and each
  /// query pins the cache generation published at its start.
  Status Query(std::span<const Scalar> q, size_t k, QueryResult* out);

  /// The one batch entry: runs `queries` on the calling thread plus
  /// `n_threads - 1` helpers, each taking the next query index from one
  /// shared cursor, then folds the results into `*agg` (I/O converted to
  /// modeled time with the disk model); `per_query`, when non-null,
  /// receives the result of queries[i] at index i. Every result and the
  /// aggregate are bit-exact at any thread count (docs/CONCURRENCY.md);
  /// n_threads == 1 runs the batch on the caller in query order, and
  /// n_threads == 0 is InvalidArgument. Maintenance may rebuild the cache
  /// meanwhile; each query keeps the generation it started with. A failing
  /// query does not stop the batch: Serve runs the rest, then returns the
  /// first error in query order.
  Status Serve(const std::vector<std::vector<Scalar>>& queries, size_t k,
               size_t n_threads, AggregateResult* agg,
               std::vector<QueryResult>* per_query = nullptr);

  /// Builds the global histogram a method would use at code length tau.
  Status BuildGlobalHistogram(CacheMethod method, uint32_t tau,
                              hist::Histogram* out) const;

  /// Cost-model inputs for the current workload at the given budget.
  CostModelInputs MakeCostInputs(size_t cache_bytes, size_t k) const;

  /// Cost-model-chosen tau for a method at the given budget (Sec. 4.2).
  uint32_t AutoTau(CacheMethod method, size_t cache_bytes, size_t k) const;

  // --- accessors -----------------------------------------------------------
  const Dataset& data() const { return *data_; }
  const WorkloadStats& workload_stats() const { return wl_; }
  const hist::FrequencyArray& fprime() const { return *fprime_; }
  const hist::FrequencyArray& fdata() const { return *fdata_; }
  const storage::PointFile& point_file() const { return *points_; }
  index::C2Lsh& lsh() { return *lsh_; }
  cache::KnnCache* cache() {
    auto gen = generation();
    return gen == nullptr ? nullptr : gen->cache.get();
  }
  const SystemOptions& options() const { return options_; }
  uint32_t lvalue() const;

  storage::DiskModel& disk_model() { return disk_model_; }

  /// Offline cost of the last ConfigureCache call (Table 3 columns).
  double last_histogram_build_seconds() const { return last_build_seconds_; }
  size_t last_histogram_space_bytes() const { return last_space_bytes_; }
  uint32_t last_tau() const { return last_tau_; }

  /// Binds every pipeline component (index, storage, cache) plus the
  /// per-query engine.* / system.* instruments in `registry`. The registry
  /// must outlive the system; nullptr detaches everything. Caches installed
  /// by later ConfigureCache calls are bound automatically.
  void EnableMetrics(obs::MetricsRegistry* registry);

  /// Attaches the live-telemetry window (docs/OBSERVABILITY.md): every
  /// finished query is folded into it (modeled response, candidate funnel,
  /// degraded flags), and a cache tap is installed so windowed hit/admit/
  /// evict ratios follow the live cache generation across rebuilds. Safe at
  /// any thread count. nullptr detaches.
  void SetWindow(obs::WindowedMetrics* window);

  /// Attaches the flight recorder: every finished query lands in the ring;
  /// slow/degraded ones are tail-retained with their full explain record.
  /// nullptr detaches.
  void SetRecorder(obs::FlightRecorder* recorder);

  /// Attaches the cache-introspection instrument (docs/OBSERVABILITY.md):
  /// every cache probe feeds its reuse-distance sampler, miss classifier
  /// and working-set sketches; generation swaps are forwarded so
  /// invalidation misses classify correctly, and the MRC reference size
  /// tracks the live cache's item capacity (the what-if panel restarts only
  /// when that capacity changes). nullptr detaches.
  void SetCacheAnalytics(obs::CacheAnalytics* analytics);

  /// Cost-model prediction for the currently configured cache at the
  /// budget/tau of the last ConfigureCache call. Supported for EXACT and the
  /// global-histogram methods (HC-*); per-dimension, multi-dimensional and
  /// C-VA caches have no single-histogram estimator (NotSupported), and an
  /// unconfigured system returns InvalidArgument.
  Status EstimateCurrentCache(size_t k, CostEstimate* out) const;

 private:
  System() = default;

  /// One published cache epoch: the cache plus the histogram structures it
  /// codes with, bundled so a rebuild can swap the whole generation
  /// atomically while in-flight queries keep reading the old one
  /// (docs/CONCURRENCY.md). Built privately, immutable once published
  /// except for the cache's own thread-safe internals.
  struct CacheGeneration {
    hist::Histogram global_hist;
    hist::IndividualHistograms indiv_hist;
    hist::MultiDimHistogram md_hist;
    std::vector<BucketId> md_assignment;
    std::unique_ptr<cache::KnnCache> cache;
  };

  std::shared_ptr<CacheGeneration> generation() const
      EEB_EXCLUDES(generation_mu_) {
    MutexLock lock(generation_mu_);
    return generation_;
  }

  void PublishGeneration(std::shared_ptr<CacheGeneration> gen);

  /// (Re-)installs the window's cache tap against the live generation;
  /// called on SetWindow and after every generation publication so the tap
  /// re-bases on the new cache's (fresh) counters.
  void InstallCacheTap();

  /// Runs one query through the engine, then the sink. Both entry points
  /// (Query, and Serve's threads) execute through it.
  Status Execute(std::span<const Scalar> q, size_t k, uint64_t query_index,
                 QueryResult* out);

  /// The one per-query telemetry sink: feeds the engine.* / system.*
  /// instruments, the window and the flight recorder. `query_index` is the
  /// query's slot in its batch (0 for a single Query).
  void OnQueryFinished(const QueryResult& r, uint64_t query_index);

  /// Modeled response of one executed query: its measured phase time plus
  /// the disk model over its page counts. `modeled_io`, when non-null,
  /// receives the disk-model share.
  double ModeledResponse(const QueryResult& r,
                         double* modeled_io = nullptr) const;

  Status BuildCacheObject(CacheMethod method, size_t cache_bytes, uint32_t tau,
                          bool lru, std::shared_ptr<CacheGeneration>* out);

  /// Batch aggregation: a pure fold of per-query results in query order
  /// (identical floating-point accumulation at any thread count).
  void AggregateResults(const std::vector<QueryResult>& results,
                        AggregateResult* out) const;

  // Pipeline components: wired by Create() before the system is handed to
  // callers, then structurally immutable — queries only read through them.
  // (The components themselves synchronize their own mutable internals.)
  storage::Env* env_ EEB_UNGUARDED("set once in Create before serving") =
      nullptr;
  SystemOptions options_ EEB_UNGUARDED("set once in Create before serving");
  const Dataset* data_ EEB_UNGUARDED("set once in Create before serving") =
      nullptr;
  // Retry wrapper the point file reads through (owns no Env; wraps env_).
  std::unique_ptr<storage::RetryingEnv> retry_env_ EEB_UNGUARDED(
      "set once in Create before serving");
  std::unique_ptr<storage::PointFile> points_ EEB_UNGUARDED(
      "set once in Create before serving");
  std::unique_ptr<index::C2Lsh> lsh_ EEB_UNGUARDED(
      "set once in Create before serving");
  std::unique_ptr<KnnEngine> engine_ EEB_UNGUARDED(
      "set once in Create before serving");
  // Workload statistics: rewritten only by the single maintenance thread
  // (RefreshWorkload / SetWorkloadStats); the query path never reads them.
  WorkloadStats wl_ EEB_UNGUARDED("maintenance thread only; see above");
  std::unique_ptr<hist::FrequencyArray> fprime_ EEB_UNGUARDED(
      "maintenance thread only; see above");  // workload QR coords
  std::unique_ptr<hist::FrequencyArray> fdata_ EEB_UNGUARDED(
      "set once in Create before serving");  // raw data distribution
  storage::DiskModel disk_model_ EEB_UNGUARDED(
      "configured before serving; read-only afterwards");

  // Currently published cache generation (nullptr before ConfigureCache /
  // for NO-CACHE). Readers copy the shared_ptr under generation_mu_; the
  // engine additionally pins its own snapshot per query.
  mutable Mutex generation_mu_;
  std::shared_ptr<CacheGeneration> generation_ EEB_GUARDED_BY(generation_mu_);

  // Offline-cost bookkeeping for the last ConfigureCache call: written by
  // the single configuration/maintenance thread, read by the same thread's
  // later accessor calls.
  double last_build_seconds_ EEB_UNGUARDED("maintenance thread only") = 0.0;
  size_t last_space_bytes_ EEB_UNGUARDED("maintenance thread only") = 0;
  uint32_t last_tau_ EEB_UNGUARDED("maintenance thread only") = 0;

  // Observability attachments (not owned; nullptr when disabled). Attached
  // by single-threaded setup before queries run; the instruments behind
  // the pointers are internally atomic.
  obs::MetricsRegistry* metrics_ EEB_UNGUARDED("attached before serving") =
      nullptr;
  obs::WindowedMetrics* window_ EEB_UNGUARDED("attached before serving") =
      nullptr;
  obs::FlightRecorder* recorder_ EEB_UNGUARDED("attached before serving") =
      nullptr;
  obs::CacheAnalytics* analytics_ EEB_UNGUARDED(
      "attached before serving; internally thread-safe") = nullptr;
  // Per-query instruments, updated only by OnQueryFinished (all nullptr
  // while metrics are detached).
  struct QueryInstruments {
    obs::Counter* queries = nullptr;
    obs::Counter* candidates = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* pruned = nullptr;
    obs::Counter* true_hits = nullptr;
    obs::Counter* fetched = nullptr;
    obs::Counter* degraded_queries = nullptr;
    obs::Counter* substituted = nullptr;
    obs::Counter* read_failures = nullptr;
    obs::Counter* deadline_cuts = nullptr;
    obs::LatencyHistogram* gen_seconds = nullptr;
    obs::LatencyHistogram* reduce_seconds = nullptr;
    obs::LatencyHistogram* refine_seconds = nullptr;
    obs::LatencyHistogram* response_seconds = nullptr;
    obs::Gauge* modeled_io_seconds = nullptr;
  } instruments_ EEB_UNGUARDED(
      "bound before serving; the instruments are internally atomic");

  // Monotonic id stamped on each published cache generation (explain
  // records reference it).
  std::atomic<uint64_t> next_generation_id_{0};

  // Most recent ConfigureCache arguments, for ReconfigureCache(): written
  // and read only by the single configuration/maintenance thread.
  CacheMethod last_method_ EEB_UNGUARDED("maintenance thread only") =
      CacheMethod::kNone;
  size_t last_cache_bytes_ EEB_UNGUARDED("maintenance thread only") = 0;
  uint32_t last_requested_tau_ EEB_UNGUARDED("maintenance thread only") = 0;
  bool last_lru_ EEB_UNGUARDED("maintenance thread only") = false;
};

}  // namespace eeb::core

#endif  // EEB_CORE_SYSTEM_H_
