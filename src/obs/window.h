// Rolling time-windowed aggregates for live serving telemetry. The
// cumulative MetricsRegistry answers "what happened since process start";
// WindowedMetrics answers "what is happening right now": sliding-window QPS,
// windowed latency percentiles over the measured per-query time (same
// log-bucket math as LatencyHistogram, so live and cumulative quantiles
// quantize identically), an EWMA latency, and windowed cache hit and admit
// ratios. Everything but the cache's admissions and evictions comes from
// the per-query records; those two come from a cache tap.
//
// The window is a ring of epoch-stamped slices (window_seconds / slices
// wide). Recording touches only the current slice; stale slices are zeroed
// lazily when the epoch advances onto them, so there is no timer thread in
// the hot path. A snapshot merges the slices still inside the window.
//
// Time comes from an injectable monotonic clock (seconds); tests drive a
// fake clock to make slice expiry deterministic. StatsPublisher turns
// snapshots into a JSON-lines stream on a caller-supplied sink at a fixed
// interval — the monitorable live feed for `eeb_cli --stats-interval-ms`.

#ifndef EEB_OBS_WINDOW_H_
#define EEB_OBS_WINDOW_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace eeb::obs {

/// Cumulative admissions and evictions pulled from the live cache
/// generation: the cache facts a per-query record cannot hold. The window
/// differences successive samples, so the tap just reports totals; it is a
/// std::function because obs sits below cache in the link order and cannot
/// name cache types.
struct CacheTapSample {
  uint64_t admits = 0;
  uint64_t evictions = 0;
};

struct WindowOptions {
  double window_seconds = 10.0;
  int slices = 10;
  double ewma_alpha = 0.2;  // weight of the newest latency sample
  // Monotonic now() in seconds. Defaults to steady_clock.
  std::function<double()> now;
};

/// Point-in-time view of the window plus since-construction totals (the
/// latter let callers reconcile windowed rates against cumulative counters).
struct WindowSnapshot {
  double window_seconds = 0.0;  // span the windowed figures cover
  uint64_t queries = 0;
  double qps = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double ewma_seconds = 0.0;  // EWMA over all queries, not just the window
  uint64_t candidates = 0;
  uint64_t cache_hits = 0;
  double hit_ratio = 0.0;  // cache_hits / candidates in the window
  uint64_t degraded = 0;
  double degraded_rate = 0.0;
  uint64_t deadline_hits = 0;
  uint64_t read_failures = 0;
  uint64_t cache_admits = 0;     // from the cache tap, windowed
  uint64_t cache_evictions = 0;  // from the cache tap, windowed
  double admit_ratio = 0.0;      // admits / (candidates - cache_hits)
  // Since-construction totals for reconciliation with cumulative counters.
  uint64_t total_queries = 0;
  uint64_t total_candidates = 0;
  uint64_t total_cache_hits = 0;
  uint64_t total_degraded = 0;
};

class WindowedMetrics {
 public:
  explicit WindowedMetrics(WindowOptions options = {});

  WindowedMetrics(const WindowedMetrics&) = delete;
  WindowedMetrics& operator=(const WindowedMetrics&) = delete;

  /// Folds one finished query into the current slice: its measured time
  /// (QueryExplain::query_seconds) and funnel.
  void RecordQuery(const QueryRecord& record) EEB_EXCLUDES(mu_);

  /// Installs the cumulative admit/evict tap. The window differences
  /// successive tap readings into slices at snapshot time; re-installation
  /// (e.g. after a cache generation swap) re-bases the deltas.
  void SetCacheTap(std::function<CacheTapSample()> tap) EEB_EXCLUDES(mu_);

  WindowSnapshot GetSnapshot() EEB_EXCLUDES(mu_);

  /// Publishes a snapshot as "live.*" gauges on `registry`.
  void PublishTo(MetricsRegistry* registry) EEB_EXCLUDES(mu_);

  /// Publishes an already-taken snapshot (so one snapshot can feed both the
  /// gauge publication and a JSON line without being taken twice).
  static void PublishSnapshot(const WindowSnapshot& snap,
                              MetricsRegistry* registry);

  const WindowOptions& options() const { return options_; }

 private:
  struct Slice {
    uint64_t epoch = ~uint64_t{0};  // which slice-width interval this holds
    uint64_t queries = 0;
    double sum_seconds = 0.0;
    double max_seconds = 0.0;
    uint64_t candidates = 0;
    uint64_t cache_hits = 0;
    uint64_t degraded = 0;
    uint64_t deadline_hits = 0;
    uint64_t read_failures = 0;
    uint64_t tap_admits = 0;
    uint64_t tap_evictions = 0;
    std::array<uint32_t, LatencyHistogram::kNumBuckets> buckets{};

    void Clear(uint64_t new_epoch);
  };

  // Returns the slice for `now`, zeroing it first if its epoch is stale.
  Slice& Touch(double now) EEB_REQUIRES(mu_);
  void DrainTapLocked(double now) EEB_REQUIRES(mu_);
  double PercentileLocked(
      const std::array<uint64_t, LatencyHistogram::kNumBuckets>& buckets,
      uint64_t count, double p, double max_seconds) const EEB_REQUIRES(mu_);

  const WindowOptions options_;
  const double slice_width_;

  Mutex mu_;
  std::vector<Slice> slices_ EEB_GUARDED_BY(mu_);
  double start_time_ EEB_GUARDED_BY(mu_);
  double ewma_seconds_ EEB_GUARDED_BY(mu_) = 0.0;
  bool ewma_primed_ EEB_GUARDED_BY(mu_) = false;
  std::function<CacheTapSample()> tap_ EEB_GUARDED_BY(mu_);
  CacheTapSample tap_base_ EEB_GUARDED_BY(mu_);  // last tap reading
  bool tap_based_ EEB_GUARDED_BY(mu_) = false;

  std::atomic<uint64_t> total_queries_{0};
  std::atomic<uint64_t> total_candidates_{0};
  std::atomic<uint64_t> total_cache_hits_{0};
  std::atomic<uint64_t> total_degraded_{0};
};

/// Renders one snapshot as a single JSON line (no trailing newline).
std::string WindowSnapshotJson(const WindowSnapshot& snap, double uptime);

/// Periodic snapshot publisher: a background thread that every interval
/// samples the window, publishes "live.*" gauges to `registry` (when
/// non-null), and appends one JSON line to `sink`. The sink must
/// outlive the publisher; Stop() (also run by the destructor) joins the
/// thread and emits one final line so short runs still produce output.
class StatsPublisher {
 public:
  struct Options {
    int interval_ms = 1000;
  };

  StatsPublisher(WindowedMetrics* window, MetricsRegistry* registry,
                 std::ostream* sink, Options options);
  ~StatsPublisher();

  StatsPublisher(const StatsPublisher&) = delete;
  StatsPublisher& operator=(const StatsPublisher&) = delete;

  /// Idempotent; joins the thread and emits a final snapshot line.
  void Stop() EEB_EXCLUDES(mu_);

  uint64_t lines_published() const {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  void PublishOnce();
  void Loop() EEB_EXCLUDES(mu_);

  WindowedMetrics* const window_;
  MetricsRegistry* const registry_;
  std::ostream* const sink_;
  const Options options_;
  const double start_time_;

  Mutex mu_;
  CondVar cv_;
  bool stopping_ EEB_GUARDED_BY(mu_) = false;
  bool stopped_ EEB_GUARDED_BY(mu_) = false;
  std::atomic<uint64_t> lines_{0};
  std::thread thread_ EEB_UNGUARDED(
      "spawned in the constructor, joined by Stop/destructor; never touched "
      "while the publisher thread runs");
};

}  // namespace eeb::obs

#endif  // EEB_OBS_WINDOW_H_
