// Histogram / cache maintenance (paper Sec. 3.5): "we expect the
// distribution of queries does not change rapidly ... we propose to perform
// updates and rebuild the cache periodically (e.g., daily)."
//
// CacheMaintainer makes that policy concrete: feed it each finished epoch's
// query log; it measures how far the epoch's near-result value distribution
// (F', the input of the kNN-optimal histogram) drifted from the
// distribution the active histogram was built on, and rebuilds the
// workload statistics + histogram + cache when the drift passes a
// threshold. Queries keep being served by the old cache during analysis.

#ifndef EEB_CORE_MAINTENANCE_H_
#define EEB_CORE_MAINTENANCE_H_

#include <vector>

#include "core/system.h"

namespace eeb::core {

struct MaintenanceOptions {
  /// Rebuild when the total-variation distance between the active and the
  /// epoch F' distributions exceeds this (0 = rebuild every epoch,
  /// 1 = never).
  double rebuild_threshold = 0.15;

  /// Weight of the accumulated history when blending with a new epoch
  /// (EWMA): acc = history_decay * acc + epoch. 0 rebuilds from the epoch
  /// alone (the paper's "rebuild from the latest log"); larger values keep
  /// long-lived hot points cached through noisy epochs.
  double history_decay = 0.0;
};

/// Total-variation distance between two frequency arrays after
/// normalization: 0.5 * sum |p_i - q_i|, in [0, 1]. Arrays of all-zero mass
/// count as uniform.
double DistributionDrift(const hist::FrequencyArray& a,
                         const hist::FrequencyArray& b);

/// Same metric over raw frequency vectors (e.g. per-point candidate
/// frequencies — the signal that decides whether the HFF cache content is
/// still the right one).
double DistributionDrift(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Epoch-driven maintenance controller for a System.
class CacheMaintainer {
 public:
  /// `system` must have a cache configured and outlive the maintainer.
  CacheMaintainer(System* system, const MaintenanceOptions& options)
      : system_(system), options_(options) {}

  /// Ingests a finished epoch. Computes the drift against the active
  /// workload statistics and rebuilds (RefreshWorkload + ReconfigureCache)
  /// when it exceeds the threshold.
  Status EndEpoch(const std::vector<std::vector<Scalar>>& epoch_queries);

  uint64_t epochs() const { return epochs_; }
  uint64_t rebuilds() const { return rebuilds_; }
  /// max(value-distribution drift, hot-point drift) of the last epoch. The
  /// first invalidates the histogram, the second the HFF cache content.
  double last_drift() const { return last_drift_; }

  /// Binds maintenance instruments (epoch/rebuild counters, last drift,
  /// analyze/rebuild timing histograms) in `registry`; nullptr detaches.
  void BindMetrics(obs::MetricsRegistry* registry);

 private:
  System* system_;
  MaintenanceOptions options_;
  uint64_t epochs_ = 0;
  uint64_t rebuilds_ = 0;
  double last_drift_ = 0.0;

  // Bound instruments (nullptr when observability is off).
  struct Instruments {
    obs::Counter* epochs = nullptr;
    obs::Counter* rebuilds = nullptr;
    obs::Gauge* last_drift = nullptr;
    obs::LatencyHistogram* analyze_seconds = nullptr;
    obs::LatencyHistogram* rebuild_seconds = nullptr;
  } obs_;

  // EWMA accumulators (used when history_decay > 0).
  bool has_history_ = false;
  WorkloadStats acc_;
  std::unique_ptr<hist::FrequencyArray> acc_fprime_;
};

}  // namespace eeb::core

#endif  // EEB_CORE_MAINTENANCE_H_
