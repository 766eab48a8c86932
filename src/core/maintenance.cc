#include "core/maintenance.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/timer.h"

namespace eeb::core {

double DistributionDrift(const hist::FrequencyArray& a,
                         const hist::FrequencyArray& b) {
  const uint32_t n = std::min(a.ndom(), b.ndom());
  const double ta = a.Total();
  const double tb = b.Total();
  double acc = 0.0;
  for (uint32_t x = 0; x < n; ++x) {
    const double pa = ta > 0 ? a[x] / ta : 1.0 / n;
    const double pb = tb > 0 ? b[x] / tb : 1.0 / n;
    acc += std::fabs(pa - pb);
  }
  return 0.5 * acc;
}

double DistributionDrift(const std::vector<double>& a,
                         const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  double ta = 0, tb = 0;
  for (size_t i = 0; i < n; ++i) {
    ta += a[i];
    tb += b[i];
  }
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pa = ta > 0 ? a[i] / ta : 1.0 / n;
    const double pb = tb > 0 ? b[i] / tb : 1.0 / n;
    acc += std::fabs(pa - pb);
  }
  return 0.5 * acc;
}

Status CacheMaintainer::EndEpoch(
    const std::vector<std::vector<Scalar>>& epoch_queries) {
  ++epochs_;
  if (obs_.epochs != nullptr) obs_.epochs->Add(1);
  Timer timer;

  // Analyze the epoch on the side; the active cache keeps serving.
  WorkloadStats epoch_stats;
  EEB_RETURN_IF_ERROR(AnalyzeWorkload(&system_->lsh(), system_->data(),
                                      epoch_queries,
                                      system_->options().analysis_k,
                                      &epoch_stats));
  const hist::FrequencyArray epoch_fprime = hist::FrequencyArray::FromPoints(
      system_->data(), epoch_stats.qr_points, system_->options().ndom);

  const double value_drift =
      DistributionDrift(epoch_fprime, system_->fprime());
  const double hot_drift =
      DistributionDrift(epoch_stats.freq, system_->workload_stats().freq);
  last_drift_ = std::max(value_drift, hot_drift);
  if (obs_.last_drift != nullptr) {
    obs_.analyze_seconds->Record(timer.ElapsedSeconds());
    obs_.last_drift->Set(last_drift_);
  }

  // Blend the epoch into the EWMA history regardless of rebuild decisions,
  // so history reflects everything observed.
  if (options_.history_decay > 0.0) {
    const uint32_t ndom = system_->options().ndom;
    if (!has_history_) {
      acc_ = system_->workload_stats();
      acc_fprime_ =
          std::make_unique<hist::FrequencyArray>(system_->fprime());
      has_history_ = true;
    }
    const double decay = options_.history_decay;
    for (size_t i = 0; i < acc_.freq.size(); ++i) {
      acc_.freq[i] = decay * acc_.freq[i] + epoch_stats.freq[i];
    }
    hist::FrequencyArray blended(ndom);
    for (uint32_t x = 0; x < ndom; ++x) {
      blended.Add(x, decay * (*acc_fprime_)[x] + epoch_fprime[x]);
    }
    *acc_fprime_ = blended;
    // Non-frequency fields track the latest epoch.
    acc_.qr_points = epoch_stats.qr_points;
    acc_.dmax = std::max(acc_.dmax, epoch_stats.dmax);
    acc_.avg_candidates = epoch_stats.avg_candidates;
    acc_.avg_knn_dist = epoch_stats.avg_knn_dist;
    acc_.cand_dist_sample = epoch_stats.cand_dist_sample;
    // Recompute the HFF order from the blended frequencies.
    acc_.ids_by_freq.resize(acc_.freq.size());
    std::iota(acc_.ids_by_freq.begin(), acc_.ids_by_freq.end(), 0u);
    std::stable_sort(acc_.ids_by_freq.begin(), acc_.ids_by_freq.end(),
                     [&](PointId a, PointId b) {
                       if (acc_.freq[a] != acc_.freq[b]) {
                         return acc_.freq[a] > acc_.freq[b];
                       }
                       return a < b;
                     });
  }

  if (last_drift_ <= options_.rebuild_threshold) return Status::OK();

  timer.Start();
  if (options_.history_decay > 0.0 && has_history_) {
    EEB_RETURN_IF_ERROR(
        system_->SetWorkloadStats(acc_, *acc_fprime_));
  } else {
    EEB_RETURN_IF_ERROR(system_->RefreshWorkload(epoch_queries));
  }
  EEB_RETURN_IF_ERROR(system_->ReconfigureCache());
  ++rebuilds_;
  if (obs_.rebuilds != nullptr) {
    obs_.rebuilds->Add(1);
    obs_.rebuild_seconds->Record(timer.ElapsedSeconds());
  }
  return Status::OK();
}

void CacheMaintainer::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    obs_ = Instruments{};
    return;
  }
  obs_.epochs = registry->GetCounter("maintenance.epochs");
  obs_.rebuilds = registry->GetCounter("maintenance.rebuilds");
  obs_.last_drift = registry->GetGauge("maintenance.last_drift");
  obs_.analyze_seconds = registry->GetHistogram("maintenance.analyze_seconds");
  obs_.rebuild_seconds = registry->GetHistogram("maintenance.rebuild_seconds");
}

}  // namespace eeb::core
