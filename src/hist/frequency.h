// Frequency arrays over the integer value domain, and O(1) prefix statistics
// used by the DP histogram builders.
//
// Two frequency arrays appear in the paper:
//   F[x]  — value frequency in the data (drives equi-depth / V-optimal),
//   F'[x] — frequency of x among the coordinates of the workload's
//           near-result candidates QR (Eqn. 3; drives the kNN-optimal DP).

#ifndef EEB_HIST_FREQUENCY_H_
#define EEB_HIST_FREQUENCY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"

namespace eeb::hist {

/// Dense frequency array over [0, ndom). Entries are doubles so workload
/// weighting is possible.
class FrequencyArray {
 public:
  explicit FrequencyArray(uint32_t ndom) : counts_(ndom, 0.0) {}

  uint32_t ndom() const { return static_cast<uint32_t>(counts_.size()); }

  void Add(uint32_t value, double weight = 1.0) { counts_[value] += weight; }

  double operator[](uint32_t value) const { return counts_[value]; }

  double Total() const {
    double t = 0;
    for (double c : counts_) t += c;
    return t;
  }

  /// Counts every coordinate of every point in `data` (plain data F[x]).
  static FrequencyArray FromDataset(const Dataset& data, uint32_t ndom);

  /// Counts every coordinate of the given points only (used to build F'
  /// from the QR multiset of workload near-results, Eqn. 3).
  static FrequencyArray FromPoints(const Dataset& data,
                                   std::span<const PointId> ids,
                                   uint32_t ndom);

 private:
  std::vector<double> counts_;
};

/// Prefix sums of F, x*F and x^2*F allowing O(1) evaluation of bucket terms:
///   Count(l, u)   = sum_{x in [l,u]} F[x]
///   Upsilon(l, u) = Count(l,u) * (u-l)^2                  (Eqn. 4, metric M3)
///   Sse(l, u)     = sum F[x]^2-ish variance of frequencies (V-optimal)
class PrefixStats {
 public:
  explicit PrefixStats(const FrequencyArray& f);

  uint32_t ndom() const { return static_cast<uint32_t>(sum_.size() - 1); }

  /// sum of F[x] for x in [l, u], inclusive.
  double Count(uint32_t l, uint32_t u) const {
    return sum_[u + 1] - sum_[l];
  }

  /// Upsilon([l,u]) = (sum F'[x]) * (u-l)^2 — the per-bucket term of metric
  /// M3 (paper Eqn. 4).
  double Upsilon(uint32_t l, uint32_t u) const {
    const double w = static_cast<double>(u - l);
    return Count(l, u) * w * w;
  }

  /// Sum of squared deviations of the frequencies in [l,u] from their mean —
  /// the per-bucket SSE term of the V-optimal metric.
  double Sse(uint32_t l, uint32_t u) const {
    const double n = static_cast<double>(u - l + 1);
    const double s = Count(l, u);
    const double s2 = sumsq_[u + 1] - sumsq_[l];
    return s2 - (s * s) / n;
  }

 private:
  std::vector<double> sum_;    // prefix of F[x]
  std::vector<double> sumsq_;  // prefix of F[x]^2
};

}  // namespace eeb::hist

#endif  // EEB_HIST_FREQUENCY_H_
