#include "obs/window.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <ostream>

#include "obs/export.h"

namespace eeb::obs {
namespace {

double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WindowOptions Sanitize(WindowOptions options) {
  if (!(options.window_seconds > 0.0)) options.window_seconds = 10.0;
  if (options.slices < 1) options.slices = 1;
  if (!(options.ewma_alpha > 0.0) || options.ewma_alpha > 1.0) {
    options.ewma_alpha = 0.2;
  }
  if (!options.now) options.now = SteadyNowSeconds;
  return options;
}

}  // namespace

void WindowedMetrics::Slice::Clear(uint64_t new_epoch) {
  epoch = new_epoch;
  queries = 0;
  sum_seconds = 0.0;
  max_seconds = 0.0;
  candidates = 0;
  cache_hits = 0;
  degraded = 0;
  deadline_hits = 0;
  read_failures = 0;
  tap_misses = 0;
  tap_admits = 0;
  tap_evictions = 0;
  buckets.fill(0);
}

WindowedMetrics::WindowedMetrics(WindowOptions options)
    : options_(Sanitize(std::move(options))),
      slice_width_(options_.window_seconds /
                   static_cast<double>(options_.slices)),
      slices_(static_cast<size_t>(options_.slices)),
      start_time_(options_.now()) {}

WindowedMetrics::Slice& WindowedMetrics::Touch(double now) {
  const uint64_t epoch =
      static_cast<uint64_t>(std::max(0.0, now) / slice_width_);
  Slice& slice = slices_[epoch % slices_.size()];
  if (slice.epoch != epoch) slice.Clear(epoch);
  return slice;
}

void WindowedMetrics::RecordQuery(const QueryRecord& record) {
  const QueryExplain& q = record.explain;
  const double seconds = record.response_seconds;
  total_queries_.fetch_add(1, std::memory_order_relaxed);
  total_candidates_.fetch_add(q.candidates, std::memory_order_relaxed);
  total_cache_hits_.fetch_add(q.cache_hits, std::memory_order_relaxed);
  if (q.degraded) total_degraded_.fetch_add(1, std::memory_order_relaxed);

  MutexLock lock(mu_);
  Slice& slice = Touch(options_.now());
  slice.queries += 1;
  slice.sum_seconds += seconds;
  slice.max_seconds = std::max(slice.max_seconds, seconds);
  slice.candidates += q.candidates;
  slice.cache_hits += q.cache_hits;
  if (q.degraded) slice.degraded += 1;
  if (q.deadline_hit) slice.deadline_hits += 1;
  slice.read_failures += q.read_failures;
  slice.buckets[static_cast<size_t>(
      LatencyHistogram::BucketIndex(seconds))] += 1;
  if (ewma_primed_) {
    ewma_seconds_ = options_.ewma_alpha * seconds +
                    (1.0 - options_.ewma_alpha) * ewma_seconds_;
  } else {
    ewma_seconds_ = seconds;
    ewma_primed_ = true;
  }
}

void WindowedMetrics::SetCacheTap(std::function<CacheTapSample()> tap) {
  MutexLock lock(mu_);
  tap_ = std::move(tap);
  // Re-base: activity before installation belongs to no slice.
  tap_base_ = tap_ ? tap_() : CacheTapSample{};
  tap_based_ = static_cast<bool>(tap_);
}

void WindowedMetrics::DrainTapLocked(double now) {
  // Counters are monotonic; a generation swap that re-installs the tap
  // re-bases instead. Guard against regressions anyway (saturating diff).
  auto delta = [](uint64_t cur_v, uint64_t base_v) {
    return cur_v >= base_v ? cur_v - base_v : 0;
  };
  if (tap_) {
    const CacheTapSample cur = tap_();
    Slice& slice = Touch(now);
    slice.tap_misses += delta(cur.misses, tap_base_.misses);
    slice.tap_admits += delta(cur.admits, tap_base_.admits);
    slice.tap_evictions += delta(cur.evictions, tap_base_.evictions);
    tap_base_ = cur;
  }
}

double WindowedMetrics::PercentileLocked(
    const std::array<uint64_t, LatencyHistogram::kNumBuckets>& buckets,
    uint64_t count, double p, double max_seconds) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const uint64_t rank =
      static_cast<uint64_t>(p * static_cast<double>(count - 1));
  uint64_t cum = 0;
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    cum += buckets[static_cast<size_t>(i)];
    if (cum > rank) return LatencyHistogram::BucketValue(i);
  }
  return max_seconds;
}

WindowSnapshot WindowedMetrics::GetSnapshot() {
  WindowSnapshot snap;
  MutexLock lock(mu_);
  const double now = options_.now();
  DrainTapLocked(now);

  const uint64_t cur_epoch =
      static_cast<uint64_t>(std::max(0.0, now) / slice_width_);
  const uint64_t n_slices = slices_.size();
  const uint64_t oldest_epoch =
      cur_epoch >= n_slices - 1 ? cur_epoch - (n_slices - 1) : 0;

  std::array<uint64_t, LatencyHistogram::kNumBuckets> buckets{};
  uint64_t tap_misses = 0;
  for (const Slice& slice : slices_) {
    if (slice.epoch < oldest_epoch || slice.epoch > cur_epoch) continue;
    snap.queries += slice.queries;
    snap.candidates += slice.candidates;
    snap.cache_hits += slice.cache_hits;
    snap.degraded += slice.degraded;
    snap.deadline_hits += slice.deadline_hits;
    snap.read_failures += slice.read_failures;
    snap.cache_admits += slice.tap_admits;
    snap.cache_evictions += slice.tap_evictions;
    tap_misses += slice.tap_misses;
    snap.mean_seconds += slice.sum_seconds;  // sum for now; divided below
    snap.max_seconds = std::max(snap.max_seconds, slice.max_seconds);
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += slice.buckets[i];
  }

  snap.window_seconds =
      std::min(std::max(now - start_time_, 0.0), options_.window_seconds);
  if (snap.window_seconds > 0.0) {
    snap.qps = static_cast<double>(snap.queries) / snap.window_seconds;
  }
  if (snap.queries > 0) {
    snap.mean_seconds /= static_cast<double>(snap.queries);
  } else {
    snap.mean_seconds = 0.0;
  }
  snap.p50_seconds = PercentileLocked(buckets, snap.queries, 0.50,
                                      snap.max_seconds);
  snap.p95_seconds = PercentileLocked(buckets, snap.queries, 0.95,
                                      snap.max_seconds);
  snap.p99_seconds = PercentileLocked(buckets, snap.queries, 0.99,
                                      snap.max_seconds);
  snap.ewma_seconds = ewma_seconds_;
  if (snap.candidates > 0) {
    snap.hit_ratio = static_cast<double>(snap.cache_hits) /
                     static_cast<double>(snap.candidates);
  }
  if (snap.queries > 0) {
    snap.degraded_rate = static_cast<double>(snap.degraded) /
                         static_cast<double>(snap.queries);
  }
  if (tap_misses > 0) {
    snap.admit_ratio = static_cast<double>(snap.cache_admits) /
                       static_cast<double>(tap_misses);
  }

  snap.total_queries = total_queries_.load(std::memory_order_relaxed);
  snap.total_candidates = total_candidates_.load(std::memory_order_relaxed);
  snap.total_cache_hits = total_cache_hits_.load(std::memory_order_relaxed);
  snap.total_degraded = total_degraded_.load(std::memory_order_relaxed);
  return snap;
}

void WindowedMetrics::PublishTo(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  PublishSnapshot(GetSnapshot(), registry);
}

void WindowedMetrics::PublishSnapshot(const WindowSnapshot& s,
                                      MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetGauge("live.window_seconds")->Set(s.window_seconds);
  registry->GetGauge("live.qps")->Set(s.qps);
  registry->GetGauge("live.queries")->Set(static_cast<double>(s.queries));
  registry->GetGauge("live.latency.mean_seconds")->Set(s.mean_seconds);
  registry->GetGauge("live.latency.max_seconds")->Set(s.max_seconds);
  registry->GetGauge("live.latency.p50_seconds")->Set(s.p50_seconds);
  registry->GetGauge("live.latency.p95_seconds")->Set(s.p95_seconds);
  registry->GetGauge("live.latency.p99_seconds")->Set(s.p99_seconds);
  registry->GetGauge("live.latency.ewma_seconds")->Set(s.ewma_seconds);
  registry->GetGauge("live.cache.hit_ratio")->Set(s.hit_ratio);
  registry->GetGauge("live.cache.admits")
      ->Set(static_cast<double>(s.cache_admits));
  registry->GetGauge("live.cache.evictions")
      ->Set(static_cast<double>(s.cache_evictions));
  registry->GetGauge("live.cache.admit_ratio")->Set(s.admit_ratio);
  registry->GetGauge("live.degraded_rate")->Set(s.degraded_rate);
  registry->GetGauge("live.deadline_hits")
      ->Set(static_cast<double>(s.deadline_hits));
  registry->GetGauge("live.read_failures")
      ->Set(static_cast<double>(s.read_failures));
}

std::string WindowSnapshotJson(const WindowSnapshot& s, double uptime) {
  std::string out;
  AppendF(&out, "{\"uptime_seconds\":%.3f,\"live\":{", uptime);
  AppendF(&out,
          "\"window_seconds\":%.3f,\"queries\":%" PRIu64
          ",\"qps\":%.9g,\"latency\":{\"mean_seconds\":%.9g,"
          "\"max_seconds\":%.9g,\"p50_seconds\":%.9g,\"p95_seconds\":%.9g,"
          "\"p99_seconds\":%.9g,\"ewma_seconds\":%.9g}",
          s.window_seconds, s.queries, s.qps, s.mean_seconds, s.max_seconds,
          s.p50_seconds, s.p95_seconds, s.p99_seconds, s.ewma_seconds);
  AppendF(&out,
          ",\"candidates\":%" PRIu64 ",\"cache_hits\":%" PRIu64
          ",\"hit_ratio\":%.9g,\"cache_admits\":%" PRIu64
          ",\"cache_evictions\":%" PRIu64 ",\"admit_ratio\":%.9g",
          s.candidates, s.cache_hits, s.hit_ratio, s.cache_admits,
          s.cache_evictions, s.admit_ratio);
  AppendF(&out,
          ",\"degraded\":%" PRIu64 ",\"degraded_rate\":%.9g"
          ",\"deadline_hits\":%" PRIu64 ",\"read_failures\":%" PRIu64 "}",
          s.degraded, s.degraded_rate, s.deadline_hits, s.read_failures);
  AppendF(&out,
          ",\"cumulative\":{\"queries\":%" PRIu64 ",\"candidates\":%" PRIu64
          ",\"cache_hits\":%" PRIu64 ",\"degraded\":%" PRIu64 "}}",
          s.total_queries, s.total_candidates, s.total_cache_hits,
          s.total_degraded);
  return out;
}

StatsPublisher::StatsPublisher(WindowedMetrics* window,
                               MetricsRegistry* registry, std::ostream* sink,
                               Options options)
    : window_(window),
      registry_(registry),
      sink_(sink),
      options_([&options] {
        if (options.interval_ms < 1) options.interval_ms = 1;
        return options;
      }()),
      start_time_(window->options().now()) {
  thread_ = std::thread([this] { Loop(); });
}

StatsPublisher::~StatsPublisher() { Stop(); }

void StatsPublisher::PublishOnce() {
  const WindowSnapshot snap = window_->GetSnapshot();
  WindowedMetrics::PublishSnapshot(snap, registry_);
  if (sink_ != nullptr) {
    const double uptime = window_->options().now() - start_time_;
    const std::string line = WindowSnapshotJson(snap, uptime);
    sink_->write(line.data(), static_cast<std::streamsize>(line.size()));
    sink_->put('\n');
    sink_->flush();
  }
  lines_.fetch_add(1, std::memory_order_relaxed);
}

void StatsPublisher::Loop() {
  // Explicit deadline loop (instead of a predicate lambda) so the analysis
  // can see that stopping_ is only read with mu_ held: a spurious or early
  // notify wake re-checks stopping_ and keeps waiting out the interval.
  mu_.Lock();
  while (!stopping_) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.interval_ms);
    while (!stopping_ &&
           cv_.WaitUntil(mu_, deadline) != std::cv_status::timeout) {
    }
    if (stopping_) break;
    mu_.Unlock();
    PublishOnce();
    mu_.Lock();
  }
  mu_.Unlock();
}

void StatsPublisher::Stop() {
  mu_.Lock();
  if (stopped_ || stopping_) {  // done, or concurrent Stop tearing down
    mu_.Unlock();
    return;
  }
  stopping_ = true;
  mu_.Unlock();
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  PublishOnce();  // final line so short runs still emit a snapshot
  MutexLock lock(mu_);
  stopped_ = true;
}

}  // namespace eeb::obs
