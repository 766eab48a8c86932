// Telemetry overhead budget check (docs/OBSERVABILITY.md): runs the same
// query batch with live telemetry (windowed metrics + flight recorder +
// cumulative registry + cache analytics) attached and
// detached, interleaved A/B so machine drift hits both arms equally, and
// fails (exit 1) if the telemetry-on median exceeds the telemetry-off
// median by more than the budget.
//
// Budget: max(5% relative, an absolute floor). The floor keeps the check
// meaningful on fast boxes where the whole batch takes a few milliseconds
// and a single scheduler hiccup dwarfs any real 5% regression; the relative
// bound is what actually guards the hot path (one RecordQuery + one
// recorder seqlock write per query, both O(1)).
//
// Wired as the `obs_overhead` ctest; also runnable by hand:
//   obs_overhead_check [--rounds N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/system.h"
#include "obs/cache_analytics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "workload/registry.h"

namespace eeb {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Main(int argc, char** argv) {
  int rounds = 7;  // per arm; odd so the median is a real sample
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: obs_overhead_check [--rounds N]\n");
      return 2;
    }
  }
  if (rounds < 3) rounds = 3;

  workload::DatasetSpec spec;
  spec.name = "obs_overhead";
  spec.n = 10000;
  spec.dim = 32;
  spec.ndom = 256;
  spec.clusters = 16;
  spec.seed = 5;
  auto wb = bench::MakeWorkbench(spec);
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);
  bench::Check(wb->system->ConfigureCache(
                   core::CacheMethod::kHcO,
                   static_cast<size_t>(file_bytes * 0.30)),
               "ConfigureCache");
  const size_t k = 10;

  // The full serving-telemetry stack, exactly as eeb_cli attaches it:
  // windowed metrics, flight recorder and the sampled cache-analytics
  // instrument at the production rate.
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  obs::CacheAnalytics::Options aopt;
  aopt.key_space = wb->data.size();
  obs::CacheAnalytics analytics(aopt);
  analytics.BindMetrics(&wb->metrics);
  auto attach = [&] {
    wb->system->SetWindow(&window);
    wb->system->SetRecorder(&recorder);
    wb->system->SetCacheAnalytics(&analytics);
  };
  auto detach = [&] {
    wb->system->SetWindow(nullptr);
    wb->system->SetRecorder(nullptr);
    wb->system->SetCacheAnalytics(nullptr);
  };

  auto run_batch = [&] {
    core::AggregateResult agg;
    bench::Check(wb->system->Serve(wb->log.test, k, 1, &agg), "Serve");
  };

  // Warmup both configurations (page allocations, first-touch shards).
  attach();
  run_batch();
  detach();
  run_batch();

  std::vector<double> off_seconds, on_seconds;
  for (int r = 0; r < rounds; ++r) {
    // Interleaved A/B: off then on each round, so slow drift (thermal,
    // noisy neighbors) cancels instead of biasing one arm.
    detach();
    Timer off;
    run_batch();
    off_seconds.push_back(off.ElapsedSeconds());

    attach();
    Timer on;
    run_batch();
    on_seconds.push_back(on.ElapsedSeconds());
  }

  // The telemetry really was live in the "on" arm: warmup + rounds batches.
  const uint64_t expected =
      static_cast<uint64_t>(rounds + 1) * wb->log.test.size();
  const obs::WindowSnapshot snap = window.GetSnapshot();
  if (snap.total_queries != expected || recorder.recorded() != expected) {
    std::fprintf(stderr,
                 "obs_overhead: telemetry not attached (window %llu, "
                 "recorder %llu, expected %llu)\n",
                 static_cast<unsigned long long>(snap.total_queries),
                 static_cast<unsigned long long>(recorder.recorded()),
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  if (analytics.total_accesses() == 0) {
    std::fprintf(stderr,
                 "obs_overhead: cache analytics not attached (0 accesses)\n");
    return 1;
  }

  const double median_off = Median(off_seconds);
  const double median_on = Median(on_seconds);
  const double overhead = median_on - median_off;
  const double rel = median_off > 0.0 ? overhead / median_off : 0.0;
  constexpr double kRelBudget = 0.05;
  constexpr double kAbsFloorSeconds = 0.050;
  const double budget = std::max(kRelBudget * median_off, kAbsFloorSeconds);

  std::printf(
      "obs_overhead: batch=%zu queries rounds=%d median_off=%.4fs "
      "median_on=%.4fs overhead=%+.4fs (%+.2f%%) budget=%.4fs\n",
      wb->log.test.size(), rounds, median_off, median_on, overhead,
      100.0 * rel, budget);
  if (overhead > budget) {
    std::fprintf(stderr,
                 "obs_overhead: FAIL — telemetry overhead %.4fs exceeds "
                 "budget %.4fs\n",
                 overhead, budget);
    return 1;
  }
  std::printf("obs_overhead: OK\n");
  return 0;
}

}  // namespace
}  // namespace eeb

int main(int argc, char** argv) { return eeb::Main(argc, argv); }
