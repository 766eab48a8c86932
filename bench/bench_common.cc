#include "bench/bench_common.h"

#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>

#include "common/timer.h"
#include "obs/export.h"

namespace eeb::bench {
namespace {

// Metrics JSONL sink shared by every RunCell of the binary; opened by
// Banner, re-opened (closing the previous sink) when a binary runs several
// banners, and flushed+closed at process exit.
FILE* g_metrics_file = nullptr;
std::string g_bench_id;

void CloseMetricsSink() {
  if (g_metrics_file == nullptr) return;
  std::fflush(g_metrics_file);
  std::fclose(g_metrics_file);
  g_metrics_file = nullptr;
}

std::string SanitizeId(const std::string& id) {
  std::string out;
  for (char c : id) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c))
                      ? static_cast<char>(
                            std::tolower(static_cast<unsigned char>(c)))
                      : '_');
  }
  return out;
}

}  // namespace

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

std::unique_ptr<Workbench> MakeWorkbench(workload::DatasetSpec spec,
                                         core::SystemOptions opt) {
  auto wb = std::make_unique<Workbench>();
  wb->spec = workload::MaybeQuick(spec);
  wb->dir = (std::filesystem::temp_directory_path() /
             ("eeb_bench_" + wb->spec.name + "_" + std::to_string(getpid())))
                .string();
  std::filesystem::create_directories(wb->dir);

  Timer t;
  wb->data = workload::GenerateClustered(wb->spec);
  wb->log = workload::GenerateQueryLog(
      wb->data, workload::MaybeQuick(workload::DefaultLogSpec()));
  std::fprintf(stderr, "[%s] generated n=%zu d=%zu in %.1fs\n",
               wb->spec.name.c_str(), wb->data.size(), wb->data.dim(),
               t.ElapsedSeconds());

  t.Start();
  opt.ndom = wb->spec.ndom;
  // C2LSH's candidate volume scales with the dataset (beta * n in the
  // original scheme); keep that proportionality unless the caller already
  // overrode the default.
  if (opt.lsh.beta_candidates == index::C2LshOptions{}.beta_candidates) {
    opt.lsh.beta_candidates =
        std::max<uint32_t>(100, static_cast<uint32_t>(wb->spec.n / 400));
  }
  Check(core::System::Create(storage::Env::Default(), wb->dir, wb->data,
                             wb->log.workload, opt, &wb->system),
        "System::Create");
  wb->default_cache_bytes = workload::DefaultCacheBytes(wb->spec);
  wb->system->EnableMetrics(&wb->metrics);
  std::fprintf(stderr,
               "[%s] system built in %.1fs (avg |C(q)|=%.0f, Dmax=%.0f)\n",
               wb->spec.name.c_str(), t.ElapsedSeconds(),
               wb->system->workload_stats().avg_candidates,
               wb->system->workload_stats().dmax);
  return wb;
}

void Banner(const std::string& id, const std::string& what) {
  std::printf("==========================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("Reproduction note: synthetic surrogate datasets + modeled\n");
  std::printf("disk (random %.1f ms/page, sequential pages cheap); compare\n",
              5.0);
  std::printf("SHAPES (ordering, ratios, crossovers), not absolute times.\n");
  std::printf("==========================================================\n");

  // A second Banner (multi-experiment binary) retargets the sink: close the
  // previous file first so its lines are durable and the handle is not
  // leaked.
  if (g_metrics_file != nullptr && id != g_bench_id) CloseMetricsSink();
  if (g_metrics_file == nullptr) {
    g_bench_id = id;
    const char* env_path = std::getenv("EEB_METRICS_OUT");
    const std::string path = env_path != nullptr && env_path[0] != '\0'
                                 ? std::string(env_path)
                                 : "metrics_" + SanitizeId(id) + ".jsonl";
    g_metrics_file = std::fopen(path.c_str(), "w");
    if (g_metrics_file == nullptr) {
      std::fprintf(stderr, "warning: cannot open metrics sink %s\n",
                   path.c_str());
    } else {
      std::fprintf(stderr, "[bench] metrics JSONL -> %s\n", path.c_str());
      static const bool registered = std::atexit(CloseMetricsSink) == 0;
      (void)registered;
    }
  }
}

core::AggregateResult RunCell(Workbench& wb, core::CacheMethod method,
                              size_t cache_bytes, size_t k, uint32_t tau,
                              bool lru) {
  Check(wb.system->ConfigureCache(method, cache_bytes, tau, lru),
        "ConfigureCache");
  core::AggregateResult agg;
  Check(wb.system->Serve(wb.log.test, k, 1, &agg), "Serve");

  if (g_metrics_file != nullptr) {
    // One line per cell: config, headline aggregates, and a cumulative
    // registry snapshot (counters are process totals, not per-cell deltas).
    std::fprintf(
        g_metrics_file,
        "{\"bench\":\"%s\",\"dataset\":\"%s\",\"method\":\"%s\","
        "\"cache_bytes\":%zu,\"k\":%zu,\"tau\":%u,\"lru\":%s,"
        "\"hit_ratio\":%.9g,\"prune_ratio\":%.9g,"
        "\"avg_response_seconds\":%.9g,\"p50\":%.9g,\"p95\":%.9g,"
        "\"p99\":%.9g,\"metrics\":%s}\n",
        g_bench_id.c_str(), wb.spec.name.c_str(),
        core::CacheMethodName(method), cache_bytes, k,
        wb.system->last_tau(), lru ? "true" : "false", agg.hit_ratio,
        agg.prune_ratio, agg.avg_response_seconds, agg.p50_response_seconds,
        agg.p95_response_seconds, agg.p99_response_seconds,
        obs::ExportJson(wb.metrics).c_str());
    std::fflush(g_metrics_file);
  }
  return agg;
}

}  // namespace eeb::bench
