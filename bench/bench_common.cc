#include "bench/bench_common.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "common/timer.h"

namespace eeb::bench {

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
}

core::AggregateResult RunCell(Workbench& wb, core::CacheMethod method,
                              size_t cache_bytes, size_t k, uint32_t tau,
                              bool lru) {
  Check(wb.system->ConfigureCache(method, cache_bytes, tau, lru),
        "ConfigureCache");
  core::AggregateResult agg;
  Check(wb.system->Serve(wb.log.test, k, 1, &agg), "Serve");
  return agg;
}

}  // namespace eeb::bench
