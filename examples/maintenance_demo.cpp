// Maintenance scenario (paper Sec. 3.5): a search service runs for several
// "days" (epochs). The query distribution shifts mid-way; the
// CacheMaintainer notices the drift in the near-result distribution and
// rebuilds the workload statistics, histogram and cache — queries keep
// their exact results throughout, only the hit ratio moves.

#include <cstdio>
#include <filesystem>

#include "core/maintenance.h"
#include "workload/generator.h"

int main() {
  using namespace eeb;

  workload::DatasetSpec spec;
  spec.name = "maintenance";
  spec.n = 30000;
  spec.dim = 32;
  spec.ndom = 1024;
  spec.cluster_stddev = 56.0;
  Dataset data = workload::GenerateClustered(spec);

  // Epoch A and epoch B use disjoint query pools: the "topic of the day"
  // changes.
  workload::QueryLogSpec qa;
  qa.pool_size = 150;
  qa.workload_size = 500;
  qa.jitter_stddev = 16.0;
  qa.seed = 1001;
  auto log_a = workload::GenerateQueryLog(data, qa);
  workload::QueryLogSpec qb = qa;
  qb.seed = 2002;
  auto log_b = workload::GenerateQueryLog(data, qb);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "eeb_maint_demo").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<core::System> system;
  Status st = core::System::Create(storage::Env::Default(), dir, data,
                                   log_a.workload, {}, &system);
  if (!st.ok()) {
    std::fprintf(stderr, "create: %s\n", st.ToString().c_str());
    return 1;
  }
  const size_t cs = spec.n * spec.dim * sizeof(float) / 10;
  st = system->ConfigureCache(core::CacheMethod::kHcO, cs);
  if (!st.ok()) {
    std::fprintf(stderr, "cache: %s\n", st.ToString().c_str());
    return 1;
  }

  auto report = [&](const char* label,
                    const std::vector<std::vector<Scalar>>& queries) {
    core::AggregateResult served;
    Status s = system->Serve(queries, 10, /*n_threads=*/1, &served);
    if (!s.ok()) std::exit(1);
    std::printf("%-34s hit %5.1f%%  refine %.3f s\n", label,
                100 * served.hit_ratio, served.avg_refine_seconds);
  };

  core::CacheMaintainer maintainer(system.get(), {.rebuild_threshold = 0.15});

  std::printf("== epoch 1: workload A (the cache was built for it)\n");
  report("serving A", log_a.test);
  Status ms = maintainer.EndEpoch(log_a.workload);
  if (!ms.ok()) return 1;
  std::printf("maintenance: drift %.3f -> %s\n\n", maintainer.last_drift(),
              maintainer.rebuilds() ? "REBUILD" : "keep");

  std::printf("== epoch 2: the workload shifts to B\n");
  report("serving B with the A-cache", log_b.test);
  ms = maintainer.EndEpoch(log_b.workload);
  if (!ms.ok()) return 1;
  std::printf("maintenance: drift %.3f -> %s\n", maintainer.last_drift(),
              maintainer.rebuilds() ? "REBUILD" : "keep");
  report("serving B after maintenance", log_b.test);
  return 0;
}
