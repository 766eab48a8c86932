// Shared scaffolding for the experiment harness: builds the per-dataset
// System (dataset -> point file -> C2LSH -> workload analysis) and provides
// table-printing helpers so every bench binary prints rows in the style of
// the paper's tables/figures.

#ifndef EEB_BENCH_BENCH_COMMON_H_
#define EEB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/scoped_temp_dir.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/registry.h"

namespace eeb::bench {

/// Everything one experiment needs for one dataset.
struct Workbench {
  // The point file's private directory. Declared first so it is removed
  // last, after the system that holds the file open.
  ScopedTempDir dir{"eeb_bench"};
  workload::DatasetSpec spec;
  Dataset data;
  workload::QueryLog log;
  // Declared before `system` (which holds bound instrument pointers) so the
  // registry outlives it.
  obs::MetricsRegistry metrics;
  std::unique_ptr<core::System> system;
  size_t default_cache_bytes = 0;
};

/// Builds a workbench. Aborts (prints + exits) on error — bench binaries
/// have no useful recovery path.
std::unique_ptr<Workbench> MakeWorkbench(
    workload::DatasetSpec spec,
    core::SystemOptions opt = core::SystemOptions{});

/// Prints the experiment banner: which paper table/figure it regenerates.
void Banner(const std::string& id, const std::string& what);

/// Dies with a message if `st` is not OK.
void Check(const Status& st, const char* what);

/// Aggregate of one (method, config) cell, via System::Serve on the test
/// query set at result size k.
core::AggregateResult RunCell(Workbench& wb, core::CacheMethod method,
                              size_t cache_bytes, size_t k, uint32_t tau = 0,
                              bool lru = false);

}  // namespace eeb::bench

#endif  // EEB_BENCH_BENCH_COMMON_H_
