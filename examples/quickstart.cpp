// Quickstart: build a disk-based kNN system over a synthetic image-feature
// dataset, attach the paper's histogram cache (HC-O), and run a query.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <filesystem>

#include "core/system.h"
#include "workload/generator.h"

int main() {
  using namespace eeb;

  // 1. A small clustered dataset standing in for image feature vectors.
  workload::DatasetSpec spec;
  spec.name = "quickstart";
  spec.n = 20000;
  spec.dim = 64;
  spec.ndom = 256;
  Dataset data = workload::GenerateClustered(spec);

  // 2. A query log with Zipf popularity (what a real service would have).
  workload::QueryLogSpec logspec;
  logspec.pool_size = 200;
  logspec.workload_size = 500;
  logspec.test_size = 5;
  workload::QueryLog log = workload::GenerateQueryLog(data, logspec);

  // 3. Assemble the system: point file on disk, C2LSH index, workload
  //    analysis (HFF frequencies, F' array) — all offline.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "eeb_quickstart").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<core::System> system;
  Status st = core::System::Create(storage::Env::Default(), dir, data,
                                   log.workload, core::SystemOptions{},
                                   &system);
  if (!st.ok()) {
    std::fprintf(stderr, "create failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // 4. Install the kNN-optimal histogram cache. tau = 0 lets the Sec. 4
  //    cost model pick the code length for the budget.
  const size_t cache_bytes = 512 * 1024;  // 512 KB, ~10% of the file
  st = system->ConfigureCache(core::CacheMethod::kHcO, cache_bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "cache failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("cache: HC-O, tau=%u, %zu items of %zu bytes\n",
              system->last_tau(), system->cache()->size(),
              system->cache()->item_bytes());

  // 5. Run a 10-NN query and inspect what the cache saved.
  core::QueryResult r;
  st = system->Query(log.test[0], /*k=*/10, &r);
  if (!st.ok()) {
    std::fprintf(stderr, "query failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("result ids:");
  for (PointId id : r.result_ids) std::printf(" %u", id);
  std::printf("\n");
  std::printf(
      "candidates=%u  cache_hits=%u  pruned=%u  sure=%u  fetched=%u\n",
      r.candidates, r.cache_hits, r.pruned, r.true_hits, r.fetched);
  std::printf("disk reads: %llu points (%llu pages)\n",
              static_cast<unsigned long long>(r.refine_io.point_reads),
              static_cast<unsigned long long>(r.refine_io.page_reads));
  std::printf(
      "\nWithout the cache every one of the %u candidates would have been "
      "fetched.\n",
      r.candidates);
  return 0;
}
