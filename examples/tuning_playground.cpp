// Cost-model playground (paper Sec. 4): for a given cache budget, sweep the
// code length tau, print the model's estimate next to the measured I/O, and
// show what the automatic tuner would pick. Run it with different budgets
// to watch the optimal tau move.
//
//   ./build/examples/tuning_playground [cache_fraction_percent]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/system.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace eeb;
  double fraction = 0.10;
  if (argc > 1) fraction = std::atof(argv[1]) / 100.0;
  if (fraction <= 0 || fraction > 1) {
    std::fprintf(stderr, "usage: %s [cache_fraction_percent in (0,100]]\n",
                 argv[0]);
    return 1;
  }

  workload::DatasetSpec spec;
  spec.name = "tuning";
  spec.n = 50000;
  spec.dim = 64;
  spec.ndom = 256;
  Dataset data = workload::GenerateClustered(spec);
  workload::QueryLogSpec logspec;
  workload::QueryLog log = workload::GenerateQueryLog(data, logspec);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "eeb_tuning").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<core::System> system;
  Status st = core::System::Create(storage::Env::Default(), dir, data,
                                   log.workload, {}, &system);
  if (!st.ok()) {
    std::fprintf(stderr, "create failed: %s\n", st.ToString().c_str());
    return 1;
  }

  const size_t file_bytes = spec.n * spec.dim * sizeof(float);
  const size_t cache_bytes = static_cast<size_t>(file_bytes * fraction);
  const size_t k = 10;
  const auto inputs = system->MakeCostInputs(cache_bytes, k);

  std::printf("cache budget: %.2f MB (%.0f%% of the file), Dmax=%.0f, "
              "E[|C(q)|]=%.0f\n\n",
              cache_bytes / (1024.0 * 1024.0), fraction * 100, inputs.dmax,
              inputs.avg_candidates);
  std::printf("HC-W (equi-width), Thm. 3 closed-form estimate:\n");
  std::printf("%-5s %10s %10s %14s %14s\n", "tau", "est hit", "est prune",
              "est Crefine", "measured I/O");
  for (uint32_t tau = 1; tau <= system->lvalue(); ++tau) {
    const auto est = core::EstimateEquiWidth(inputs, tau);
    st = system->ConfigureCache(core::CacheMethod::kHcW, cache_bytes, tau);
    if (!st.ok()) {
      std::fprintf(stderr, "configure: %s\n", st.ToString().c_str());
      return 1;
    }
    core::AggregateResult served;
    st = system->Serve(log.test, k, /*n_threads=*/1, &served);
    if (!st.ok()) return 1;
    std::printf("%-5u %10.3f %10.3f %14.1f %14.1f\n", tau, est.hit_ratio,
                est.prune_ratio, est.expected_crefine, served.avg_fetched);
  }
  std::printf("\ntuner picks: HC-W tau=%u, HC-O tau=%u\n",
              system->AutoTau(core::CacheMethod::kHcW, cache_bytes, k),
              system->AutoTau(core::CacheMethod::kHcO, cache_bytes, k));
  std::printf(
      "\nTry: %s 3    (tight budget -> smaller tau)\n     %s 30   (ample "
      "budget -> larger tau)\n",
      "tuning_playground", "tuning_playground");
  return 0;
}
