// Paper Fig. 8: caching policy comparison (HFF vs LRU) with EXACT caching
// on the SOGOU surrogate — refinement time as a function of the result
// size k. HFF (static, workload-driven) should win.

#include "bench/bench_common.h"

int main() {
  using namespace eeb;
  bench::Banner("Figure 8", "HFF vs LRU caching policy, EXACT cache");

  auto wb = bench::MakeWorkbench(workload::SogouSimSpec());
  const size_t cs = wb->default_cache_bytes;

  std::printf("%-6s %18s %18s\n", "k", "HFF refine(s)", "LRU refine(s)");
  for (size_t k : {10, 20, 40, 60, 80, 100}) {
    const auto hff =
        bench::RunCell(*wb, core::CacheMethod::kExact, cs, k, 0, false);
    // LRU starts cold; bring it to steady state by replaying the historical
    // workload stream (what a running service would have processed), then
    // measure on the held-out test queries.
    bench::Check(
        wb->system->ConfigureCache(core::CacheMethod::kExact, cs, 0, true),
        "ConfigureCache");
    core::AggregateResult warm;
    bench::Check(wb->system->Serve(wb->log.workload, k, 1, &warm),
                 "warmup");
    core::AggregateResult lru;
    bench::Check(wb->system->Serve(wb->log.test, k, 1, &lru), "lru");
    std::printf("%-6zu %18.3f %18.3f\n", k, hff.avg_refine_seconds,
                lru.avg_refine_seconds);
  }
  std::printf("\nPaper shape: HFF consistently below LRU; both grow with k.\n");
  return 0;
}
