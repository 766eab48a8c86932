// Ablation of the paper's footnote 6: fetching cache-missed candidates
// eagerly during the reduction phase tightens lbk/ubk but pays I/O for
// every miss. The footnote predicts it helps only at middling hit ratios
// (at low hit ratios few candidates are prunable anyway; at high hit ratios
// the bounds are already tight). Sweep the cache size to show that.

#include "bench/bench_common.h"
#include "core/knn_engine.h"

int main() {
  using namespace eeb;
  bench::Banner("Ablation", "footnote-6 eager miss fetch (SOGOU-SIM)");

  auto wb = bench::MakeWorkbench(workload::SogouSimSpec());
  const size_t file_bytes = wb->spec.n * wb->spec.dim * sizeof(float);
  const size_t k = 10;

  std::printf("%-10s %8s %14s %14s\n", "CS/file", "hit", "lazy I/O",
              "eager I/O");
  for (double frac : {0.005, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    const size_t cs = static_cast<size_t>(file_bytes * frac);
    bench::Check(wb->system->ConfigureCache(core::CacheMethod::kHcO, cs),
                 "ConfigureCache");

    double hit = 0;
    double lazy_io = 0, eager_io = 0;
    // Lazy run (the default engine behavior).
    {
      core::AggregateResult agg;
      bench::Check(wb->system->Serve(wb->log.test, k, 1, &agg), "lazy");
      hit = agg.hit_ratio;
      lazy_io = agg.avg_fetched;
    }
    // Eager run: same cache, different engine policy. Build a private
    // engine so the System's default stays untouched.
    {
      core::KnnEngine engine(&wb->system->lsh(), &wb->system->point_file(),
                             wb->system->cache(),
                             core::EngineOptions{.eager_miss_fetch = true});
      double total = 0;
      for (const auto& q : wb->log.test) {
        core::QueryResult r;
        bench::Check(engine.Query(q, k, &r), "eager query");
        total += static_cast<double>(r.fetched);
      }
      eager_io = total / wb->log.test.size();
    }
    std::printf("%-10.3f %8.2f %14.1f %14.1f\n", frac, hit, lazy_io,
                eager_io);
  }
  std::printf(
      "\nExpected: eager fetching costs extra I/O at low hit ratios (every "
      "miss is paid\nimmediately) and converges to lazy at high hit ratios; "
      "any win is confined to the\nmiddle — matching the paper's remark that "
      "the optimization \"is not effective when\nthe hit ratio is low ... or "
      "high\".\n");
  return 0;
}
