// Micro-benchmarks (google-benchmark) for the hot kernels: code packing and
// decoding, distance-bound evaluation, histogram lookup, Euclidean distance,
// and histogram construction. These are the operations the candidate-
// reduction phase performs per candidate, so their throughput bounds how
// cheap "no-I/O pruning" really is. BM_CacheProbe and BM_CacheAdmit time
// whole cache calls through the public API. BM_C2LshCandidates times
// candidate generation, the phase that dominates a measured query at scale.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "cache/code_store.h"
#include "cache/code_cache.h"
#include "common/dataset.h"
#include "common/distance.h"
#include "common/random.h"
#include "core/knn_engine.h"
#include "hist/bounds.h"
#include "hist/builders.h"
#include "index/lsh/c2lsh.h"
#include "obs/metrics.h"
#include "storage/file_ordering.h"
#include "storage/point_file.h"
#include "workload/generator.h"

namespace {

using namespace eeb;

std::vector<Scalar> RandomPoint(Rng& rng, size_t d, uint32_t ndom) {
  std::vector<Scalar> p(d);
  for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(ndom));
  return p;
}

void BM_PackCodes(benchmark::State& state) {
  const size_t d = state.range(0);
  const uint32_t tau = state.range(1);
  cache::CodeStore store(d, tau);
  const uint32_t slot = store.AllocateSlot();
  Rng rng(1);
  std::vector<BucketId> codes(d);
  for (auto& c : codes) {
    c = static_cast<BucketId>(rng.Uniform(1u << tau));
  }
  for (auto _ : state) {
    store.Write(slot, codes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_PackCodes)->Args({64, 4})->Args({64, 8})->Args({128, 8})
    ->Args({960, 10});

void BM_UnpackCodes(benchmark::State& state) {
  const size_t d = state.range(0);
  const uint32_t tau = state.range(1);
  cache::CodeStore store(d, tau);
  const uint32_t slot = store.AllocateSlot();
  Rng rng(2);
  std::vector<BucketId> codes(d), out(d);
  for (auto& c : codes) {
    c = static_cast<BucketId>(rng.Uniform(1u << tau));
  }
  store.Write(slot, codes);
  for (auto _ : state) {
    store.Read(slot, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_UnpackCodes)->Args({64, 4})->Args({64, 8})->Args({128, 8})
    ->Args({960, 10});

void BM_CodeBounds(benchmark::State& state) {
  const size_t d = state.range(0);
  const uint32_t buckets = state.range(1);
  hist::Histogram h;
  (void)hist::BuildEquiWidth(256, buckets, &h);
  Rng rng(3);
  const auto q = RandomPoint(rng, d, 256);
  const auto p = RandomPoint(rng, d, 256);
  std::vector<BucketId> codes(d);
  cache::EncodeGlobal(h, p, codes);
  double lb, ub;
  for (auto _ : state) {
    hist::CodeBoundsGlobal(h, q, codes, &lb, &ub);
    benchmark::DoNotOptimize(lb);
    benchmark::DoNotOptimize(ub);
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_CodeBounds)->Args({64, 16})->Args({64, 256})->Args({128, 256})
    ->Args({960, 1024});

void BM_ExactDistance(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(4);
  const auto q = RandomPoint(rng, d, 256);
  const auto p = RandomPoint(rng, d, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(L2(q, p));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_ExactDistance)->Arg(64)->Arg(128)->Arg(960);

void BM_HistogramLookup(benchmark::State& state) {
  hist::Histogram h;
  (void)hist::BuildEquiWidth(256, state.range(0), &h);
  Rng rng(5);
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Lookup(v));
    v = (v + 97) & 255;
  }
}
BENCHMARK(BM_HistogramLookup)->Arg(16)->Arg(256);

void BM_EncodePoint(benchmark::State& state) {
  const size_t d = state.range(0);
  hist::Histogram h;
  (void)hist::BuildEquiWidth(256, 256, &h);
  Rng rng(6);
  const auto p = RandomPoint(rng, d, 256);
  std::vector<BucketId> codes(d);
  for (auto _ : state) {
    cache::EncodeGlobal(h, p, codes);
    benchmark::DoNotOptimize(codes.data());
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_EncodePoint)->Arg(64)->Arg(960);

void BM_BuildKnnOptimal(benchmark::State& state) {
  const uint32_t ndom = state.range(0);
  const uint32_t buckets = state.range(1);
  Rng rng(7);
  hist::FrequencyArray f(ndom);
  for (uint32_t x = 0; x < ndom; ++x) {
    if (rng.Bernoulli(0.4)) f.Add(x, 1.0 + rng.Uniform(40));
  }
  for (auto _ : state) {
    hist::Histogram h;
    (void)hist::BuildKnnOptimal(f, buckets, &h);
    benchmark::DoNotOptimize(h.num_buckets());
  }
}
BENCHMARK(BM_BuildKnnOptimal)->Args({256, 16})->Args({256, 256})
    ->Args({1024, 64});

// --- observability overhead -------------------------------------------------
// The acceptance bar for the obs subsystem: one bound counter add / one
// histogram record must be a handful of ns, and an instrumented cache probe
// must stay within a few percent of the uninstrumented one.

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("bench.counter");
  for (auto _ : state) {
    c->Add(1);
  }
  benchmark::DoNotOptimize(c->value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry reg;
  obs::LatencyHistogram* h = reg.GetHistogram("bench.hist");
  double v = 1e-6;
  for (auto _ : state) {
    h->Record(v);
    v = v < 1.0 ? v * 1.001 : 1e-6;
  }
  benchmark::DoNotOptimize(h->count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramRecord);

// Static HC probe hits, args {instrumented, items, d, tau} over a domain of
// 2^tau values. 4096 x 64 at tau = 8 fits in L2: compare its instr:0 and
// instr:1 rows to verify the <=5% instrumented-overhead criterion.
// 73000 x 128 at tau = 10 is the shape of sogou_hot's HC-O cache, 11.7 MB
// of codes.
void BM_CacheProbe(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  const size_t n = state.range(1);
  const size_t d = state.range(2);
  const uint32_t ndom = 1u << state.range(3);
  Rng rng(9);
  Dataset data(d);
  for (size_t i = 0; i < n; ++i) data.Append(RandomPoint(rng, d, ndom));
  hist::Histogram h;
  (void)hist::BuildEquiWidth(ndom, ndom, &h);
  cache::HistCodeCache cache(&h, d, /*capacity_bytes=*/size_t{1} << 24,
                             /*lru=*/false, /*integral_values=*/true);
  std::vector<PointId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i);
  if (!cache.Fill(data, ids).ok() || cache.size() != n) {
    state.SkipWithError("cache fill failed");
    return;
  }
  obs::MetricsRegistry reg;
  if (instrumented) cache.BindMetrics(&reg);

  const auto q = RandomPoint(rng, d, ndom);
  double lb, ub;
  PointId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Probe(q, id, &lb, &ub));
    benchmark::DoNotOptimize(lb);
    id += 257;
    if (id >= n) id -= n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheProbe)
    ->ArgNames({"instr", "items", "d", "tau"})
    ->Args({0, 4096, 64, 8})
    ->Args({1, 4096, 64, 8})
    ->Args({0, 73000, 128, 10});

// An LRU HC cache at the shape of nusw_churn's: d = 64, tau = 8, 4267
// items, ids uniform over 50k. Each iteration is one probe, which misses
// ~91% of the time, and one admit: what a refinement fetch costs a full
// LRU cache.
void BM_CacheAdmit(benchmark::State& state) {
  const size_t d = 64;
  const size_t items = 4267;
  const uint32_t n = 50000;
  Rng rng(12);
  hist::Histogram h;
  (void)hist::BuildEquiWidth(1024, 256, &h);
  // 64 codes of 8 bits: 64 B per item.
  cache::HistCodeCache cache(&h, d, /*capacity_bytes=*/items * 64,
                             /*lru=*/true, /*integral_values=*/true);
  std::vector<std::vector<Scalar>> points(1024);
  for (auto& p : points) p = RandomPoint(rng, d, 1024);
  std::vector<PointId> ids(1 << 16);
  for (auto& id : ids) id = static_cast<PointId>(rng.Uniform(n));
  for (size_t i = 0; i < items; ++i) {
    cache.Admit(static_cast<PointId>(i), points[i % points.size()]);
  }
  if (cache.size() != items) {
    state.SkipWithError("cache did not fill");
    return;
  }

  const auto q = RandomPoint(rng, d, 1024);
  double lb, ub;
  size_t i = 0;
  for (auto _ : state) {
    const PointId id = ids[i & (ids.size() - 1)];
    benchmark::DoNotOptimize(cache.Probe(q, id, &lb, &ub));
    cache.Admit(id, points[i & (points.size() - 1)]);
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAdmit);

// Arg(0): uninstrumented seed path; Arg(1): the component metrics a bare
// engine can carry (cache + LSH + point file; the per-query engine.*
// instruments live in System's sink, and trace events stay off). The
// acceptance criterion compares whole-query time, where the once-per-query
// instrument updates are amortized over hundreds of per-candidate
// operations.
void BM_EngineQuery(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  const size_t d = 32;
  const size_t n = 2000;
  Rng rng(10);
  Dataset data(d);
  for (size_t i = 0; i < n; ++i) data.Append(RandomPoint(rng, d, 256));

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("eeb_micro_" + std::to_string(getpid())))
          .string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/points.eeb";
  storage::Env* env = storage::Env::Default();
  std::unique_ptr<storage::PointFile> points;
  if (!storage::PointFile::Create(env, path, data,
                                  storage::RawOrder(data.size()), 4096)
           .ok() ||
      !storage::PointFile::Open(env, path, &points).ok()) {
    state.SkipWithError("point file setup failed");
    return;
  }
  std::unique_ptr<index::C2Lsh> lsh;
  if (!index::C2Lsh::Build(data, index::C2LshOptions{}, &lsh).ok()) {
    state.SkipWithError("lsh build failed");
    return;
  }
  hist::Histogram h;
  (void)hist::BuildEquiWidth(256, 256, &h);
  cache::HistCodeCache cache(&h, d, /*capacity_bytes=*/1 << 16,
                             /*lru=*/false, /*integral_values=*/true);
  std::vector<PointId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<PointId>(i);
  if (!cache.Fill(data, ids).ok()) {
    state.SkipWithError("cache fill failed");
    return;
  }
  core::KnnEngine engine(lsh.get(), points.get(), &cache);
  obs::MetricsRegistry reg;
  if (instrumented) {
    cache.BindMetrics(&reg);
    lsh->BindMetrics(&reg);
    points->BindMetrics(&reg);
  }

  std::vector<std::vector<Scalar>> queries;
  for (size_t i = 0; i < 16; ++i) queries.push_back(RandomPoint(rng, d, 256));
  size_t qi = 0;
  for (auto _ : state) {
    core::QueryResult out;
    if (!engine.Query(queries[qi], /*k=*/10, &out).ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(out.result_ids.data());
    qi = (qi + 1) & 15;
  }
  state.SetItemsProcessed(state.iterations());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_EngineQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// C2LSH candidate generation alone: a default-option index over clustered
// data, queried with the query-log generator's jittered data points.
// Args: {n, dim}. Reports time per Candidates call and `entries_per_call`,
// the mean index entries charged per call under the disk model
// (lsh.entries_scanned) over one untimed pass of the whole query set. The
// index is built once per shape and kept for the process, so the timing
// trials do not rebuild it.
struct LshFixture {
  std::unique_ptr<index::C2Lsh> lsh;
  std::vector<std::vector<Scalar>> queries;
  double entries_per_call = 0.0;
};

const LshFixture* GetLshFixture(size_t n, size_t dim) {
  static std::map<std::pair<size_t, size_t>, LshFixture> fixtures;
  auto [it, inserted] = fixtures.try_emplace({n, dim});
  LshFixture& f = it->second;
  if (!inserted) return f.lsh != nullptr ? &f : nullptr;

  workload::DatasetSpec spec;
  spec.n = n;
  spec.dim = dim;
  const Dataset data = workload::GenerateClustered(spec);
  f.queries = workload::GenerateQueryLog(data, {}).workload;
  if (!index::C2Lsh::Build(data, index::C2LshOptions{}, &f.lsh).ok()) {
    f.lsh.reset();
    return nullptr;
  }
  obs::MetricsRegistry reg;
  f.lsh->BindMetrics(&reg);
  std::vector<PointId> cand;
  for (const auto& q : f.queries) {
    if (!f.lsh->Candidates(q, /*k=*/10, &cand, nullptr).ok()) {
      f.lsh.reset();
      return nullptr;
    }
  }
  f.lsh->BindMetrics(nullptr);
  f.entries_per_call =
      static_cast<double>(reg.GetCounter("lsh.entries_scanned")->value()) /
      static_cast<double>(f.queries.size());
  return &f;
}

void BM_C2LshCandidates(benchmark::State& state) {
  const LshFixture* f = GetLshFixture(state.range(0), state.range(1));
  if (f == nullptr) {
    state.SkipWithError("lsh setup failed");
    return;
  }
  std::vector<PointId> cand;
  size_t qi = 0;
  for (auto _ : state) {
    if (!f->lsh->Candidates(f->queries[qi], /*k=*/10, &cand, nullptr).ok()) {
      state.SkipWithError("candidates failed");
      break;
    }
    benchmark::DoNotOptimize(cand.data());
    benchmark::ClobberMemory();
    qi = (qi + 1) % f->queries.size();
  }
  state.counters["entries_per_call"] = f->entries_per_call;
}
BENCHMARK(BM_C2LshCandidates)->Args({50000, 64})->Args({200000, 128})
    ->Unit(benchmark::kMicrosecond);

void BM_BuildVOptimal(benchmark::State& state) {
  const uint32_t ndom = state.range(0);
  const uint32_t buckets = state.range(1);
  Rng rng(8);
  hist::FrequencyArray f(ndom);
  for (uint32_t x = 0; x < ndom; ++x) f.Add(x, 1.0 + rng.Uniform(40));
  for (auto _ : state) {
    hist::Histogram h;
    (void)hist::BuildVOptimal(f, buckets, &h);
    benchmark::DoNotOptimize(h.num_buckets());
  }
}
BENCHMARK(BM_BuildVOptimal)->Args({256, 16})->Args({256, 256});

}  // namespace

BENCHMARK_MAIN();
