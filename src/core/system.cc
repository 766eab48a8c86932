#include "core/system.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/bitops.h"
#include "common/timer.h"
#include "index/rtree/rtree_histogram.h"
#include "storage/file_ordering.h"

namespace eeb::core {
namespace {

// Histogram codes bound a coordinate only inside [0, ndom), and under
// integral_values only at integers: anywhere else the cache files the value
// under a bucket that does not contain it, and the cached bounds break the
// NO-CACHE contract. Names the first offending coordinate.
Status CheckValueDomain(const Dataset& data, uint32_t ndom, bool integral) {
  const Scalar* v = data.raw();
  const size_t n = data.size() * data.dim();
  for (size_t i = 0; i < n; ++i) {
    const Scalar x = v[i];
    // NaN fails both comparisons and an infinity the second. Inside
    // [0, 2^32) the int64 round trip is exact for integers only.
    const bool in_range = x >= 0 && static_cast<double>(x) < ndom;
    if (in_range &&
        (!integral || static_cast<Scalar>(static_cast<int64_t>(x)) == x)) {
      continue;
    }
    char msg[160];
    if (in_range) {
      std::snprintf(msg, sizeof(msg),
                    "point %zu, dimension %zu: value %.9g is not an integer "
                    "(integral_values is set)",
                    i / data.dim(), i % data.dim(), static_cast<double>(x));
    } else {
      std::snprintf(msg, sizeof(msg),
                    "point %zu, dimension %zu: value %.9g is outside the "
                    "value domain [0, %u)",
                    i / data.dim(), i % data.dim(), static_cast<double>(x),
                    ndom);
    }
    return Status::InvalidArgument(msg);
  }
  return Status::OK();
}

}  // namespace

const char* CacheMethodName(CacheMethod method) {
  switch (method) {
    case CacheMethod::kNone:
      return "NO-CACHE";
    case CacheMethod::kExact:
      return "EXACT";
    case CacheMethod::kHcW:
      return "HC-W";
    case CacheMethod::kHcV:
      return "HC-V";
    case CacheMethod::kHcM:
      return "HC-M";
    case CacheMethod::kHcD:
      return "HC-D";
    case CacheMethod::kHcO:
      return "HC-O";
    case CacheMethod::kIHcW:
      return "iHC-W";
    case CacheMethod::kIHcD:
      return "iHC-D";
    case CacheMethod::kIHcO:
      return "iHC-O";
    case CacheMethod::kMHcR:
      return "mHC-R";
    case CacheMethod::kCVa:
      return "C-VA";
  }
  return "?";
}

uint32_t System::lvalue() const { return CeilLog2(options_.ndom); }

Status System::Create(storage::Env* env, const std::string& dir,
                      const Dataset& data,
                      const std::vector<std::vector<Scalar>>& workload,
                      const SystemOptions& options,
                      std::unique_ptr<System>* out) {
  EEB_RETURN_IF_ERROR(
      CheckValueDomain(data, options.ndom, options.integral_values));
  std::unique_ptr<System> sys(new System());
  sys->env_ = env;
  sys->options_ = options;
  sys->data_ = &data;

  // Physical ordering of the point file (Fig. 9 configurations).
  std::vector<PointId> order;
  switch (options.ordering) {
    case FileOrdering::kRaw:
      order = storage::RawOrder(data.size());
      break;
    case FileOrdering::kClustered:
      order = storage::ClusteredOrder(data, /*num_clusters=*/64, options.seed);
      break;
    case FileOrdering::kSortedKey:
      order = storage::SortedKeyOrder(data, /*num_keys=*/4, /*w=*/64.0,
                                      options.seed);
      break;
  }
  const std::string path = dir + "/points.eeb";
  // All point-file I/O goes through the retry wrapper; with max_retries == 0
  // it is a pass-through. Writes are never retried (see retry_env.h), so the
  // wrapper is safe for Create too.
  sys->retry_env_ =
      std::make_unique<storage::RetryingEnv>(env, options.io_retry);
  storage::Env* io_env = sys->retry_env_.get();
  EEB_RETURN_IF_ERROR(storage::PointFile::Create(io_env, path, data, order,
                                                 options.page_size));
  EEB_RETURN_IF_ERROR(storage::PointFile::Open(io_env, path, &sys->points_));

  EEB_RETURN_IF_ERROR(index::C2Lsh::Build(data, options.lsh, &sys->lsh_));

  EEB_RETURN_IF_ERROR(AnalyzeWorkload(sys->lsh_.get(), data, workload,
                                      options.analysis_k, &sys->wl_));
  sys->fprime_ = std::make_unique<hist::FrequencyArray>(
      hist::FrequencyArray::FromPoints(data, sys->wl_.qr_points,
                                       options.ndom));
  sys->fdata_ = std::make_unique<hist::FrequencyArray>(
      hist::FrequencyArray::FromDataset(data, options.ndom));

  sys->engine_ = std::make_unique<KnnEngine>(
      sys->lsh_.get(), sys->points_.get(), nullptr, options.engine);
  *out = std::move(sys);
  return Status::OK();
}

void System::EnableMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  lsh_->BindMetrics(registry);
  points_->BindMetrics(registry);
  retry_env_->BindMetrics(registry);
  if (auto gen = generation(); gen != nullptr) {
    gen->cache->BindMetrics(registry);
  }
  if (registry == nullptr) {
    instruments_ = {};
    return;
  }
  instruments_ = {
      .queries = registry->GetCounter("engine.queries"),
      .candidates = registry->GetCounter("engine.candidates"),
      .cache_hits = registry->GetCounter("engine.cache_hits"),
      .cache_misses = registry->GetCounter("engine.cache_misses"),
      .pruned = registry->GetCounter("engine.pruned"),
      .true_hits = registry->GetCounter("engine.true_results"),
      .fetched = registry->GetCounter("engine.fetched"),
      .degraded_queries = registry->GetCounter("engine.degraded_queries"),
      .substituted = registry->GetCounter("engine.degraded_substituted"),
      .read_failures = registry->GetCounter("engine.read_failures"),
      .deadline_cuts = registry->GetCounter("engine.deadline_cuts"),
      .gen_seconds = registry->GetHistogram("engine.gen_seconds"),
      .reduce_seconds = registry->GetHistogram("engine.reduce_seconds"),
      .refine_seconds = registry->GetHistogram("engine.refine_seconds"),
      .response_seconds = registry->GetHistogram("system.response_seconds"),
      .modeled_io_seconds = registry->GetGauge("system.modeled_io_seconds"),
  };
}

void System::SetWindow(obs::WindowedMetrics* window) {
  window_ = window;
  InstallCacheTap();
}

void System::SetRecorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
}

void System::SetCacheAnalytics(obs::CacheAnalytics* analytics) {
  analytics_ = analytics;
  engine_->set_analytics(analytics);
  if (analytics != nullptr) {
    // Anchor the MRC reference point at the live cache's item capacity so
    // cache.mrc.predicted_miss_ratio predicts the configuration in use.
    if (auto gen = generation(); gen != nullptr && gen->cache != nullptr) {
      analytics->set_reference_size(gen->cache->capacity_items());
    }
  }
}

void System::InstallCacheTap() {
  if (window_ == nullptr) return;
  window_->SetCacheTap([this]() -> obs::CacheTapSample {
    auto gen = generation();
    if (gen == nullptr || gen->cache == nullptr) return {};
    const cache::KnnCache::CacheActivity a = gen->cache->activity();
    return obs::CacheTapSample{a.hits, a.misses, a.admits, a.evictions};
  });
}

Status System::Execute(std::span<const Scalar> q, size_t k,
                       uint64_t query_index, QueryResult* out) {
  EEB_RETURN_IF_ERROR(engine_->Query(q, k, out));
  OnQueryFinished(*out, query_index);
  return Status::OK();
}

double System::ModeledResponse(const QueryResult& r,
                               double* modeled_io) const {
  storage::IoStats io = r.gen_io;
  io += r.refine_io;
  const double io_seconds = disk_model_.Seconds(io);
  if (modeled_io != nullptr) *modeled_io = io_seconds;
  return r.gen_seconds + r.reduce_seconds + r.refine_seconds + io_seconds;
}

void System::OnQueryFinished(const QueryResult& r, uint64_t query_index) {
  obs::QueryRecord record;
  record.query_index = query_index;
  record.explain = r;
  double modeled_io = 0.0;
  record.response_seconds = ModeledResponse(r, &modeled_io);
  const QueryInstruments& m = instruments_;
  if (m.queries != nullptr) {
    m.queries->Add(1);
    m.candidates->Add(r.candidates);
    if (r.cache_generation != 0) {  // a cache served the query
      m.cache_hits->Add(r.cache_hits);
      m.cache_misses->Add(r.candidates - r.cache_hits);
    }
    m.pruned->Add(r.pruned);
    m.true_hits->Add(r.true_hits);
    m.fetched->Add(r.fetched);
    if (r.degraded) m.degraded_queries->Add(1);
    m.substituted->Add(r.substituted);
    m.read_failures->Add(r.read_failures);
    if (r.deadline_hit) m.deadline_cuts->Add(1);
    m.gen_seconds->Record(r.gen_seconds);
    m.reduce_seconds->Record(r.reduce_seconds);
    m.refine_seconds->Record(r.refine_seconds);
    m.response_seconds->Record(record.response_seconds);
    m.modeled_io_seconds->Add(modeled_io);
  }
  if (window_ != nullptr) window_->RecordQuery(record);
  if (recorder_ != nullptr) recorder_->Record(record);
}

Status System::EstimateCurrentCache(size_t k, CostEstimate* out) const {
  const CostModelInputs in = MakeCostInputs(last_cache_bytes_, k);
  switch (last_method_) {
    case CacheMethod::kExact:
      *out = EstimateExact(in);
      return Status::OK();
    case CacheMethod::kHcW:
    case CacheMethod::kHcV:
    case CacheMethod::kHcM:
    case CacheMethod::kHcD:
    case CacheMethod::kHcO: {
      // The published generation retains the method's global histogram;
      // re-estimate against exactly the structure the cache codes with.
      auto gen = generation();
      if (gen == nullptr) return Status::InvalidArgument("no cache configured");
      *out = EstimateForHistogram(in, gen->global_hist, *fprime_, *fdata_);
      return Status::OK();
    }
    case CacheMethod::kNone:
      return Status::InvalidArgument("no cache configured");
    default:
      return Status::NotSupported(
          "cost model covers EXACT and global-histogram caches only");
  }
}

Status System::BuildGlobalHistogram(CacheMethod method, uint32_t tau,
                                    hist::Histogram* out) const {
  const uint32_t buckets = 1u << tau;
  switch (method) {
    case CacheMethod::kHcW:
      return hist::BuildEquiWidth(options_.ndom, buckets, out);
    case CacheMethod::kHcV:
      return hist::BuildVOptimal(*fdata_, buckets, out);
    case CacheMethod::kHcM:
      return hist::BuildMaxDiff(*fdata_, buckets, out);
    case CacheMethod::kHcD:
      return hist::BuildEquiDepth(*fdata_, buckets, out);
    case CacheMethod::kHcO:
      return hist::BuildKnnOptimal(*fprime_, buckets, out);
    default:
      return Status::InvalidArgument("not a global-histogram method");
  }
}

CostModelInputs System::MakeCostInputs(size_t cache_bytes, size_t k) const {
  CostModelInputs in;
  in.freq_sorted.reserve(wl_.freq.size());
  for (PointId id : wl_.ids_by_freq) in.freq_sorted.push_back(wl_.freq[id]);
  in.avg_candidates = wl_.avg_candidates;
  in.dmax = std::max(1e-9, wl_.dmax);
  in.avg_knn_dist = wl_.avg_knn_dist;
  in.cand_dist_sample = wl_.cand_dist_sample;
  in.dim = data_->dim();
  in.lvalue = lvalue();
  in.cache_bytes = cache_bytes;
  in.k = k;
  return in;
}

uint32_t System::AutoTau(CacheMethod method, size_t cache_bytes,
                         size_t k) const {
  const CostModelInputs in = MakeCostInputs(cache_bytes, k);
  switch (method) {
    case CacheMethod::kHcW:
    case CacheMethod::kIHcW:
    case CacheMethod::kHcV:
    case CacheMethod::kHcM:
    case CacheMethod::kHcD:
    case CacheMethod::kHcO:
    case CacheMethod::kIHcD:
    case CacheMethod::kIHcO:
    case CacheMethod::kMHcR: {
      auto builder = [&](uint32_t tau, hist::Histogram* h) -> Status {
        CacheMethod gm = method;
        if (method == CacheMethod::kIHcW) gm = CacheMethod::kHcW;
        if (method == CacheMethod::kIHcD) gm = CacheMethod::kHcD;
        if (method == CacheMethod::kIHcO) gm = CacheMethod::kHcO;
        if (method == CacheMethod::kMHcR) gm = CacheMethod::kHcW;
        return BuildGlobalHistogram(gm, tau, h);
      };
      return OptimalTauForBuilder(in, builder, *fprime_, *fdata_);
    }
    default:
      return lvalue();
  }
}

// Builds a complete, fully filled cache generation without touching the
// published one; the caller publishes it atomically on success. Histograms
// live inside the generation so each cache points at structures with the
// same lifetime as itself — a rebuild can no longer mutate a histogram an
// in-flight query is decoding against.
Status System::BuildCacheObject(CacheMethod method, size_t cache_bytes,
                                uint32_t tau, bool lru,
                                std::shared_ptr<CacheGeneration>* out) {
  const Dataset& data = *data_;
  const uint32_t buckets = 1u << tau;
  Timer timer;
  last_space_bytes_ = 0;
  out->reset();

  switch (method) {
    case CacheMethod::kNone:
      return Status::OK();

    case CacheMethod::kExact: {
      auto gen = std::make_shared<CacheGeneration>();
      auto c = std::make_unique<cache::ExactCache>(data.dim(), cache_bytes,
                                                   lru);
      if (!lru) EEB_RETURN_IF_ERROR(c->Fill(data, wl_.ids_by_freq));
      gen->cache = std::move(c);
      *out = std::move(gen);
      return Status::OK();
    }

    case CacheMethod::kHcW:
    case CacheMethod::kHcV:
    case CacheMethod::kHcM:
    case CacheMethod::kHcD:
    case CacheMethod::kHcO: {
      auto gen = std::make_shared<CacheGeneration>();
      EEB_RETURN_IF_ERROR(
          BuildGlobalHistogram(method, tau, &gen->global_hist));
      last_build_seconds_ = timer.ElapsedSeconds();
      last_space_bytes_ = gen->global_hist.SpaceBytes();
      auto c = std::make_unique<cache::HistCodeCache>(
          &gen->global_hist, data.dim(), cache_bytes, lru,
          options_.integral_values);
      if (!lru) EEB_RETURN_IF_ERROR(c->Fill(data, wl_.ids_by_freq));
      gen->cache = std::move(c);
      *out = std::move(gen);
      return Status::OK();
    }

    case CacheMethod::kIHcW:
    case CacheMethod::kIHcD:
    case CacheMethod::kIHcO: {
      hist::BuilderKind kind = hist::BuilderKind::kEquiWidth;
      std::vector<hist::FrequencyArray> freqs;
      if (method == CacheMethod::kIHcW) {
        kind = hist::BuilderKind::kEquiWidth;
        freqs.assign(data.dim(), hist::FrequencyArray(options_.ndom));
      } else if (method == CacheMethod::kIHcD) {
        kind = hist::BuilderKind::kEquiDepth;
        std::vector<PointId> all(data.size());
        for (size_t i = 0; i < all.size(); ++i) {
          all[i] = static_cast<PointId>(i);
        }
        freqs = hist::PerDimFrequencies(data, all, options_.ndom);
      } else {
        kind = hist::BuilderKind::kKnnOptimal;
        freqs = hist::PerDimFrequencies(data, wl_.qr_points, options_.ndom);
      }
      auto gen = std::make_shared<CacheGeneration>();
      EEB_RETURN_IF_ERROR(
          hist::BuildIndividual(freqs, buckets, kind, &gen->indiv_hist));
      last_build_seconds_ = timer.ElapsedSeconds();
      last_space_bytes_ = gen->indiv_hist.SpaceBytes();
      auto c = std::make_unique<cache::IndividualCodeCache>(
          &gen->indiv_hist, buckets, cache_bytes, lru,
          options_.integral_values);
      if (!lru) EEB_RETURN_IF_ERROR(c->Fill(data, wl_.ids_by_freq));
      gen->cache = std::move(c);
      *out = std::move(gen);
      return Status::OK();
    }

    case CacheMethod::kMHcR: {
      auto gen = std::make_shared<CacheGeneration>();
      EEB_RETURN_IF_ERROR(index::BuildRTreeHistogram(
          data, buckets, &gen->md_hist, &gen->md_assignment));
      last_build_seconds_ = timer.ElapsedSeconds();
      last_space_bytes_ = gen->md_hist.SpaceBytes();
      auto c = std::make_unique<cache::MultiDimCodeCache>(&gen->md_hist,
                                                          cache_bytes);
      EEB_RETURN_IF_ERROR(c->Fill(wl_.ids_by_freq, gen->md_assignment));
      gen->cache = std::move(c);
      *out = std::move(gen);
      return Status::OK();
    }

    case CacheMethod::kCVa: {
      // Fit ALL points: the largest tau whose packed VA-file fits CS.
      uint32_t fit_tau = 1;
      for (uint32_t t = lvalue(); t >= 1; --t) {
        const size_t bytes =
            data.size() * WordsForBits(data.dim() * t) * sizeof(uint64_t);
        if (bytes <= cache_bytes) {
          fit_tau = t;
          break;
        }
        if (t == 1) fit_tau = 1;
      }
      last_tau_ = fit_tau;
      std::vector<PointId> all(data.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<PointId>(i);
      auto freqs = hist::PerDimFrequencies(data, all, options_.ndom);
      auto gen = std::make_shared<CacheGeneration>();
      EEB_RETURN_IF_ERROR(hist::BuildIndividual(freqs, 1u << fit_tau,
                                                hist::BuilderKind::kEquiDepth,
                                                &gen->indiv_hist));
      last_build_seconds_ = timer.ElapsedSeconds();
      last_space_bytes_ = gen->indiv_hist.SpaceBytes();
      // Capacity: whole VA-file; fill in frequency order (complete anyway
      // when it fits).
      auto c = std::make_unique<cache::IndividualCodeCache>(
          &gen->indiv_hist, 1u << fit_tau, cache_bytes, /*lru=*/false,
          options_.integral_values);
      EEB_RETURN_IF_ERROR(c->Fill(data, wl_.ids_by_freq));
      gen->cache = std::move(c);
      *out = std::move(gen);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown cache method");
}

void System::PublishGeneration(std::shared_ptr<CacheGeneration> gen) {
  // Bind instruments before the swap so no probe lands on an unbound cache.
  if (gen != nullptr) {
    gen->cache->set_generation_id(
        next_generation_id_.fetch_add(1, std::memory_order_relaxed) + 1);
    if (metrics_ != nullptr) gen->cache->BindMetrics(metrics_);
  }
  // The engine receives an aliasing pointer: it shares ownership of the
  // whole generation but points at the cache, so histograms stay alive for
  // exactly as long as any query still reads through them.
  std::shared_ptr<cache::KnnCache> cache_view;
  if (gen != nullptr) cache_view = {gen, gen->cache.get()};
  bool had_generation;
  {
    MutexLock lock(generation_mu_);
    had_generation = generation_ != nullptr;
    generation_ = std::move(gen);
  }
  engine_->set_cache(std::move(cache_view));
  // Re-base the windowed cache tap: the new generation's counters start
  // from zero and must not read as a negative delta.
  InstallCacheTap();
  if (analytics_ != nullptr) {
    // Replacing a live generation invalidates every cached code: re-misses
    // on keys seen under the old generation classify as invalidation, not
    // capacity. The MRC reference point follows the new capacity either way;
    // the what-if counts restart only if the capacity changed.
    if (had_generation) analytics_->NoteGenerationSwap();
    if (auto cur = generation(); cur != nullptr && cur->cache != nullptr) {
      analytics_->set_reference_size(cur->cache->capacity_items());
    }
  }
}

Status System::RefreshWorkload(
    const std::vector<std::vector<Scalar>>& workload) {
  EEB_RETURN_IF_ERROR(AnalyzeWorkload(lsh_.get(), *data_, workload,
                                      options_.analysis_k, &wl_));
  fprime_ = std::make_unique<hist::FrequencyArray>(
      hist::FrequencyArray::FromPoints(*data_, wl_.qr_points, options_.ndom));
  return Status::OK();
}

Status System::SetWorkloadStats(WorkloadStats stats,
                                hist::FrequencyArray fprime) {
  if (fprime.ndom() != options_.ndom) {
    return Status::InvalidArgument("fprime domain mismatch");
  }
  if (stats.freq.size() != data_->size()) {
    return Status::InvalidArgument("freq size mismatch");
  }
  wl_ = std::move(stats);
  fprime_ = std::make_unique<hist::FrequencyArray>(std::move(fprime));
  return Status::OK();
}

Status System::ReconfigureCache() {
  if (last_method_ == CacheMethod::kNone && last_cache_bytes_ == 0) {
    return Status::OK();
  }
  return ConfigureCache(last_method_, last_cache_bytes_, last_requested_tau_,
                        last_lru_);
}

Status System::ConfigureCache(CacheMethod method, size_t cache_bytes,
                              uint32_t tau, bool lru) {
  last_method_ = method;
  last_cache_bytes_ = cache_bytes;
  last_requested_tau_ = tau;
  last_lru_ = lru;
  last_build_seconds_ = 0.0;
  if (method != CacheMethod::kCVa) {
    if (tau == 0) tau = AutoTau(method, cache_bytes, options_.analysis_k);
    if (tau > 24) return Status::InvalidArgument("tau too large");
    last_tau_ = tau;
  }
  std::shared_ptr<CacheGeneration> gen;
  EEB_RETURN_IF_ERROR(BuildCacheObject(method, cache_bytes, tau, lru, &gen));
  PublishGeneration(std::move(gen));
  if (metrics_ != nullptr) {
    metrics_->GetGauge("cache.build_seconds")->Set(last_build_seconds_);
    metrics_->GetGauge("cache.aux_space_bytes")
        ->Set(static_cast<double>(last_space_bytes_));
    metrics_->GetGauge("cache.tau")->Set(static_cast<double>(last_tau_));
  }
  return Status::OK();
}

Status System::Query(std::span<const Scalar> q, size_t k, QueryResult* out) {
  return Execute(q, k, 0, out);
}

Status System::Serve(const std::vector<std::vector<Scalar>>& queries,
                     size_t k, size_t n_threads, AggregateResult* agg,
                     std::vector<QueryResult>* per_query) {
  *agg = AggregateResult{};
  if (per_query != nullptr) per_query->clear();
  if (n_threads == 0) {
    return Status::InvalidArgument("n_threads must be positive");
  }
  // Every query writes only its own slots, so no result-side synchronization
  // is needed; aggregation then folds the slots in query order, making the
  // aggregate bit-exact at any thread count. The sink runs on the thread
  // that ran the query, so the window and recorder see queries as they
  // finish, not at batch end.
  std::vector<QueryResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      statuses[i] = Execute(queries[i], k, i, &results[i]);
    }
  };
  {
    std::vector<std::jthread> helpers;
    for (size_t t = 1; t < std::min(n_threads, queries.size()); ++t) {
      helpers.emplace_back(worker);
    }
    worker();
  }  // joins the helpers
  for (const Status& st : statuses) {
    EEB_RETURN_IF_ERROR(st);
  }
  AggregateResults(results, agg);
  if (per_query != nullptr) *per_query = std::move(results);
  return Status::OK();
}

void System::AggregateResults(const std::vector<QueryResult>& results,
                              AggregateResult* out) const {
  double hits = 0.0;
  double probes = 0.0;
  double reduced = 0.0;
  storage::IoStats gen_total, refine_total;
  // Modeled response-time distribution; log-bucketed so batches of any size
  // aggregate in O(1) memory (satisfies the same p50<=p95<=p99 contract as
  // the exact sort it replaces, within one bucket width).
  obs::LatencyHistogram latencies;
  for (const QueryResult& r : results) {
    latencies.Record(ModeledResponse(r));
    out->avg_candidates += static_cast<double>(r.candidates);
    out->avg_remaining += static_cast<double>(r.remaining);
    out->avg_fetched += static_cast<double>(r.fetched);
    out->avg_refine_pages += static_cast<double>(r.refine_io.page_reads);
    out->avg_gen_pages += static_cast<double>(r.gen_io.page_reads);
    out->avg_gen_seq_pages += static_cast<double>(r.gen_io.seq_page_reads);
    gen_total += r.gen_io;
    refine_total += r.refine_io;
    out->avg_gen_cpu += r.gen_seconds;
    out->avg_reduce_cpu += r.reduce_seconds;
    out->avg_refine_cpu += r.refine_seconds;
    hits += static_cast<double>(r.cache_hits);
    probes += static_cast<double>(r.candidates);
    reduced += static_cast<double>(r.pruned + r.true_hits);
    if (r.degraded) out->degraded_queries++;
    if (r.deadline_hit) out->deadline_cuts++;
    out->avg_substituted += static_cast<double>(r.substituted);
    out->read_failures += r.read_failures;
  }
  out->queries = results.size();
  if (results.empty()) return;
  const double nq = static_cast<double>(results.size());
  out->avg_candidates /= nq;
  out->avg_remaining /= nq;
  out->avg_fetched /= nq;
  out->avg_refine_pages /= nq;
  out->avg_gen_pages /= nq;
  out->avg_gen_seq_pages /= nq;
  out->avg_gen_cpu /= nq;
  out->avg_reduce_cpu /= nq;
  out->avg_refine_cpu /= nq;
  out->hit_ratio = probes > 0 ? hits / probes : 0.0;
  out->prune_ratio = hits > 0 ? reduced / hits : 0.0;
  out->avg_gen_seconds = out->avg_gen_cpu + disk_model_.Seconds(gen_total) / nq;
  out->avg_refine_seconds = out->avg_reduce_cpu + out->avg_refine_cpu +
                            disk_model_.Seconds(refine_total) / nq;
  out->avg_response_seconds = out->avg_gen_seconds + out->avg_refine_seconds;

  out->degraded_rate = static_cast<double>(out->degraded_queries) / nq;
  out->avg_substituted /= nq;

  out->p50_response_seconds = latencies.Percentile(0.50);
  out->p95_response_seconds = latencies.Percentile(0.95);
  out->p99_response_seconds = latencies.Percentile(0.99);
}

}  // namespace eeb::core
