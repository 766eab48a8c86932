// Concurrency tests (docs/CONCURRENCY.md): the backbone invariant of the
// batch entry — N threads in one System::Serve call produce bit-exact
// per-query results (answers, funnels, cache hits and I/O) and bit-exact
// I/O-derived aggregates, for every static cache method. One
// test races queries against maintenance-style cache rebuilds: publication
// is atomic, so every answer stays exact. A failing query does not stop the
// batch. Golden hashes pin what a one-thread batch does to an LRU cache
// (EXACT, HC-O, iHC-O) and what a static fill leaves in every method.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "cache/exact_cache.h"
#include "cache/knn_cache.h"
#include "common/dataset.h"
#include "core/system.h"
#include "storage/mem_env.h"
#include "workload/generator.h"
#include "fnv1a.h"

namespace eeb {
namespace {

constexpr size_t kThreads = 8;

// ---- Concurrent query path ------------------------------------------------

struct ConcurrencyRig {
  storage::MemEnv env;
  Dataset data;
  workload::QueryLog log;
  std::unique_ptr<core::System> system;

  explicit ConcurrencyRig(bool trace_events = false) {
    core::SystemOptions opt;
    opt.ndom = 256;
    opt.engine.trace_events = trace_events;
    // LSH tuned for the 16-dim surrogate (defaults target 64-dim).
    opt.lsh.num_functions = 16;
    opt.lsh.collision_threshold = 8;
    opt.lsh.beta_candidates = 150;
    workload::DatasetSpec dspec;
    dspec.name = "conc";
    dspec.n = 4000;
    dspec.dim = 16;
    dspec.ndom = 256;
    dspec.clusters = 16;
    dspec.cluster_stddev = 12.0;
    dspec.seed = 7;
    data = workload::GenerateClustered(dspec);
    workload::QueryLogSpec lspec;
    lspec.workload_size = 400;
    lspec.test_size = 80;
    lspec.jitter_stddev = 4.0;
    lspec.seed = 11;
    log = workload::GenerateQueryLog(data, lspec);
    EXPECT_TRUE(
        core::System::Create(&env, "/conc", data, log.workload, opt, &system)
            .ok());
    // Static HFF cache: lock-free concurrent probes, deterministic hit/miss
    // totals (an LRU cache's content would depend on arrival interleaving).
    EXPECT_TRUE(system
                    ->ConfigureCache(core::CacheMethod::kHcO,
                                     /*cache_bytes=*/32 << 10, /*tau=*/4)
                    .ok());
  }
};

void ExpectSameIo(const storage::IoStats& a, const storage::IoStats& b) {
  EXPECT_EQ(a.point_reads, b.point_reads);
  EXPECT_EQ(a.page_reads, b.page_reads);
  EXPECT_EQ(a.seq_page_reads, b.seq_page_reads);
  EXPECT_EQ(a.node_reads, b.node_reads);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
}

TEST(ConcurrencyTest, EightThreadsBitExactVsSerialReference) {
  ConcurrencyRig rig;
  const size_t k = 10;

  // Every static method at 6 KB and tau = 4, a budget at which each one
  // both hits and misses on this rig.
  for (const core::CacheMethod method :
       {core::CacheMethod::kExact, core::CacheMethod::kHcW,
        core::CacheMethod::kHcV, core::CacheMethod::kHcM,
        core::CacheMethod::kHcD, core::CacheMethod::kHcO,
        core::CacheMethod::kIHcW, core::CacheMethod::kIHcD,
        core::CacheMethod::kIHcO, core::CacheMethod::kMHcR,
        core::CacheMethod::kCVa}) {
    SCOPED_TRACE(core::CacheMethodName(method));
    ASSERT_TRUE(
        rig.system->ConfigureCache(method, /*cache_bytes=*/6 << 10, /*tau=*/4)
            .ok());

    // Serial reference pass.
    std::vector<core::QueryResult> serial(rig.log.test.size());
    uint64_t serial_hits = 0;
    uint64_t serial_misses = 0;
    for (size_t i = 0; i < rig.log.test.size(); ++i) {
      ASSERT_TRUE(rig.system->Query(rig.log.test[i], k, &serial[i]).ok());
      serial_hits += serial[i].cache_hits;
      serial_misses += serial[i].candidates - serial[i].cache_hits;
    }

    // Concurrent pass over the same shared system, 8 threads.
    core::AggregateResult agg;
    std::vector<core::QueryResult> conc;
    ASSERT_TRUE(
        rig.system->Serve(rig.log.test, k, kThreads, &agg, &conc).ok());

    // Every query is bit-exact vs the serial reference: ids and every count
    // that feeds the modeled-latency pipeline.
    ASSERT_EQ(conc.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(conc[i].result_ids, serial[i].result_ids) << "query " << i;
      EXPECT_EQ(conc[i].candidates, serial[i].candidates) << "query " << i;
      EXPECT_EQ(conc[i].cache_hits, serial[i].cache_hits) << "query " << i;
      EXPECT_EQ(conc[i].pruned, serial[i].pruned) << "query " << i;
      EXPECT_EQ(conc[i].true_hits, serial[i].true_hits) << "query " << i;
      EXPECT_EQ(conc[i].remaining, serial[i].remaining) << "query " << i;
      EXPECT_EQ(conc[i].fetched, serial[i].fetched) << "query " << i;
      EXPECT_FALSE(conc[i].degraded) << "query " << i;
      ExpectSameIo(conc[i].gen_io, serial[i].gen_io);
      ExpectSameIo(conc[i].refine_io, serial[i].refine_io);
    }

    // The budget makes every method both hit and miss on this rig.
    EXPECT_GT(serial_hits, 0u);
    EXPECT_GT(serial_misses, 0u);
  }
}

TEST(ConcurrencyTest, AggregateBitExactOneVsEightWorkers) {
  ConcurrencyRig rig;
  const size_t k = 10;

  core::AggregateResult serial, conc;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 1, &serial).ok());
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, kThreads, &conc).ok());

  // Aggregation folds per-query results in query order at any thread
  // count, so every deterministic (non-CPU-time) field matches bit for bit.
  EXPECT_EQ(conc.queries, serial.queries);
  EXPECT_DOUBLE_EQ(conc.avg_candidates, serial.avg_candidates);
  EXPECT_DOUBLE_EQ(conc.avg_remaining, serial.avg_remaining);
  EXPECT_DOUBLE_EQ(conc.avg_fetched, serial.avg_fetched);
  EXPECT_DOUBLE_EQ(conc.avg_refine_pages, serial.avg_refine_pages);
  EXPECT_DOUBLE_EQ(conc.avg_gen_pages, serial.avg_gen_pages);
  EXPECT_DOUBLE_EQ(conc.avg_gen_seq_pages, serial.avg_gen_seq_pages);
  EXPECT_DOUBLE_EQ(conc.hit_ratio, serial.hit_ratio);
  EXPECT_DOUBLE_EQ(conc.prune_ratio, serial.prune_ratio);
  EXPECT_EQ(conc.degraded_queries, serial.degraded_queries);
  EXPECT_EQ(conc.read_failures, serial.read_failures);
  EXPECT_EQ(conc.deadline_cuts, serial.deadline_cuts);
  EXPECT_GT(conc.hit_ratio, 0.0);
}

TEST(ConcurrencyTest, SingleWorkerDegeneratesToSerial) {
  ConcurrencyRig rig;
  core::QueryResult serial;
  ASSERT_TRUE(rig.system->Query(rig.log.test[0], 10, &serial).ok());
  const std::vector<std::vector<Scalar>> one{rig.log.test[0]};
  // One thread, and more threads than queries: the batch runs once either
  // way.
  for (const size_t threads : {size_t{1}, kThreads}) {
    SCOPED_TRACE(threads);
    core::AggregateResult agg;
    std::vector<core::QueryResult> conc;
    ASSERT_TRUE(rig.system->Serve(one, 10, threads, &agg, &conc).ok());
    ASSERT_EQ(conc.size(), 1u);
    EXPECT_EQ(conc[0].result_ids, serial.result_ids);
    EXPECT_EQ(agg.queries, 1u);
  }
  // An empty batch is a valid batch.
  core::AggregateResult agg;
  std::vector<core::QueryResult> none;
  ASSERT_TRUE(rig.system->Serve({}, 10, kThreads, &agg, &none).ok());
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(agg.queries, 0u);
}

TEST(ConcurrencyTest, RejectsZeroThreads) {
  ConcurrencyRig rig;
  core::AggregateResult agg;
  EXPECT_TRUE(rig.system->Serve(rig.log.test, 10, 0, &agg).IsInvalidArgument());
  EXPECT_TRUE(rig.system->Serve(rig.log.test, 10, 2, &agg).ok());
}

TEST(ConcurrencyTest, TraceEventsMatchSerialAndTheFunnel) {
  // Events live in each query's own result, so a threaded batch traces too:
  // on a static cache every query's event stream is the serial one.
  ConcurrencyRig rig(/*trace_events=*/true);
  const size_t k = 10;
  core::AggregateResult agg;
  std::vector<core::QueryResult> serial, conc;
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 1, &agg, &serial).ok());
  ASSERT_TRUE(rig.system->Serve(rig.log.test, k, 4, &agg, &conc).ok());
  ASSERT_EQ(conc.size(), serial.size());
  size_t hits = 0;
  for (size_t i = 0; i < conc.size(); ++i) {
    const core::QueryResult& r = conc[i];
    EXPECT_FALSE(r.events.empty()) << "query " << i;
    EXPECT_EQ(r.events, serial[i].events) << "query " << i;
    std::map<obs::TraceEventType, uint32_t> count;
    for (const obs::TraceEvent& e : r.events) count[e.type]++;
    EXPECT_EQ(count[obs::TraceEventType::kCacheHit], r.cache_hits) << i;
    EXPECT_EQ(count[obs::TraceEventType::kEarlyPrune], r.pruned) << i;
    EXPECT_EQ(count[obs::TraceEventType::kTrueResult], r.true_hits) << i;
    EXPECT_EQ(count[obs::TraceEventType::kFetch], r.fetched) << i;
    hits += r.cache_hits;
  }
  EXPECT_GT(hits, 0u);
}

TEST(ConcurrencyTest, QueriesStayExactWhileMaintenanceRebuildsCache) {
  ConcurrencyRig rig;
  const size_t k = 10;

  // Ground truth (caches never change results, whatever generation serves).
  std::vector<std::vector<PointId>> truth;
  core::QueryResult r;
  for (const auto& q : rig.log.test) {
    ASSERT_TRUE(rig.system->Query(q, k, &r).ok());
    truth.push_back(r.result_ids);
  }

  // A maintenance thread republishes the cache generation in a tight loop
  // while 8 threads hammer queries. Epoch publication means every query
  // reads one coherent generation; the histogram a probe decodes against
  // can never be mutated mid-flight.
  std::atomic<bool> stop{false};
  std::atomic<int> rebuilds{0};
  std::thread maintenance([&] {
    while (!stop.load()) {
      ASSERT_TRUE(rig.system->ReconfigureCache().ok());
      rebuilds.fetch_add(1);
    }
  });

  for (int round = 0; round < 3; ++round) {
    core::AggregateResult agg;
    std::vector<core::QueryResult> conc;
    ASSERT_TRUE(
        rig.system->Serve(rig.log.test, k, kThreads, &agg, &conc).ok());
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_EQ(conc[i].result_ids, truth[i])
          << "round " << round << " query " << i;
    }
  }
  stop.store(true);
  maintenance.join();
  EXPECT_GT(rebuilds.load(), 0);
}

TEST(ConcurrencyTest, CacheSizeReadableWhileAdmitting) {
  // Regression for a size() data race: it used to read the id->slot map's
  // size without the cache mutex, racing concurrent Admit/evict rehashes
  // (TSan-visible). size() now reads an atomic mirror refreshed under the
  // lock, so a poller can run against writers and always sees a value
  // within capacity. The writers start only once the poller has polled, so
  // the two always overlap, however the threads are scheduled.
  constexpr size_t kDim = 16;
  constexpr size_t kCapacityItems = 64;
  cache::ExactCache cache(kDim, kCapacityItems * kDim * sizeof(Scalar),
                          /*lru=*/true);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> polls{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_LE(cache.size(), kCapacityItems);
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&cache, &polls, t] {
      std::vector<Scalar> point(kDim, static_cast<Scalar>(t));
      while (polls.load(std::memory_order_relaxed) == 0) {
        std::this_thread::yield();
      }
      for (uint32_t i = 0; i < 2000; ++i) {
        cache.Admit(static_cast<PointId>(t * 10000 + i), point);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  poller.join();
  EXPECT_GT(polls.load(), 0u);
  EXPECT_GT(cache.size(), 0u);
  EXPECT_LE(cache.size(), kCapacityItems);
}

// ---- The batch entry's contract (System::Serve) ---------------------------

TEST(ServeTest, FailingQueriesDoNotStopTheBatch) {
  ConcurrencyRig rig;
  obs::MetricsRegistry registry;
  rig.system->EnableMetrics(&registry);
  // Two queries of the wrong dimension fail in the index; the other 78
  // still run and reach the sink, and Serve reports the first error.
  std::vector<std::vector<Scalar>> queries = rig.log.test;
  ASSERT_EQ(queries.size(), 80u);
  queries[3].push_back(0);
  queries[7].pop_back();
  core::AggregateResult agg;
  const Status st = rig.system->Serve(queries, 10, /*n_threads=*/4, &agg);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(registry.GetCounter("engine.queries")->value(), 78u);
}

// Pins what a one-thread batch does to an LRU cache: each query's answer,
// funnel and I/O in query order, the batch's hit and miss totals, the
// cache's admit/evict totals, and the ids resident afterwards. Admission order decides evictions, so
// any change to the order in which a serial batch touches the cache moves
// one of the two hashes. Never re-pin them to make a change pass: a new
// value means serial batches now leave a different cache behind.
struct LruBatchPin {
  uint64_t funnel = 0;
  uint64_t resident = 0;
  uint64_t evictions = 0;
};

LruBatchPin RunSerialLruBatch(core::CacheMethod method) {
  ConcurrencyRig rig;
  LruBatchPin pin;
  EXPECT_TRUE(rig.system
                  ->ConfigureCache(method, /*cache_bytes=*/8 << 10,
                                   /*tau=*/4, /*lru=*/true)
                  .ok());
  core::AggregateResult agg;
  std::vector<core::QueryResult> per_query;
  EXPECT_TRUE(rig.system->Serve(rig.log.test, 10, 1, &agg, &per_query).ok());
  EXPECT_EQ(per_query.size(), rig.log.test.size());

  Fnv1a funnel;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const core::QueryResult& r : per_query) {
    hits += r.cache_hits;
    misses += r.candidates - r.cache_hits;
    funnel.Add(r.result_ids.size());
    for (PointId id : r.result_ids) funnel.Add(id);
    funnel.Add(r.candidates);
    funnel.Add(r.cache_hits);
    funnel.Add(r.pruned);
    funnel.Add(r.true_hits);
    funnel.Add(r.remaining);
    funnel.Add(r.fetched);
    funnel.Add(r.refine_io.point_reads);
    funnel.Add(r.refine_io.page_reads);
  }
  cache::KnnCache* cache = rig.system->cache();
  const cache::KnnCache::CacheActivity a = cache->activity();
  // A serial batch with no eager fetch and no deadline probes every
  // candidate exactly once, so these are the probe hits and misses.
  funnel.Add(hits);
  funnel.Add(misses);
  funnel.Add(a.admits);
  funnel.Add(a.evictions);
  EXPECT_GT(a.evictions, 0u);  // the batch overflowed the cache

  // A probe refreshes recency but never admits, so probing every id after
  // the funnel hash reads the resident set without changing it.
  Fnv1a resident;
  for (size_t id = 0; id < rig.data.size(); ++id) {
    double lb, ub;
    if (cache->Probe(rig.log.test[0], static_cast<PointId>(id), &lb, &ub)) {
      resident.Add(id);
    }
  }
  pin.funnel = funnel.value();
  pin.resident = resident.value();
  pin.evictions = a.evictions;
  return pin;
}

TEST(ServeTest, DefaultOptionsKeepTheGoldenSerialLruBatch) {
  const LruBatchPin pin = RunSerialLruBatch(core::CacheMethod::kHcO);
  EXPECT_EQ(pin.funnel, 0xb8f4045d1849249aull) << std::hex << pin.funnel;
  EXPECT_EQ(pin.resident, 0x5968e524f60b2077ull) << std::hex << pin.resident;
}

TEST(ServeTest, DefaultOptionsKeepTheGoldenSerialLruBatchExact) {
  const LruBatchPin pin = RunSerialLruBatch(core::CacheMethod::kExact);
  EXPECT_EQ(pin.funnel, 0xe6acd4590fd0c26aull) << std::hex << pin.funnel;
  EXPECT_EQ(pin.resident, 0x9a20899911f56a84ull) << std::hex << pin.resident;
  EXPECT_EQ(pin.evictions, 11679u);
}

TEST(ServeTest, DefaultOptionsKeepTheGoldenSerialLruBatchIHcO) {
  const LruBatchPin pin = RunSerialLruBatch(core::CacheMethod::kIHcO);
  EXPECT_EQ(pin.funnel, 0x971bfa18bf725d96ull) << std::hex << pin.funnel;
  EXPECT_EQ(pin.resident, 0xc9cb08d61a349b28ull) << std::hex << pin.resident;
  EXPECT_EQ(pin.evictions, 6993u);
}

// Pins what a static (HFF) fill leaves in each cache: its occupancy and
// geometry, the resident ids and the exact bounds a probe returns for each,
// for every static method in EightThreadsBitExactVsSerialReference's order.
// Same rule as the LRU pins: never re-pin to make a change pass.
TEST(ServeTest, StaticFillKeepsTheGoldenResidentBounds) {
  ConcurrencyRig rig;
  Fnv1a all;
  for (const core::CacheMethod method :
       {core::CacheMethod::kExact, core::CacheMethod::kHcW,
        core::CacheMethod::kHcV, core::CacheMethod::kHcM,
        core::CacheMethod::kHcD, core::CacheMethod::kHcO,
        core::CacheMethod::kIHcW, core::CacheMethod::kIHcD,
        core::CacheMethod::kIHcO, core::CacheMethod::kMHcR,
        core::CacheMethod::kCVa}) {
    SCOPED_TRACE(core::CacheMethodName(method));
    ASSERT_TRUE(
        rig.system->ConfigureCache(method, /*cache_bytes=*/6 << 10, /*tau=*/4)
            .ok());
    cache::KnnCache* cache = rig.system->cache();
    EXPECT_EQ(cache->size(), cache->capacity_items());  // the fill is full
    Fnv1a h;
    h.Add(static_cast<uint64_t>(method));
    h.Add(cache->size());
    h.Add(cache->capacity_items());
    h.Add(cache->item_bytes());
    for (size_t id = 0; id < rig.data.size(); ++id) {
      double lb, ub;
      if (cache->Probe(rig.log.test[0], static_cast<PointId>(id), &lb, &ub)) {
        h.Add(id);
        h.Add(std::bit_cast<uint64_t>(lb));
        h.Add(std::bit_cast<uint64_t>(ub));
      }
    }
    all.Add(h.value());
  }
  EXPECT_EQ(all.value(), 0xa4c9e6bfb63bde28ull) << std::hex << all.value();
}

}  // namespace
}  // namespace eeb
