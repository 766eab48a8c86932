// perfbench: measured wall-clock benchmark of the EEB query path.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tmp-root DIR] [--spans-out PATH]
//
// One process runs one workload. It generates the dataset and the query log
// from --seed, builds the system through the public API (System::Create and
// ConfigureCache, repeated to time set-up), warms up, and then measures
// closed-loop clients calling System::Query for --seconds with production
// telemetry attached (metrics registry, live window, flight recorder). Every
// answer is checked outside the timed window against the NO-CACHE engine's
// answer to the same query, and recall against brute-force exact kNN.
//
// --trace 1 instead runs an untraced pass and then a traced pass over the
// same clients and queries, each for half of --seconds and at most 5 s. The traced pass runs a KnnEngine assembled
// from the system's own index, cache and point file, with the index and the
// cache wrapped in span-recording decorators and storage timed through the
// Env the system was created on (layer_trace.h). It prints per-layer metrics
// instead of end-to-end ones.
//
// Output: one line per metric (name, value, unit) and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Latencies are wall time only; the paper's HDD model appears only as the
// page count refine_pages_per_query and is never added to a latency. Exit
// status: 0 when every check passed, 1 when one failed (the JSON line is
// still printed), 2 on bad arguments or a failed set-up (no JSON line).

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/knn_engine.h"
#include "core/quality.h"
#include "core/system.h"
#include "layer_trace.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/window.h"
#include "workload/generator.h"
#include "workload/registry.h"

namespace eeb::perfbench {
namespace {

constexpr size_t kK = 10;
// Historical log the workload analysis sees (HFF order, HC-O histogram).
constexpr size_t kLogQueries = 1000;
// Generated test stream; clients walk it in order and wrap around.
constexpr size_t kStreamQueries = 16384;
// Set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
// Warm-up lasts at least this long, and on until an LRU cache is full.
constexpr double kWarmupMinSeconds = 0.5;
constexpr double kWarmupMaxSeconds = 10.0;
// The timed window is cut into up to this many equal consecutive segments,
// each holding at least kMinSegmentSamples queries. qps and the latency
// percentiles are computed exactly within each segment and reported as the
// median over segments, so a burst of interference from other tenants of
// the host moves one segment instead of the run's figure.
constexpr size_t kMaxSegments = 5;
constexpr size_t kMinSegmentSamples = 1000;
// Spans reserved per client for a traced pass (24 bytes each), and the
// longest traced pass, which keeps a pass's spans within that reserve.
constexpr size_t kSpanCapacity = size_t{1} << 20;
constexpr double kMaxTracedSeconds = 5.0;
// Every segment's p99 needs at least this many samples ranked above it.
constexpr size_t kMinBeyondP99 = 10;
// Share of the point file that may stay resident right after an eviction.
constexpr double kMaxResidentAfterEvict = 0.01;
// Cold storage reads must be at least this much slower than warm ones.
constexpr double kMinColdReadRatio = 5.0;
// Per-layer self times must sum to the traced query time within this share.
constexpr double kReconcileTolerance = 0.05;

struct WorkloadSpec {
  const char* name;
  const char* why;
  workload::DatasetSpec (*dataset)();
  size_t distinct_queries;  // query pool size
  double zipf_s;            // popularity skew over the pool; 0 is uniform
  double cache_frac;        // HC-O cache budget, share of the point file
  bool lru;                 // LRU admission instead of the static HFF fill
  size_t clients;           // closed-loop client threads
  bool cold;  // evict the point file from the OS page cache before queries
};

const WorkloadSpec kWorkloads[] = {
    {"sogou_hot",
     "The paper's headline regime: the Zipf hot set fits the HC-O code "
     "cache, so C2LSH generation and code probes dominate a query; index "
     "and reduction changes show here.",
     workload::SogouSimSpec, 400, 0.8, 0.10, false, 4, false},
    {"nusw_cold",
     "The paper's own setting (disk, OS cache off): the working set is far "
     "larger than the code cache and device reads dominate; storage and "
     "refinement changes show here, index changes barely do.",
     workload::NuswSimSpec, 4000, 0.0, 0.02, true, 1, true},
    {"nusw_churn",
     "The same data, cache and queries with 4 clients and a warm page "
     "cache: every fetch admits into the LRU under the cache mutex and "
     "refinement CPU dominates; LRU cost and client serialization show "
     "here.",
     workload::NuswSimSpec, 4000, 0.0, 0.02, true, 4, false},
};

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmp_root = ".bench_build/tmp";
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') args->seconds = 0.0;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (flag == "--tmp-root") {
      args->tmp_root = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && have_seed &&
         args->seconds > 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact order statistic: the nearest-rank `percent` percentile of `sorted`,
// and the number of samples ranked above it.
struct OrderStat {
  double value = 0.0;
  size_t beyond = 0;
};

OrderStat Percentile(const std::vector<double>& sorted, size_t percent) {
  if (sorted.empty()) return {};
  const size_t n = sorted.size();
  const size_t rank = std::max<size_t>(1, (percent * n + 99) / 100);
  return {sorted[rank - 1], n - rank};
}

double PeakRssMb() {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Per-process scratch directory under `root`, removed with its contents on
// destruction, so benchmark processes running side by side share no files.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& root) {
    std::error_code ec;
    std::filesystem::create_directories(root, ec);
    std::string path = root + "/perfbench-XXXXXX";
    if (::mkdtemp(path.data()) != nullptr) path_ = path;
  }
  ~ScopedTempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }  // empty on failure

 private:
  std::string path_;
};

// The files the system wrote under a directory. Building this flushes them
// (fdatasync), so that neither kernel writeback of set-up's writes runs
// inside a timed window nor dirty pages survive an eviction; Evict and
// Prefetch then move them out of and into the OS page cache.
class SystemFiles {
 public:
  explicit SystemFiles(const std::string& dir) {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file()) continue;
      const int fd = ::open(entry.path().c_str(), O_RDONLY);
      if (fd < 0) {
        ok_ = false;
        continue;
      }
      fds_.push_back(fd);
      if (::fdatasync(fd) != 0) ok_ = false;
    }
    if (ec || fds_.empty()) ok_ = false;
  }
  ~SystemFiles() {
    for (int fd : fds_) ::close(fd);
  }
  SystemFiles(const SystemFiles&) = delete;
  SystemFiles& operator=(const SystemFiles&) = delete;

  bool ok() const { return ok_; }

  void Evict() const {
    for (int fd : fds_) ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  }

  void Prefetch() const {
    for (int fd : fds_) ::posix_fadvise(fd, 0, 0, POSIX_FADV_WILLNEED);
  }

  // Share of the files' pages resident in the page cache (mincore), or -1
  // when it cannot be measured.
  double ResidentFraction() const {
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    size_t pages = 0;
    size_t resident = 0;
    for (int fd : fds_) {
      struct stat st {};
      if (::fstat(fd, &st) != 0) return -1.0;
      const size_t bytes = static_cast<size_t>(st.st_size);
      if (bytes == 0) continue;
      void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
      if (map == MAP_FAILED) return -1.0;
      std::vector<unsigned char> vec((bytes + page - 1) / page);
      const bool measured = ::mincore(map, bytes, vec.data()) == 0;
      ::munmap(map, bytes);
      if (!measured) return -1.0;
      pages += vec.size();
      for (unsigned char v : vec) resident += v & 1u;
    }
    return pages == 0 ? -1.0 : static_cast<double>(resident) / pages;
  }

 private:
  std::vector<int> fds_;
  bool ok_ = true;
};

// The generated test stream, deduplicated: clients walk `stream`, whose
// entries index `distinct`.
struct QuerySet {
  std::vector<std::vector<Scalar>> distinct;
  std::vector<uint32_t> stream;
};

QuerySet Dedupe(const std::vector<std::vector<Scalar>>& test) {
  QuerySet qs;
  std::map<std::vector<Scalar>, uint32_t> index;
  for (const auto& q : test) {
    const auto [it, fresh] =
        index.emplace(q, static_cast<uint32_t>(qs.distinct.size()));
    if (fresh) qs.distinct.push_back(q);
    qs.stream.push_back(it->second);
  }
  return qs;
}

// What the checks and metrics need from one query completed inside a
// measured window. Kept small: a run holds tens of thousands, and their
// storage must not move rss_mb.
struct Sample {
  uint32_t query = 0;       // index into QuerySet::distinct
  double start_s = 0.0;     // start, in seconds after the window opened
  double latency_ms = 0.0;  // client wall time around the query call
  const char* failure = nullptr;  // why the call itself failed, if it did
  std::vector<PointId> ids;       // the answer
  uint32_t candidates = 0;
  uint32_t cache_hits = 0;
  uint32_t reduced = 0;  // pruned + true results
  uint32_t remaining = 0;
  uint32_t fetched = 0;
  uint32_t refine_pages = 0;
  uint32_t point_reads = 0;

  void Record(const Status& status, core::QueryResult* r) {
    if (!status.ok()) {
      failure = "non-OK status";
    } else if (r->degraded) {
      failure = "degraded result";
    } else if (r->deadline_hit) {
      failure = "deadline-cut result";
    }
    ids = std::move(r->result_ids);
    candidates = static_cast<uint32_t>(r->candidates);
    cache_hits = static_cast<uint32_t>(r->cache_hits);
    reduced = static_cast<uint32_t>(r->pruned + r->true_hits);
    remaining = static_cast<uint32_t>(r->remaining);
    fetched = static_cast<uint32_t>(r->fetched);
    refine_pages = static_cast<uint32_t>(r->refine_io.page_reads);
    point_reads = static_cast<uint32_t>(r->refine_io.point_reads);
  }
};

using QueryFn =
    std::function<Status(std::span<const Scalar>, core::QueryResult*)>;

struct PassConfig {
  size_t clients = 1;
  double seconds = 0.0;
  QueryFn query;
  // Cold workloads: evict before every query, outside the timed call.
  const SystemFiles* evictor = nullptr;
  // LRU cache whose filling ends the warm-up; nullptr for a static cache.
  const cache::KnnCache* lru = nullptr;
  bool traced = false;
};

struct PassResult {
  std::vector<Sample> samples;  // started and finished inside the window
  std::vector<std::unique_ptr<SpanSink>> sinks;  // one per client if traced
  double window_seconds = 0.0;
  double warmup_seconds = 0.0;
  bool lru_full = true;
  uint64_t executed = 0;  // every query of the pass, warm-up included
  uint64_t untraced = 0;  // window queries left out by a full span buffer
};

// Runs closed-loop clients (each sends its next query when the previous one
// returns) through a warm-up and then a measured window of cfg.seconds.
PassResult RunPass(const PassConfig& cfg, const QuerySet& qs) {
  PassResult out;
  if (cfg.traced) {
    for (size_t c = 0; c < cfg.clients; ++c) {
      out.sinks.push_back(std::make_unique<SpanSink>(kSpanCapacity));
    }
  }
  std::vector<std::vector<Sample>> kept(cfg.clients);
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> untraced{0};
  // Window bounds on the NowNs() clock; window_begin is 0 during warm-up.
  std::atomic<int64_t> window_begin{0};
  std::atomic<int64_t> window_end{0};

  auto client = [&](std::stop_token stop, size_t c) {
    SpanSink* sink = cfg.traced ? out.sinks[c].get() : nullptr;
    SpanSink::Install(sink);
    while (!stop.stop_requested()) {
      const uint64_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      Sample s;
      s.query = qs.stream[i % qs.stream.size()];
      if (cfg.evictor != nullptr) cfg.evictor->Evict();
      const int64_t begin = window_begin.load(std::memory_order_acquire);
      const int64_t start = NowNs();
      const bool in_window = begin != 0 && start >= begin;
      bool traced = false;
      if (sink != nullptr && in_window) {
        traced = sink->Begin(static_cast<uint32_t>(i));
        if (!traced) untraced.fetch_add(1, std::memory_order_relaxed);
      }
      core::QueryResult result;
      const Status status = cfg.query(qs.distinct[s.query], &result);
      const int64_t end = NowNs();
      executed.fetch_add(1, std::memory_order_relaxed);
      const bool keep = in_window &&
                        end <= window_end.load(std::memory_order_relaxed) &&
                        (sink == nullptr || traced);
      if (traced) sink->End(keep, start, end);
      if (keep) {
        s.start_s = static_cast<double>(start - begin) * 1e-9;
        s.latency_ms = static_cast<double>(end - start) * 1e-6;
        s.Record(status, &result);
        kept[c].push_back(std::move(s));
      }
    }
    SpanSink::Install(nullptr);
  };

  {
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < cfg.clients; ++c) threads.emplace_back(client, c);
    Timer warmup;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      out.lru_full = cfg.lru == nullptr ||
                     cfg.lru->size() >= cfg.lru->capacity_items();
      const double elapsed = warmup.ElapsedSeconds();
      if ((out.lru_full && elapsed >= kWarmupMinSeconds) ||
          elapsed >= kWarmupMaxSeconds) {
        break;
      }
    }
    out.warmup_seconds = warmup.ElapsedSeconds();
    const auto length =
        std::chrono::nanoseconds(static_cast<int64_t>(cfg.seconds * 1e9));
    const int64_t begin = NowNs();
    window_end.store(begin + length.count(), std::memory_order_relaxed);
    window_begin.store(begin, std::memory_order_release);
    std::this_thread::sleep_for(length);
    for (std::jthread& t : threads) t.request_stop();
  }  // joins every client

  out.window_seconds = cfg.seconds;
  out.executed = executed.load();
  out.untraced = untraced.load();
  size_t total = 0;
  for (const std::vector<Sample>& samples : kept) total += samples.size();
  out.samples.reserve(total);
  for (std::vector<Sample>& samples : kept) {
    for (Sample& s : samples) out.samples.push_back(std::move(s));
  }
  return out;
}

// The references one distinct query's answers are checked against.
struct Reference {
  bool ok = false;           // the NO-CACHE query succeeded undegraded
  std::vector<PointId> ids;  // its answer (ids ascending)
  double recall = 0.0;       // that answer against brute-force exact kNN
};

// Computes, for every distinct query some sample used, the NO-CACHE answer
// (a KnnEngine with a null cache over the system's own index and point
// file) and its recall@k against a brute-force scan (core::MeasureQuality).
std::vector<Reference> ComputeReferences(
    core::System& sys, const QuerySet& qs,
    std::initializer_list<const PassResult*> passes, size_t threads) {
  std::vector<char> needed(qs.distinct.size(), 0);
  for (const PassResult* pass : passes) {
    for (const Sample& s : pass->samples) needed[s.query] = 1;
  }
  std::vector<Reference> refs(qs.distinct.size());
  core::KnnEngine nocache(&sys.lsh(), &sys.point_file(), nullptr,
                          sys.options().engine);
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next.fetch_add(1); i < refs.size(); i = next.fetch_add(1)) {
      if (!needed[i]) continue;
      core::QueryResult r;
      const Status st = nocache.Query(qs.distinct[i], kK, &r);
      Reference& ref = refs[i];
      ref.ok = st.ok() && !r.degraded && !r.deadline_hit;
      if (!ref.ok) continue;
      ref.recall =
          core::MeasureQuality(sys.data(), qs.distinct[i], r.result_ids, kK)
              .recall;
      ref.ids = std::move(r.result_ids);
    }
  };
  {
    std::vector<std::jthread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  return refs;
}

// Why a sample fails the answer check, or nullptr when it passes.
const char* AnswerProblem(const Sample& s, const std::vector<Reference>& refs) {
  if (s.failure != nullptr) return s.failure;
  const Reference& ref = refs[s.query];
  if (!ref.ok) return "NO-CACHE reference query failed";
  if (s.ids != ref.ids) return "answer differs from NO-CACHE";
  return nullptr;
}

// Outcome of the run's checks: answer checks per query plus run-level
// conditions (eviction, reconciliation, sample counts).
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void CheckAnswers(const char* pass, const std::vector<Sample>& samples,
                    const std::vector<Reference>& refs) {
    uint64_t bad = 0;
    std::string first;
    for (const Sample& s : samples) {
      const char* why = AnswerProblem(s, refs);
      if (why == nullptr) continue;
      if (bad++ == 0) {
        first = std::string(why) + " (query " + std::to_string(s.query) + ")";
      }
    }
    attempted += samples.size();
    failed += bad;
    if (bad > 0) {
      problems.push_back(std::string(pass) + " pass: " + std::to_string(bad) +
                         " of " + std::to_string(samples.size()) +
                         " queries failed; first: " + first);
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, not part of the JSON
};

// Shortest decimal form that reads back as the same double.
std::string Number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::vector<Metric> EndToEndMetrics(const PassResult& pass,
                                    const std::vector<Reference>& refs,
                                    const std::vector<double>& setup_s,
                                    double rss_mb, Verdict* verdict) {
  const size_t segments = std::clamp<size_t>(
      pass.samples.size() / kMinSegmentSamples, 1, kMaxSegments);
  const double segment_seconds = pass.window_seconds / segments;
  std::vector<std::vector<double>> latency(segments);
  // Per distinct query: how often the window answered it, and its pages.
  std::vector<uint32_t> answered(refs.size(), 0);
  std::vector<double> pages(refs.size(), 0.0);
  double hits = 0.0;
  double candidates = 0.0;
  for (const Sample& s : pass.samples) {
    const auto segment = static_cast<size_t>(s.start_s / segment_seconds);
    latency[std::min(segment, segments - 1)].push_back(s.latency_ms);
    answered[s.query]++;
    pages[s.query] += s.refine_pages;
    hits += s.cache_hits;
    candidates += s.candidates;
  }
  std::vector<double> qps, p50, p99;
  size_t fewest = SIZE_MAX;
  size_t fewest_beyond = SIZE_MAX;
  for (std::vector<double>& segment : latency) {
    std::sort(segment.begin(), segment.end());
    qps.push_back(Ratio(static_cast<double>(segment.size()), segment_seconds));
    p50.push_back(Percentile(segment, 50).value);
    const OrderStat tail = Percentile(segment, 99);
    p99.push_back(tail.value);
    fewest = std::min(fewest, segment.size());
    fewest_beyond = std::min(fewest_beyond, tail.beyond);
  }
  if (fewest_beyond < kMinBeyondP99) {
    verdict->problems.push_back(
        "a segment has only " + std::to_string(fewest_beyond) +
        " samples beyond p99; run longer for a meaningful p99");
  }
  // Recall and refinement pages are properties of each distinct query, so
  // every query the window answered counts once, however often the traffic
  // repeated it; a Zipf mix would otherwise hang them on a few queries.
  double recall = 0.0;
  double query_pages = 0.0;
  double distinct = 0.0;
  for (size_t q = 0; q < refs.size(); ++q) {
    if (answered[q] == 0) continue;
    recall += refs[q].recall;
    query_pages += pages[q] / answered[q];
    distinct += 1.0;
  }
  std::printf("  window: %.1f s after %.1f s warm-up; %zu queries in %zu "
              "segments of %.1f s; cache hit ratio %.3f\n",
              pass.window_seconds, pass.warmup_seconds, pass.samples.size(),
              segments, segment_seconds, Ratio(hits, candidates));
  const std::string median_of =
      "(median of " + std::to_string(segments) + " segments; ";
  const std::string counts = median_of +
                             "exact order statistics over >= " +
                             std::to_string(fewest) + " samples, >= ";
  return {
      {"qps", Median(qps), "1/s",
       median_of + "completed queries per wall-clock second)"},
      {"latency_p50_ms", Median(p50), "ms",
       counts + std::to_string(fewest / 2) + " beyond)"},
      {"latency_p99_ms", Median(p99), "ms",
       counts + std::to_string(fewest_beyond) + " beyond)"},
      {"recall_at_10", Ratio(recall, distinct), "ratio",
       "(overlap with brute-force exact top-10, over " +
           std::to_string(static_cast<size_t>(distinct)) +
           " distinct queries)"},
      {"refine_pages_per_query", Ratio(query_pages, distinct), "pages",
       "(distinct point-file pages read, per distinct query; the HDD model "
       "is not applied)"},
      {"setup_s", Median(setup_s), "s",
       "(median of " + std::to_string(setup_s.size()) +
           " x System::Create + ConfigureCache)"},
      {"rss_mb", rss_mb, "MB", "(peak resident set after the timed run)"},
  };
}

struct IndexCounters {
  double queries = 0.0;
  double bucket_probes = 0.0;
  double entries = 0.0;
  double candidates = 0.0;
};

IndexCounters ReadIndexCounters(obs::MetricsRegistry* registry) {
  auto value = [registry](const char* name) {
    return static_cast<double>(registry->GetCounter(name)->value());
  };
  return {value("lsh.queries"), value("lsh.bucket_probes"),
          value("lsh.entries_scanned"), value("lsh.candidates")};
}

// The --trace 1 run: an untraced pass for reference, then the traced pass,
// and per-layer metrics from its spans.
std::vector<Metric> LayerMetrics(const Args& args, const WorkloadSpec& w,
                                 PassConfig pass, core::System* sys,
                                 obs::MetricsRegistry* registry,
                                 const QuerySet& qs, size_t threads,
                                 const std::vector<double>& create_s,
                                 const std::vector<double>& configure_s,
                                 const SystemFiles* evictor,
                                 Verdict* verdict) {
  cache::KnnCache* cache = sys->cache();
  pass.seconds = std::min(args.seconds / 2.0, kMaxTracedSeconds);
  const PassResult plain = RunPass(pass, qs);

  TracedIndex traced_index(&sys->lsh());
  TracedCache traced_cache(cache);
  core::KnnEngine engine(&traced_index, &sys->point_file(), &traced_cache,
                         sys->options().engine);
  pass.traced = true;
  pass.query = [&engine](std::span<const Scalar> q, core::QueryResult* r) {
    return engine.Query(q, kK, r);
  };
  const IndexCounters index0 = ReadIndexCounters(registry);
  const cache::KnnCache::CacheActivity activity0 = cache->activity();
  const PassResult traced = RunPass(pass, qs);
  const IndexCounters index1 = ReadIndexCounters(registry);
  const cache::KnnCache::CacheActivity activity1 = cache->activity();

  // Cold workloads: a short traced pass on a warm page cache gives the read
  // time the cold one must clearly exceed.
  PassResult warm;
  if (evictor != nullptr) {
    evictor->Prefetch();
    PassConfig warm_pass = pass;
    warm_pass.clients = 1;
    warm_pass.evictor = nullptr;
    warm_pass.seconds = std::min(1.0, pass.seconds);
    warm = RunPass(warm_pass, qs);
  }

  const std::vector<Reference> refs =
      ComputeReferences(*sys, qs, {&plain, &traced, &warm}, threads);
  // Each pass is checked against the same NO-CACHE answers, so the traced
  // answers also equal the untraced ones query by query.
  verdict->CheckAnswers("untraced", plain.samples, refs);
  verdict->CheckAnswers("traced", traced.samples, refs);
  verdict->CheckAnswers("warm reference", warm.samples, refs);
  if (traced.untraced > 0) {
    std::printf("  note: %llu window queries ran untraced (span buffer "
                "full) and are not counted\n",
                static_cast<unsigned long long>(traced.untraced));
  }

  constexpr auto kQuery = static_cast<size_t>(Layer::kQuery);
  constexpr auto kIndex = static_cast<size_t>(Layer::kIndex);
  constexpr auto kProbe = static_cast<size_t>(Layer::kCacheProbe);
  constexpr auto kAdmit = static_cast<size_t>(Layer::kCacheAdmit);
  constexpr auto kRead = static_cast<size_t>(Layer::kStorageRead);
  LayerSummary ls = Summarize(traced.sinks);
  const double nq = static_cast<double>(ls.calls[kQuery]);
  double hits = 0.0, reduced = 0.0, candidates = 0.0, remaining = 0.0;
  double fetched = 0.0, point_reads = 0.0;
  for (const Sample& s : traced.samples) {
    hits += s.cache_hits;
    reduced += s.reduced;
    candidates += s.candidates;
    remaining += s.remaining;
    fetched += s.fetched;
    point_reads += s.point_reads;
  }
  double untraced_ms = 0.0;
  for (const Sample& s : plain.samples) untraced_ms += s.latency_ms;
  untraced_ms = Ratio(untraced_ms, static_cast<double>(plain.samples.size()));

  const double query_us = Ratio(ls.total_ns[kQuery], nq) / 1e3;
  const double index_us = Ratio(ls.total_ns[kIndex], nq) / 1e3;
  const double cache_us =
      Ratio(ls.total_ns[kProbe] + ls.total_ns[kAdmit], nq) / 1e3;
  const double storage_us = Ratio(ls.total_ns[kRead], nq) / 1e3;
  const double other_us = Ratio(ls.query_self_ns, nq) / 1e3;
  const double self_sum = index_us + cache_us + storage_us + other_us;
  const double mismatch = Ratio(std::fabs(self_sum - query_us), query_us);
  std::printf("  traced: %zu queries in %.1f s; self time per query: index "
              "%.1f + cache %.1f + storage %.1f + core %.1f = %.1f us vs "
              "query %.1f us (%.2f%% apart)\n",
              traced.samples.size(), traced.window_seconds, index_us,
              cache_us, storage_us, other_us, self_sum, query_us,
              mismatch * 100.0);
  if (nq == 0.0 || mismatch > kReconcileTolerance) {
    verdict->problems.push_back(
        "per-layer self times do not reconcile with the traced query time");
  }
  std::printf("  core.tracing_overhead = traced KnnEngine::Query mean / "
              "untraced System::Query mean (%.3f ms); the gap also holds the "
              "System telemetry (metrics, window, recorder) the traced path "
              "skips\n",
              untraced_ms);

  std::sort(ls.read_ns.begin(), ls.read_ns.end());
  const double read_us = Ratio(ls.total_ns[kRead], ls.calls[kRead]) / 1e3;
  if (evictor != nullptr) {
    const LayerSummary ws = Summarize(warm.sinks);
    const double warm_read_us =
        Ratio(ws.total_ns[kRead], ws.calls[kRead]) / 1e3;
    const double ratio = Ratio(read_us, warm_read_us);
    std::printf("  cold check: storage.read_us %.2f cold vs %.2f on a warm "
                "page cache (%.1fx, at least %.0fx required)\n",
                read_us, warm_read_us, ratio, kMinColdReadRatio);
    if (ratio < kMinColdReadRatio) {
      verdict->problems.push_back(std::string(w.name) +
                                  " is not cold: page-cache eviction failed");
    }
  }

  if (!args.spans_out.empty()) {
    const Status st = WriteSpansJsonl(args.spans_out, traced.sinks);
    if (!st.ok()) verdict->problems.push_back("spans: " + st.ToString());
  }

  const double executed = static_cast<double>(traced.executed);
  const double index_queries = index1.queries - index0.queries;
  const double entries = index1.entries - index0.entries;
  const double index_candidates = index1.candidates - index0.candidates;
  return {
      {"index.candidates_us", Ratio(ls.total_ns[kIndex], ls.calls[kIndex]) / 1e3,
       "us", "(per CandidateIndex::Candidates call)"},
      {"index.entries_scanned_per_query", Ratio(entries, index_queries),
       "count", "(lsh.entries_scanned)"},
      {"index.bucket_probes_per_query",
       Ratio(index1.bucket_probes - index0.bucket_probes, index_queries),
       "count", "(lsh.bucket_probes)"},
      {"index.candidates_per_query", Ratio(index_candidates, index_queries),
       "count", "(lsh.candidates)"},
      {"index.entries_per_candidate", Ratio(entries, index_candidates),
       "ratio", "(entries scanned per candidate emitted)"},
      {"cache.probe_ns", Ratio(ls.total_ns[kProbe], ls.calls[kProbe]), "ns",
       "(per KnnCache::Probe call)"},
      {"cache.probes_per_query", Ratio(ls.calls[kProbe], nq), "count", ""},
      {"cache.hit_ratio", Ratio(hits, ls.calls[kProbe]), "ratio",
       "(hits / probes)"},
      {"cache.reduced_frac", Ratio(reduced, candidates), "ratio",
       "((pruned + true results) / candidates)"},
      {"cache.admit_ns", Ratio(ls.total_ns[kAdmit], ls.calls[kAdmit]), "ns",
       "(per KnnCache::Admit call)"},
      {"cache.admits_per_query",
       Ratio(static_cast<double>(activity1.admits - activity0.admits),
             executed),
       "count", "(LRU insertions)"},
      {"cache.evictions_per_query",
       Ratio(static_cast<double>(activity1.evictions - activity0.evictions),
             executed),
       "count", ""},
      {"cache.self_us", cache_us, "us", "(probe + admit time per query)"},
      {"storage.read_us", read_us, "us", "(per RandomAccessFile::Read call)"},
      {"storage.read_p99_us", Percentile(ls.read_ns, 99).value / 1e3, "us",
       "(exact order statistic)"},
      {"storage.reads_per_query", Ratio(ls.calls[kRead], nq), "count", ""},
      {"storage.bytes_per_query", Ratio(ls.bytes_read, nq), "bytes", ""},
      {"storage.point_reads_per_query", Ratio(point_reads, nq), "count", ""},
      {"storage.self_us", storage_us, "us", "(read time per query)"},
      {"core.query_us", query_us, "us", "(traced KnnEngine::Query)"},
      {"core.other_us", other_us, "us",
       "(query time outside index, cache and storage spans)"},
      {"core.remaining_per_query", Ratio(remaining, nq), "count", ""},
      {"core.fetched_per_query", Ratio(fetched, nq), "count", ""},
      {"core.create_s", Median(create_s), "s", "(median System::Create)"},
      {"core.configure_cache_s", Median(configure_s), "s",
       "(median ConfigureCache)"},
      {"core.tracing_overhead", Ratio(query_us, untraced_ms * 1e3), "ratio",
       "(traced / untraced mean query time)"},
  };
}

int Finish(const std::vector<Metric>& metrics, Verdict* verdict) {
  std::string entries;
  for (const Metric& m : metrics) {
    const bool finite = std::isfinite(m.value);
    if (!finite) verdict->problems.push_back(m.name + " is not finite");
    std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
    if (!entries.empty()) entries += ",";
    entries += "\"" + m.name + "\":{\"value\":" +
               Number(finite ? m.value : 0.0) + ",\"unit\":\"" + m.unit +
               "\"}";
  }
  std::printf("  error_rate %.6g (%llu failed of %llu attempted)\n",
              Ratio(static_cast<double>(verdict->failed),
                    static_cast<double>(verdict->attempted)),
              static_cast<unsigned long long>(verdict->failed),
              static_cast<unsigned long long>(verdict->attempted));
  for (const std::string& p : verdict->problems) {
    std::printf("FAILED: %s\n", p.c_str());
  }
  const bool correct = verdict->problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(verdict->attempted),
              static_cast<unsigned long long>(verdict->failed),
              entries.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Run(const Args& args) {
  const WorkloadSpec& w = *args.workload;
  const size_t cores =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  const size_t clients = std::min(w.clients, cores);

  // Every input derives from --seed; the system sees only the generated
  // dataset and query log.
  Rng seeds(args.seed);
  workload::DatasetSpec dspec = w.dataset();
  dspec.seed = seeds.Next();
  workload::QueryLogSpec lspec = workload::DefaultLogSpec();
  lspec.pool_size = w.distinct_queries;
  lspec.zipf_s = w.zipf_s;
  lspec.workload_size = kLogQueries;
  lspec.test_size = kStreamQueries;
  lspec.seed = seeds.Next();
  const Dataset data = workload::GenerateClustered(dspec);
  const workload::QueryLog log = workload::GenerateQueryLog(data, lspec);
  const QuerySet qs = Dedupe(log.test);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("  why: %s\n", w.why);
  std::printf("  data: %s n=%zu dim=%zu; queries: k=%zu, %zu distinct in a "
              "%zu-query stream (pool %zu, zipf s=%g)\n",
              dspec.name.c_str(), data.size(), data.dim(), kK,
              qs.distinct.size(), qs.stream.size(), lspec.pool_size,
              lspec.zipf_s);
  std::printf("  load: %zu closed-loop client(s); OS page cache %s\n",
              clients, w.cold ? "evicted before every query" : "warm");

  ScopedTempDir tmp(args.tmp_root);
  if (tmp.path().empty()) {
    std::fprintf(stderr, "perfbench: cannot create a directory under %s\n",
                 args.tmp_root.c_str());
    return 2;
  }

  // Telemetry outlives the system that points at it.
  obs::MetricsRegistry registry;
  obs::WindowedMetrics window;
  obs::FlightRecorder recorder;
  // The system reads its point file through this Env so that a traced pass
  // can time RandomAccessFile::Read; with no traced query open it forwards.
  TracedEnv env(storage::Env::Default());
  core::SystemOptions options;
  options.ndom = dspec.ndom;
  std::unique_ptr<core::System> sys;
  std::vector<double> create_s, configure_s, setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    sys.reset();
    Timer timer;
    Status st = core::System::Create(&env, tmp.path(), data, log.workload,
                                     options, &sys);
    create_s.push_back(timer.ElapsedSeconds());
    if (st.ok()) {
      const auto bytes = static_cast<size_t>(
          w.cache_frac * static_cast<double>(sys->point_file().data_bytes()));
      timer.Start();
      st = sys->ConfigureCache(core::CacheMethod::kHcO, bytes, /*tau=*/0,
                               w.lru);
      configure_s.push_back(timer.ElapsedSeconds());
    }
    if (!st.ok() || sys->cache() == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    setup_s.push_back(create_s.back() + configure_s.back());
  }
  sys->EnableMetrics(&registry);
  sys->SetWindow(&window);
  sys->SetRecorder(&recorder);
  cache::KnnCache* cache = sys->cache();
  std::printf("  cache: HC-O %s at %g%% of the point file: tau=%u, %zu items "
              "of %zu bytes\n",
              w.lru ? "LRU" : "static (HFF)", w.cache_frac * 100.0,
              sys->last_tau(), cache->capacity_items(), cache->item_bytes());

  Verdict verdict;
  const SystemFiles files(tmp.path());
  if (!files.ok()) verdict.problems.push_back("cannot flush the point file");
  if (w.cold) {
    files.Evict();
    const double resident = files.ResidentFraction();
    std::printf("  eviction: %.2f%% of the point file resident after "
                "POSIX_FADV_DONTNEED\n",
                resident * 100.0);
    if (resident < 0.0 || resident > kMaxResidentAfterEvict) {
      verdict.problems.push_back(std::string(w.name) +
                                 " is not cold: page-cache eviction failed");
    }
  }
  const SystemFiles* evictor = w.cold ? &files : nullptr;

  PassConfig pass;
  pass.clients = clients;
  pass.evictor = evictor;
  pass.lru = w.lru ? cache : nullptr;
  pass.query = [&sys](std::span<const Scalar> q, core::QueryResult* r) {
    return sys->Query(q, kK, r);
  };

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = LayerMetrics(args, w, pass, sys.get(), &registry, qs, cores,
                           create_s, configure_s, evictor, &verdict);
  } else {
    pass.seconds = args.seconds;
    const PassResult timed = RunPass(pass, qs);
    const double rss_mb = PeakRssMb();
    if (!timed.lru_full) {
      verdict.problems.push_back("the LRU cache was not full after warm-up");
    }
    const std::vector<Reference> refs =
        ComputeReferences(*sys, qs, {&timed}, cores);
    verdict.CheckAnswers("timed", timed.samples, refs);
    metrics = EndToEndMetrics(timed, refs, setup_s, rss_mb, &verdict);
  }
  return Finish(metrics, &verdict);
}

}  // namespace
}  // namespace eeb::perfbench

int main(int argc, char** argv) {
  eeb::perfbench::Args args;
  if (!eeb::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload sogou_hot|nusw_cold|nusw_churn "
                 "--seed N --seconds S --trace 0|1 [--tmp-root DIR] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  return eeb::perfbench::Run(args);
}
