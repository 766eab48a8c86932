// Benchmark-side layer tracing. Decorators wrap the objects KnnEngine calls
// into -- the candidate index, the cache, and the storage Env its point file
// reads through -- and record one span per call into the calling thread's
// SpanSink. A client thread opens a query on its sink before calling the
// engine, so every layer span carries the id of the query span it belongs
// to (its parent); the query span itself is appended by the client when the
// call returns. While no query is open the decorators record nothing and
// cost one thread-local load.

#ifndef EEB_PERFBENCH_LAYER_TRACE_H_
#define EEB_PERFBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/knn_cache.h"
#include "common/status.h"
#include "index/candidate_index.h"
#include "storage/env.h"

namespace eeb::perfbench {

enum class Layer : uint8_t {
  kQuery,        // KnnEngine::Query, the parent span (recorded by the client)
  kIndex,        // CandidateIndex::Candidates
  kCacheProbe,   // KnnCache::Probe
  kCacheAdmit,   // KnnCache::Admit
  kStorageRead,  // RandomAccessFile::Read
};
inline constexpr size_t kNumLayers = 5;

const char* LayerName(Layer layer);

/// Monotonic clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t query = 0;  // id of the query span (the parent of layer spans)
  Layer layer = Layer::kQuery;
};

/// One client thread's in-memory span buffer.
class SpanSink {
 public:
  explicit SpanSink(size_t capacity) { spans_.reserve(capacity); }

  /// Makes `sink` the calling thread's sink; nullptr removes it.
  static void Install(SpanSink* sink);

  /// The calling thread's sink while it has a query open, else nullptr.
  static SpanSink* Active();

  /// Opens query `id`. Returns false, leaving the query untraced, when the
  /// reserved buffer has no room for a whole query (it never reallocates
  /// inside a measured window).
  bool Begin(uint32_t id);

  /// Records one layer span of the open query.
  void Record(Layer layer, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({start_ns, end_ns, query_, layer});
  }
  void AddBytesRead(uint64_t n) { pending_bytes_ += n; }

  /// Closes the open query. With `keep` the query span [start_ns, end_ns]
  /// is appended after its layer spans; otherwise all of them are dropped.
  void End(bool keep, int64_t start_ns, int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Bytes requested from storage by the kept queries.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  std::vector<Span> spans_;
  size_t query_begin_ = 0;  // index of the open query's first span
  uint32_t query_ = 0;
  bool open_ = false;
  uint64_t pending_bytes_ = 0;
  uint64_t bytes_read_ = 0;
};

/// CandidateIndex decorator: one kIndex span per Candidates call.
class TracedIndex : public index::CandidateIndex {
 public:
  explicit TracedIndex(index::CandidateIndex* base) : base_(base) {}

  Status Candidates(std::span<const Scalar> q, size_t k,
                    std::vector<PointId>* out,
                    storage::IoStats* stats) override;
  std::string name() const override { return base_->name(); }

 private:
  index::CandidateIndex* const base_;
};

/// KnnCache decorator: one kCacheProbe / kCacheAdmit span per call. The
/// wrapped cache keeps its own hit, admission and eviction accounting.
class TracedCache : public cache::KnnCache {
 public:
  explicit TracedCache(cache::KnnCache* base) : base_(base) {}

  bool Probe(std::span<const Scalar> q, PointId id, double* lb,
             double* ub) override;
  void Admit(PointId id, std::span<const Scalar> exact) override;
  size_t item_bytes() const override { return base_->item_bytes(); }
  size_t size() const override { return base_->size(); }
  size_t capacity_items() const override { return base_->capacity_items(); }

 private:
  cache::KnnCache* const base_;
};

/// Env decorator: files it opens for reading record one kStorageRead span
/// (and the bytes requested) per Read call. Writes pass through untimed.
class TracedEnv : public storage::Env {
 public:
  explicit TracedEnv(storage::Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<storage::RandomAccessFile>* out) override;
  Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<storage::WritableFile>* out) override {
    return base_->NewWritableFile(path, out);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }

 private:
  storage::Env* const base_;
};

/// Per-layer totals over the kept queries of a set of sinks. A layer's self
/// time is the summed duration of its spans; the query layer's self time is
/// the part of each query span that no layer span covers. Layer spans do
/// not nest in this engine (neither the index nor the cache does I/O); the
/// caller checks that by reconciling the self times with the query time.
struct LayerSummary {
  uint64_t calls[kNumLayers] = {};
  double total_ns[kNumLayers] = {};
  double query_self_ns = 0.0;
  uint64_t bytes_read = 0;
  std::vector<double> read_ns;  // every kStorageRead duration
};

LayerSummary Summarize(std::span<const std::unique_ptr<SpanSink>> sinks);

/// Writes every span as one JSON object per line: layer, query (the parent
/// query span's id), start_ns, end_ns.
Status WriteSpansJsonl(const std::string& path,
                       std::span<const std::unique_ptr<SpanSink>> sinks);

}  // namespace eeb::perfbench

#endif  // EEB_PERFBENCH_LAYER_TRACE_H_
