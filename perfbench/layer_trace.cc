#include "layer_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace eeb::perfbench {
namespace {

thread_local SpanSink* t_sink = nullptr;

// Room Begin insists on: a C2LSH query reports at most k + beta candidates
// (210 by default), each costing at most one probe, one read and one admit.
constexpr size_t kMaxSpansPerQuery = 4096;

class TracedFile : public storage::RandomAccessFile {
 public:
  explicit TracedFile(std::unique_ptr<storage::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, char* scratch) const override {
    SpanSink* sink = SpanSink::Active();
    if (sink == nullptr) return base_->Read(offset, n, scratch);
    const int64_t start = NowNs();
    Status s = base_->Read(offset, n, scratch);
    sink->Record(Layer::kStorageRead, start, NowNs());
    sink->AddBytesRead(n);
    return s;
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<storage::RandomAccessFile> base_;
};

// Length of the union of `spans` clipped to [lo, hi].
double Covered(std::vector<std::pair<int64_t, int64_t>>* spans, int64_t lo,
               int64_t hi) {
  std::sort(spans->begin(), spans->end());
  double covered = 0.0;
  int64_t reach = lo;
  for (const auto& [start, end] : *spans) {
    const int64_t a = std::max(start, reach);
    const int64_t b = std::min(end, hi);
    if (b > a) {
      covered += static_cast<double>(b - a);
      reach = b;
    }
  }
  return covered;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery:
      return "query";
    case Layer::kIndex:
      return "index";
    case Layer::kCacheProbe:
      return "cache_probe";
    case Layer::kCacheAdmit:
      return "cache_admit";
    case Layer::kStorageRead:
      return "storage_read";
  }
  return "?";
}

void SpanSink::Install(SpanSink* sink) { t_sink = sink; }

SpanSink* SpanSink::Active() {
  SpanSink* sink = t_sink;
  return sink != nullptr && sink->open_ ? sink : nullptr;
}

bool SpanSink::Begin(uint32_t id) {
  if (spans_.capacity() - spans_.size() < kMaxSpansPerQuery) return false;
  query_ = id;
  query_begin_ = spans_.size();
  pending_bytes_ = 0;
  open_ = true;
  return true;
}

void SpanSink::End(bool keep, int64_t start_ns, int64_t end_ns) {
  open_ = false;
  if (!keep) {
    spans_.resize(query_begin_);
    return;
  }
  spans_.push_back({start_ns, end_ns, query_, Layer::kQuery});
  bytes_read_ += pending_bytes_;
}

Status TracedIndex::Candidates(std::span<const Scalar> q, size_t k,
                               std::vector<PointId>* out,
                               storage::IoStats* stats) {
  SpanSink* sink = SpanSink::Active();
  if (sink == nullptr) return base_->Candidates(q, k, out, stats);
  const int64_t start = NowNs();
  Status s = base_->Candidates(q, k, out, stats);
  sink->Record(Layer::kIndex, start, NowNs());
  return s;
}

bool TracedCache::Probe(std::span<const Scalar> q, PointId id, double* lb,
                        double* ub) {
  SpanSink* sink = SpanSink::Active();
  if (sink == nullptr) return base_->Probe(q, id, lb, ub);
  const int64_t start = NowNs();
  const bool hit = base_->Probe(q, id, lb, ub);
  sink->Record(Layer::kCacheProbe, start, NowNs());
  return hit;
}

void TracedCache::Admit(PointId id, std::span<const Scalar> exact) {
  SpanSink* sink = SpanSink::Active();
  if (sink == nullptr) return base_->Admit(id, exact);
  const int64_t start = NowNs();
  base_->Admit(id, exact);
  sink->Record(Layer::kCacheAdmit, start, NowNs());
}

Status TracedEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<storage::RandomAccessFile>* out) {
  std::unique_ptr<storage::RandomAccessFile> file;
  EEB_RETURN_IF_ERROR(base_->NewRandomAccessFile(path, &file));
  *out = std::make_unique<TracedFile>(std::move(file));
  return Status::OK();
}

LayerSummary Summarize(std::span<const std::unique_ptr<SpanSink>> sinks) {
  LayerSummary sum;
  std::vector<std::pair<int64_t, int64_t>> children;
  for (const auto& sink : sinks) {
    sum.bytes_read += sink->bytes_read();
    children.clear();
    for (const Span& span : sink->spans()) {
      const size_t layer = static_cast<size_t>(span.layer);
      const double ns = static_cast<double>(span.end_ns - span.start_ns);
      sum.calls[layer]++;
      sum.total_ns[layer] += ns;
      if (span.layer == Layer::kStorageRead) sum.read_ns.push_back(ns);
      if (span.layer != Layer::kQuery) {
        children.emplace_back(span.start_ns, span.end_ns);
        continue;
      }
      // A query span follows its own layer spans in the sink (End appends
      // it last), so `children` holds exactly this query's spans.
      sum.query_self_ns +=
          ns - Covered(&children, span.start_ns, span.end_ns);
      children.clear();
    }
  }
  return sum;
}

Status WriteSpansJsonl(const std::string& path,
                       std::span<const std::unique_ptr<SpanSink>> sinks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  for (const auto& sink : sinks) {
    for (const Span& s : sink->spans()) {
      std::fprintf(f,
                   "{\"layer\":\"%s\",\"query\":%" PRIu32
                   ",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                   LayerName(s.layer), s.query, s.start_ns, s.end_ns);
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace eeb::perfbench
