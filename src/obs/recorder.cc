#include "obs/recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/export.h"

namespace eeb::obs {
namespace {

// JSON has no literal for non-finite numbers (%g would emit `inf`/`nan`
// and corrupt the dump); an unbounded ubk is rendered as null instead.
void AppendJsonDouble(std::string* out, double v) {
  if (std::isfinite(v)) {
    AppendF(out, "%.9g", v);
  } else {
    out->append("null");
  }
}

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kCacheHit:
      return "cache_hit";
    case TraceEventType::kCacheMiss:
      return "cache_miss";
    case TraceEventType::kEagerFetch:
      return "eager_fetch";
    case TraceEventType::kEarlyPrune:
      return "early_prune";
    case TraceEventType::kTrueResult:
      return "true_result";
    case TraceEventType::kFetch:
      return "fetch";
    case TraceEventType::kPageRead:
      return "page_read";
    case TraceEventType::kReadFailure:
      return "read_failure";
    case TraceEventType::kDegraded:
      return "degraded";
    case TraceEventType::kDeadlineCut:
      return "deadline_cut";
  }
  return "?";
}

const char* DegradedCauseName(DegradedCause cause) {
  switch (cause) {
    case DegradedCause::kNone:
      return "none";
    case DegradedCause::kCorruption:
      return "corruption";
    case DegradedCause::kReadFailure:
      return "read_failure";
    case DegradedCause::kDeadline:
      return "deadline";
  }
  return "unknown";
}

void AppendExplainJson(const QueryExplain& e, std::string* out) {
  AppendF(out,
          "{\"cache_generation\":%" PRIu64
          ",\"k\":%u,\"candidates\":%u,\"cache_hits\":%u,\"pruned\":%u,"
          "\"true_results\":%u,\"remaining\":%u,\"fetched\":%u",
          e.cache_generation, e.k, e.candidates, e.cache_hits, e.pruned,
          e.true_hits, e.remaining, e.fetched);
  AppendF(out,
          ",\"point_reads\":%u,\"pages_read\":%u,\"distinct_pages\":%u,"
          "\"substituted\":%u,\"read_failures\":%u,\"degraded_cause\":\"%s\"",
          e.point_reads, e.pages_read, e.distinct_pages, e.substituted,
          e.read_failures, DegradedCauseName(e.degraded_cause));
  AppendF(out, ",\"degraded\":%s,\"deadline_hit\":%s",
          e.degraded ? "true" : "false", e.deadline_hit ? "true" : "false");
  out->append(",\"lbk\":");
  AppendJsonDouble(out, e.lbk);
  out->append(",\"ubk\":");
  AppendJsonDouble(out, e.ubk);
  AppendF(out,
          ",\"gen_seconds\":%.9g,\"reduce_seconds\":%.9g,"
          "\"refine_seconds\":%.9g}",
          e.gen_seconds, e.reduce_seconds, e.refine_seconds);
}

void AppendQueryRecordJson(const QueryRecord& r, std::string* out) {
  AppendF(out,
          "{\"seq\":%" PRIu64 ",\"query_index\":%" PRIu64
          ",\"response_seconds\":%.9g,\"explain\":",
          r.seq, r.query_index, r.response_seconds);
  AppendExplainJson(r.explain, out);
  out->append("}");
}

std::string ExplainJson(const QueryExplain& e) {
  std::string out;
  AppendExplainJson(e, &out);
  return out;
}

void AppendTraceJson(uint64_t query_index, const QueryExplain& e,
                     std::span<const TraceEvent> events, std::string* out) {
  AppendF(out, "{\"query\":%" PRIu64 ",\"explain\":", query_index);
  AppendExplainJson(e, out);
  out->append(",\"events\":[");
  for (size_t i = 0; i < events.size(); ++i) {
    AppendF(out, "%s{\"t\":\"%s\",\"id\":%" PRIu64 ",\"v\":",
            i == 0 ? "" : ",", TraceEventTypeName(events[i].type),
            events[i].id);
    AppendJsonDouble(out, events[i].value);
    out->append("}");
  }
  out->append("]}");
}

FlightRecorder::FlightRecorder(Options options)
    : options_([&options] {
        if (options.ring_capacity == 0) options.ring_capacity = 1;
        return options;
      }()),
      slow_threshold_bits_(
          std::bit_cast<uint64_t>(options_.slow_threshold_seconds)) {
  for (auto& slot : slots_) {
    slot.cells = std::make_unique<Cell[]>(options_.ring_capacity);
  }
}

size_t FlightRecorder::SlotIndex() const {
  // One slot per thread while threads <= kSlots; beyond that, slots are
  // shared and the seqlock protocol keeps sharing safe (torn reads are
  // detected and skipped, never handed out).
  thread_local size_t slot = ~size_t{0};
  if (slot == ~size_t{0}) {
    slot = const_cast<FlightRecorder*>(this)->next_slot_.fetch_add(
               1, std::memory_order_relaxed) %
           kSlots;
  }
  return slot;
}

void FlightRecorder::WriteCell(Cell& cell, const QueryRecord& record) {
  std::array<uint64_t, kWords> words;
  std::memcpy(words.data(), &record, sizeof(record));
  const uint64_t v = cell.version.load(std::memory_order_relaxed);
  cell.version.store(v + 1, std::memory_order_relaxed);  // odd: in progress
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < kWords; ++i) {
    cell.words[i].store(words[i], std::memory_order_relaxed);
  }
  // Seqlock writer side: slot-cursor claiming (fetch_add in Record) makes
  // this thread the cell's only writer until the even version publishes,
  // so the load-then-store version bump cannot race.
  // eeb-lint: allow(atomic-misuse)
  cell.version.store(v + 2, std::memory_order_release);  // even: stable
}

bool FlightRecorder::ReadCell(const Cell& cell, QueryRecord* out) const {
  const uint64_t v1 = cell.version.load(std::memory_order_acquire);
  if (v1 == 0 || (v1 & 1) != 0) return false;  // empty or mid-write
  std::array<uint64_t, kWords> words;
  for (size_t i = 0; i < kWords; ++i) {
    words[i] = cell.words[i].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (cell.version.load(std::memory_order_relaxed) != v1) {
    torn_reads_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // QueryRecord is trivially copyable (static_assert in the header); the
  // void* cast silences -Wclass-memaccess about the default member
  // initializers being bypassed — they are immediately overwritten.
  std::memcpy(static_cast<void*>(out), words.data(), sizeof(*out));
  return true;
}

uint64_t FlightRecorder::Record(QueryRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;

  Slot& slot = slots_[SlotIndex()];
  const uint64_t n = slot.cursor.fetch_add(1, std::memory_order_relaxed);
  WriteCell(slot.cells[n % options_.ring_capacity], record);

  const double threshold = slow_threshold();
  const bool slow = threshold > 0.0 && record.response_seconds >= threshold;
  const bool degraded =
      record.explain.degraded_cause != DegradedCause::kNone ||
      record.explain.read_failures > 0;
  if (slow || degraded) {
    retained_total_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(slow_mu_);
    slow_.push_back(record);
    while (slow_.size() > options_.max_retained_slow) slow_.pop_front();
  }
  return record.seq;
}

std::vector<QueryRecord> FlightRecorder::SnapshotRecent() const {
  std::vector<QueryRecord> out;
  for (const Slot& slot : slots_) {
    const uint64_t written = slot.cursor.load(std::memory_order_acquire);
    const uint64_t live = std::min<uint64_t>(written, options_.ring_capacity);
    for (uint64_t i = 0; i < live; ++i) {
      QueryRecord r;
      if (ReadCell(slot.cells[i], &r) && r.seq != 0) out.push_back(r);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<QueryRecord> FlightRecorder::SlowQueries() const {
  MutexLock lock(slow_mu_);
  return {slow_.begin(), slow_.end()};
}

void FlightRecorder::DumpJson(std::ostream& os) const {
  const std::vector<QueryRecord> recent = SnapshotRecent();
  const std::vector<QueryRecord> slow = SlowQueries();
  std::string out;
  AppendF(&out,
          "{\"recorded\":%" PRIu64 ",\"retained_slow_total\":%" PRIu64
          ",\"torn_reads\":%" PRIu64 ",\"slow_threshold_seconds\":%.9g",
          recorded(), retained_slow_total(), torn_reads(), slow_threshold());
  out.append(",\"recent\":[");
  for (size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) out.append(",");
    AppendQueryRecordJson(recent[i], &out);
  }
  out.append("],\"slow\":[");
  for (size_t i = 0; i < slow.size(); ++i) {
    if (i > 0) out.append(",");
    AppendQueryRecordJson(slow[i], &out);
  }
  out.append("]}\n");
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string FlightRecorder::DumpJson() const {
  std::ostringstream os;
  DumpJson(os);
  return std::move(os).str();
}

}  // namespace eeb::obs
