// The per-query record and the flight recorder.
//
// QueryExplain is the one record of what Algorithm 1 did for a query: the
// candidate funnel of Eqn. 1, the kth-bounds, I/O shape, causes and phase
// times. core::QueryResult derives from it, so the engine writes each fact
// once, and every consumer (flight recorder, live window, --explain,
// --trace-out) reads the same bytes. Opt-in per-candidate trace events
// (TraceEvent) ride next to it in the result, owned by the query.
//
// Flight recorder: an always-on, low-overhead diagnostic ring that retains
// the last N per-query summaries plus a tail-sampled set of "interesting"
// queries (slow, degraded, corruption-hit, deadline-cut) with their full
// explain records. Intended to answer "what was the serving path doing just
// now, and why was *that* query slow" without enabling tracing.
//
// Write path: each thread claims a ring entry with one relaxed fetch_add and
// publishes the fixed-size record through a per-entry seqlock whose words
// are plain atomics — no mutex, no allocation, and safe under TSan. Readers
// (dump/snapshot) make a single validated pass per entry and skip torn
// reads, so diagnostics never stall the serving threads.
//
// Tail retention (the slow-query list) is off the hot path for normal
// queries: only records that qualify take a mutex.

#ifndef EEB_OBS_RECORDER_H_
#define EEB_OBS_RECORDER_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace eeb::obs {

/// Why a query's answer is degraded (best-effort instead of exact).
/// Priority order when several apply: corruption > read failure > deadline.
enum class DegradedCause : uint8_t {
  kNone = 0,
  kCorruption = 1,   // a page failed its checksum during refinement
  kReadFailure = 2,  // I/O error persisted through retries
  kDeadline = 3,     // per-query deadline cut refinement short
};

const char* DegradedCauseName(DegradedCause cause);

/// Per-candidate trace event kinds, recorded into QueryResult::events when
/// EngineOptions::trace_events is set.
enum class TraceEventType : uint8_t {
  kCacheHit,    ///< cache probe returned [lb, ub]; value = lb
  kCacheMiss,   ///< cache probe missed
  kEagerFetch,  ///< miss resolved from disk during reduction (footnote 6)
  kEarlyPrune,  ///< lb > ubk, candidate dropped without I/O
  kTrueResult,  ///< ub < lbk, candidate accepted without I/O
  kFetch,       ///< refinement fetch; value = exact distance
  kPageRead,    ///< first touch of a disk page this query; id = page number
  kReadFailure,  ///< disk read ultimately failed (post-retry); value = 0
  kDegraded,     ///< candidate scored from cached bounds; value = used bound
  kDeadlineCut,  ///< deadline_ms exceeded, refinement switched to degraded
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  TraceEventType type;
  uint64_t id;   ///< point id (page number for kPageRead)
  double value;  ///< event-specific scalar (bound, distance, ...)

  bool operator==(const TraceEvent&) const = default;
};

/// The per-query record: enough to reconstruct what Algorithm 1 did for one
/// query — candidate funnel, bounds, I/O, causes, cache generation — without
/// per-candidate events. Trivially copyable on purpose: the flight recorder
/// publishes it through atomic words.
///
/// Phase times are steady_clock wall time on the thread that ran the query,
/// not CPU time; refine_seconds includes the point reads' pread time.
struct QueryExplain {
  uint64_t cache_generation = 0;  // which published cache answered
  double lbk = 0.0;               // k-th smallest cached lower bound
  double ubk = 0.0;               // k-th smallest cached upper bound
  double gen_seconds = 0.0;       // candidate generation, wall time
  double reduce_seconds = 0.0;    // cache-probe reduction, wall time
  double refine_seconds = 0.0;    // refinement incl. point reads, wall time
  uint32_t k = 0;
  uint32_t candidates = 0;     // |C(q)|, from candidate generation
  uint32_t cache_hits = 0;     // candidates with cached code bounds
  uint32_t pruned = 0;         // dropped by lb > ubk
  uint32_t true_hits = 0;      // accepted by ub < lbk (no refinement)
  uint32_t remaining = 0;      // survivors entering refinement (Crefine)
  uint32_t fetched = 0;        // points actually read (incl. eager fetches)
  uint32_t point_reads = 0;    // storage-level point reads issued
  uint32_t pages_read = 0;     // total page reads issued
  uint32_t distinct_pages = 0; // unique pages touched (coalescing headroom)
  uint32_t substituted = 0;    // candidates scored by cached ub, not disk
  uint32_t read_failures = 0;  // point reads that ultimately failed
  DegradedCause degraded_cause = DegradedCause::kNone;
  // A degraded answer is the best the cached code bounds can give when the
  // disk cannot be read; its ids may differ from the exact answer. Neither
  // flag follows from degraded_cause: a failed read or a deadline cut may
  // substitute nothing, and a read-failure cause masks a deadline cut.
  bool degraded = false;       // some result came from cached bounds
  bool deadline_hit = false;   // a phase was cut over by the deadline
  uint8_t pad_[5] = {};        // keep sizeof a multiple of 8 explicitly
};
static_assert(std::is_trivially_copyable_v<QueryExplain>);
static_assert(sizeof(QueryExplain) % 8 == 0);

/// One flight-recorder entry: identity, outcome, and the explain record.
struct QueryRecord {
  uint64_t seq = 0;          // recorder-global order (1-based; 0 = empty)
  uint64_t query_index = 0;  // caller's index within its batch
  double response_seconds = 0.0;  // modeled: phase wall time + disk model
  QueryExplain explain;
};
static_assert(std::is_trivially_copyable_v<QueryRecord>);
static_assert(sizeof(QueryRecord) % 8 == 0);

/// Renders one explain record / query record as a JSON object. Shared by
/// `eeb_cli --explain`, `--trace-out` and the recorder dumps so the schema
/// cannot drift.
void AppendExplainJson(const QueryExplain& e, std::string* out);
void AppendQueryRecordJson(const QueryRecord& r, std::string* out);
std::string ExplainJson(const QueryExplain& e);

/// One traced query as a JSON object (no newline):
/// {"query":…,"explain":{…},"events":[{"t":…,"id":…,"v":…},…]}.
void AppendTraceJson(uint64_t query_index, const QueryExplain& e,
                     std::span<const TraceEvent> events, std::string* out);

class FlightRecorder {
 public:
  struct Options {
    // Ring capacity per thread slot; total retained summaries is up to
    // kSlots * ring_capacity across however many slots threads touched.
    size_t ring_capacity = 256;
    // Queries at or above this modeled-response threshold are retained with
    // their full record. 0 disables the slowness criterion (degraded and
    // corruption-hit queries are always retained).
    double slow_threshold_seconds = 0.0;
    // Bound on the retained slow/degraded list (oldest evicted first).
    size_t max_retained_slow = 256;
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(Options options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one finished query. Assigns and returns its recorder sequence
  /// number. Lock-free unless the record qualifies for tail retention.
  uint64_t Record(QueryRecord record);

  /// Retunes the slowness threshold (e.g. to a live p95 from the windowed
  /// metrics). Takes effect for subsequent Record() calls.
  void set_slow_threshold(double seconds) {
    slow_threshold_bits_.store(std::bit_cast<uint64_t>(seconds),
                               std::memory_order_relaxed);
  }
  double slow_threshold() const {
    return std::bit_cast<double>(
        slow_threshold_bits_.load(std::memory_order_relaxed));
  }

  /// Validated copy of the ring contents, oldest first. Entries a writer
  /// was mid-publish on are skipped (counted in torn_reads()).
  std::vector<QueryRecord> SnapshotRecent() const;

  /// Copy of the tail-retained slow/degraded records, oldest first.
  std::vector<QueryRecord> SlowQueries() const;

  /// {"recorded":…,"slow_threshold":…,"recent":[…],"slow":[…]}
  void DumpJson(std::ostream& os) const;
  std::string DumpJson() const;

  uint64_t recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }
  uint64_t retained_slow_total() const {
    return retained_total_.load(std::memory_order_relaxed);
  }
  uint64_t torn_reads() const {
    return torn_reads_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kSlots = 16;
  static constexpr size_t kWords = sizeof(QueryRecord) / 8;

  // Seqlock cell: even version = stable, odd = write in progress. Payload
  // words are relaxed atomics so concurrent read/write is defined behavior;
  // the version protocol detects (and discards) torn copies.
  struct Cell {
    std::atomic<uint64_t> version{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  struct alignas(64) Slot {
    std::atomic<uint64_t> cursor{0};  // total writes; next entry = cursor % cap
    std::unique_ptr<Cell[]> cells;
  };

  size_t SlotIndex() const;

  // Seqlock protocol (not expressible to the thread-safety analysis, which
  // models capabilities, not version counters — so the helpers document it):
  //
  //   WriteCell  "acquires" the cell by bumping version to odd (relaxed
  //              load + store — the single-writer-per-cell guarantee comes
  //              from the slot cursor's fetch_add claiming the entry), emits
  //              a release fence, stores the payload words relaxed, emits
  //              another release fence, and "releases" by storing the even
  //              version+2.
  //   ReadCell   reads version (acquire), copies the payload words relaxed,
  //              emits an acquire fence, and re-reads version; the copy is
  //              valid only if both reads saw the same even value.
  //
  // The version load-then-store in WriteCell is the canonical benign
  // read-modify-write on an atomic: entry claiming makes this thread the
  // only writer of the cell until it publishes the even version.
  void WriteCell(Cell& cell, const QueryRecord& record);
  bool ReadCell(const Cell& cell, QueryRecord* out) const;

  const Options options_;
  std::atomic<uint64_t> slow_threshold_bits_;
  std::array<Slot, kSlots> slots_ EEB_UNGUARDED(
      "seqlock-protected: every Slot field is an atomic and the per-cell "
      "version protocol above governs all cross-thread access");
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> next_slot_{0};
  mutable std::atomic<uint64_t> torn_reads_{0};

  std::atomic<uint64_t> retained_total_{0};
  mutable Mutex slow_mu_;  // tail-retention list; off the normal hot path
  std::deque<QueryRecord> slow_ EEB_GUARDED_BY(slow_mu_);
};

}  // namespace eeb::obs

#endif  // EEB_OBS_RECORDER_H_
