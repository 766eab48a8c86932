#include "core/knn_engine.h"

#include <algorithm>
#include <limits>

#include "common/distance.h"
#include "common/timer.h"
#include "common/topk.h"

namespace eeb::core {
namespace {

// k-th smallest value (1-based k); +inf when the input is empty. When fewer
// than k values exist, returns the largest (the bound degrades gracefully).
double KthMin(std::vector<double> values, size_t k) {
  if (values.empty()) return std::numeric_limits<double>::infinity();
  const size_t idx = std::min(k, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

// Failures the degraded path may absorb: transient I/O (post-retry) and
// checksum corruption. Anything else (bad id, bad span) is a caller bug and
// must propagate.
bool DegradableFailure(const Status& st) {
  return st.IsIOError() || st.IsCorruption();
}

}  // namespace

Status KnnEngine::Query(std::span<const Scalar> q, size_t k,
                        QueryResult* out) {
  *out = QueryResult{};
  if (k == 0) return Status::InvalidArgument("k must be positive");
  // Pin the published cache generation for this whole query; a concurrent
  // set_cache() (maintenance rebuild) cannot free it from under us.
  std::shared_ptr<cache::KnnCache> cache_ref;
  {
    MutexLock lock(cache_mu_);
    cache_ref = cache_;
  }
  cache::KnnCache* const cache = cache_ref.get();
  Timer timer;
  Timer deadline_timer;  // wall clock across all phases, for the deadline
  const double deadline_ms = options_.deadline_ms;
  auto deadline_expired = [&deadline_timer, deadline_ms] {
    return deadline_ms > 0.0 && deadline_timer.ElapsedMillis() >= deadline_ms;
  };
  // Per-candidate events go to the query's own buffer. Defined here, outside
  // the eeb-hot fences, because the append may allocate; untraced queries
  // pay one branch per event site.
  const bool traced = options_.trace_events;
  auto trace = [traced, out](obs::TraceEventType type, uint64_t id,
                             double value) {
    if (traced) out->events.push_back({type, id, value});
  };
  auto cut_deadline = [&](uint64_t id) {
    out->deadline_hit = true;
    trace(obs::TraceEventType::kDeadlineCut, id,
          deadline_timer.ElapsedMillis());
  };
  out->k = static_cast<uint32_t>(k);
  out->cache_generation = cache != nullptr ? cache->generation_id() : 0;

  // ---- Phase 1: candidate generation -----------------------------------
  std::vector<PointId> cand;
  EEB_RETURN_IF_ERROR(index_->Candidates(q, k, &cand, &out->gen_io));
  out->candidates = static_cast<uint32_t>(cand.size());
  out->gen_seconds = timer.ElapsedSeconds();
  // Generation-boundary cut: generation itself is one in-memory index scan
  // (its I/O is modeled, not performed), so the budget is checked at the
  // phase edge; an exhausted budget skips the probe loop and sends every
  // candidate to the degraded bound-substitution path.
  if (deadline_expired()) cut_deadline(0);

  // State shared by reduction and refinement.
  storage::PageTracker tracker;
  std::vector<Scalar> buf(points_->dim());
  // First-touch page events: each ReadPoint may pull in pages the tracker
  // has not seen this query; tag them on the point that caused the fault.
  size_t seen_pages = 0;
  auto note_pages = [&](PointId id) {
    if (!traced) return;
    const size_t now = tracker.distinct_pages();
    if (now > seen_pages) {
      trace(obs::TraceEventType::kPageRead, points_->PageOfPoint(id),
            static_cast<double>(now - seen_pages));
      seen_pages = now;
    }
  };
  std::vector<PointId> sure;  // R: true results detected without fetching
  struct Pending {
    double lb;
    double ub;  // cached upper bound; the degraded fallback scores with it
    PointId id;
    bool resolved;  // exact distance already known (eager miss fetch)
  };
  std::vector<Pending> remaining;
  bool saw_corruption = false;

  // ---- Phase 2: candidate reduction (no I/O) ----------------------------
  timer.Start();
  {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> lbs(cand.size(), 0.0);
    std::vector<double> ubs(cand.size(), inf);
    std::vector<bool> resolved(cand.size(), false);
    if (cache != nullptr) {
      // eeb-hot-begin(reduce-probe-loop): one iteration per candidate; any
      // allocation here multiplies by |C(q)| and shows in reduce_seconds.
      for (size_t i = 0; i < cand.size(); ++i) {
        // Reduction cut point, checked every 32 candidates so the timer
        // read stays off the per-probe cost. Unprobed candidates keep
        // [0, inf) bounds and fall through to refinement, where the
        // already-expired deadline resolves them by substitution.
        if ((i & 31u) == 0u && !out->deadline_hit && deadline_expired()) {
          cut_deadline(cand[i]);
        }
        if (out->deadline_hit) break;
        double lb, ub;
        const bool probe_hit = cache->Probe(q, cand[i], &lb, &ub);
        // The introspection tap sees every probe; its sampling gate is one
        // hash+compare.
        if (analytics_ != nullptr) {
          analytics_->OnAccess(static_cast<uint64_t>(cand[i]), probe_hit);
        }
        if (probe_hit) {
          lbs[i] = lb;
          ubs[i] = ub;
          out->cache_hits++;
          trace(obs::TraceEventType::kCacheHit, cand[i], lb);
        } else {
          trace(obs::TraceEventType::kCacheMiss, cand[i], 0.0);
          if (options_.eager_miss_fetch) {
            // Footnote 6: resolve misses now so lbk/ubk are tight.
            Status rs =
                points_->ReadPoint(cand[i], buf, &out->refine_io, &tracker);
            if (!rs.ok()) {
              if (!options_.degraded_fallback || !DegradableFailure(rs)) {
                return rs;
              }
              // The candidate stays an unresolved miss with [0, inf) bounds;
              // refinement gets another shot at reading it.
              out->read_failures++;
              saw_corruption |= rs.IsCorruption();
              trace(obs::TraceEventType::kReadFailure, cand[i], 0.0);
              continue;
            }
            out->fetched++;
            const double d = L2(q, buf);
            lbs[i] = d;
            ubs[i] = d;
            resolved[i] = true;
            cache->Admit(cand[i], buf);
            trace(obs::TraceEventType::kEagerFetch, cand[i], d);
            note_pages(cand[i]);
          }
        }
      }
      // eeb-hot-end
    }

    const double lbk = KthMin(lbs, k);
    const double ubk = KthMin(ubs, k);
    out->lbk = lbk;
    out->ubk = ubk;

    remaining.reserve(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      if (lbs[i] > ubk) {
        out->pruned++;  // early pruning (Line 10-11)
        trace(obs::TraceEventType::kEarlyPrune, cand[i], lbs[i]);
      } else if (options_.true_result_detection && ubs[i] < lbk) {
        sure.push_back(cand[i]);  // true result detection (Line 12-13)
        out->true_hits++;
        trace(obs::TraceEventType::kTrueResult, cand[i], ubs[i]);
      } else {
        remaining.push_back({lbs[i], ubs[i], cand[i], resolved[i]});
      }
    }
  }
  out->remaining = static_cast<uint32_t>(remaining.size());
  out->reduce_seconds = timer.ElapsedSeconds();

  // ---- Phase 3: multi-step refinement ------------------------------------
  timer.Start();
  out->result_ids = std::move(sure);
  if (out->result_ids.size() < k) {
    const size_t kprime = k - out->result_ids.size();
    if (remaining.size() <= kprime) {
      // Everything left is a result; no fetch can change the id set.
      for (const Pending& p : remaining) out->result_ids.push_back(p.id);
    } else {
      std::sort(remaining.begin(), remaining.end(),
                [](const Pending& a, const Pending& b) {
                  if (a.lb != b.lb) return a.lb < b.lb;
                  return a.id < b.id;
                });
      TopK top(kprime);
      // Degraded fallback: rank the candidate by its cached upper bound
      // (pessimistic — a cache miss means +inf) instead of aborting.
      auto substitute = [&](const Pending& p) {
        out->degraded = true;
        out->substituted++;
        top.Push(p.id, p.ub);
        trace(obs::TraceEventType::kDegraded, p.id, p.ub);
      };
      // eeb-hot-begin(refine-fetch-loop): the multi-step kNN inner loop —
      // per-candidate work must stay fetch + distance only.
      for (const Pending& p : remaining) {
        if (top.Full() && p.lb > top.Threshold()) break;  // optimal stop
        if (p.resolved) {
          top.Push(p.id, p.lb);  // lb == exact distance; no I/O needed
          continue;
        }
        if (!out->deadline_hit && deadline_expired()) cut_deadline(p.id);
        if (out->deadline_hit) {
          substitute(p);
          continue;
        }
        Status rs = points_->ReadPoint(p.id, buf, &out->refine_io, &tracker);
        if (!rs.ok()) {
          if (!options_.degraded_fallback || !DegradableFailure(rs)) {
            return rs;
          }
          out->read_failures++;
          saw_corruption |= rs.IsCorruption();
          trace(obs::TraceEventType::kReadFailure, p.id, 0.0);
          substitute(p);
          continue;
        }
        out->fetched++;
        const double d = L2(q, buf);
        top.Push(p.id, d);
        if (cache != nullptr) cache->Admit(p.id, buf);
        trace(obs::TraceEventType::kFetch, p.id, d);
        note_pages(p.id);
      }
      // eeb-hot-end
      for (const Neighbor& nb : top.TakeSorted()) {
        out->result_ids.push_back(nb.id);
      }
    }
  }
  std::sort(out->result_ids.begin(), out->result_ids.end());
  out->refine_seconds = timer.ElapsedSeconds();

  out->point_reads = static_cast<uint32_t>(out->refine_io.point_reads);
  out->pages_read = static_cast<uint32_t>(out->refine_io.page_reads);
  out->distinct_pages = static_cast<uint32_t>(tracker.distinct_pages());
  if (saw_corruption) {
    out->degraded_cause = obs::DegradedCause::kCorruption;
  } else if (out->read_failures > 0) {
    out->degraded_cause = obs::DegradedCause::kReadFailure;
  } else if (out->deadline_hit) {
    out->degraded_cause = obs::DegradedCause::kDeadline;
  }
  return Status::OK();
}

}  // namespace eeb::core
