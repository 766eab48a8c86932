#include "index/lsh/c2lsh.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "storage/point_file.h"

namespace eeb::index {
namespace {

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Bytes per hash-table entry (key prefix compressed away on disk; an id list
// entry is one 8-byte word). Used only for index-I/O accounting.
constexpr size_t kEntryBytes = 8;

// Collision counts are 8-bit. Each point sits once in each function's run
// and a query visits each key of a function at most once, so a count never
// exceeds m; Build caps m here.
constexpr uint32_t kMaxFunctions = 255;

// A (key, id) pair of one function, sorted by key then id during Build.
struct Entry {
  int64_t key;
  PointId id;
  bool operator<(const Entry& o) const {
    if (key != o.key) return key < o.key;
    return id < o.id;
  }
};

// Per-thread collision-count scratch, shared by every C2Lsh instance on the
// thread. `counts` and `touched` only grow (new counts are zero). The first
// `ntouched` entries of `touched` name the counts the thread's previous query
// raised; Scratch zeroes exactly those, so a query sees all-zero counts
// regardless of which instance the thread served before. `touched` has
// n + 1 slots because the count kernel stores every visited id at
// touched[ntouched] before deciding whether to keep it.
struct QueryScratch {
  std::vector<uint8_t> counts;
  std::vector<PointId> touched;
  size_t ntouched = 0;
};

QueryScratch& Scratch(size_t n) {
  thread_local QueryScratch s;
  for (size_t t = 0; t < s.ntouched; ++t) s.counts[s.touched[t]] = 0;
  s.ntouched = 0;
  if (s.counts.size() < n) s.counts.resize(n, 0);
  if (s.touched.size() < n + 1) s.touched.resize(n + 1);
  return s;
}

}  // namespace

Status C2Lsh::Build(const Dataset& data, const C2LshOptions& options,
                    std::unique_ptr<C2Lsh>* out) {
  if (data.empty()) return Status::InvalidArgument("empty dataset");
  if (options.num_functions == 0 || options.num_functions > kMaxFunctions) {
    return Status::InvalidArgument("number of hash functions m must be 1..255");
  }
  if (options.collision_threshold == 0) {
    return Status::InvalidArgument("collision threshold must be >= 1");
  }
  if (options.collision_threshold > options.num_functions) {
    return Status::InvalidArgument("collision threshold exceeds m");
  }
  if (options.approximation_ratio < 2.0) {
    return Status::InvalidArgument("approximation ratio c must be >= 2");
  }

  std::unique_ptr<C2Lsh> idx(new C2Lsh(options, data.dim()));
  const size_t n = data.size();
  const size_t d = data.dim();
  const uint32_t m = options.num_functions;
  idx->n_ = n;

  Rng rng(options.seed);
  idx->proj_.resize(static_cast<size_t>(m) * d);
  for (auto& v : idx->proj_) v = rng.NextGaussian();
  idx->shift_.assign(m, 0.0);

  // Project everything once; optionally scale w by the projection spread so
  // level-0 buckets are meaningfully narrow for any data scale. A point's m
  // dot products are summed side by side over a d x m transposed copy of
  // the projections, so the m sums pipeline; each still adds its terms in
  // order of j, so the values are those of m separate loops.
  std::vector<double> proj_t(d * m);
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) {
      proj_t[j * m + i] = idx->proj_[static_cast<size_t>(i) * d + j];
    }
  }
  std::vector<std::vector<double>> dots(m, std::vector<double>(n));
  std::vector<double> acc(m);
  for (size_t p = 0; p < n; ++p) {
    auto pt = data.point(static_cast<PointId>(p));
    std::fill(acc.begin(), acc.end(), 0.0);
    for (size_t j = 0; j < d; ++j) {
      const double x = pt[j];
      const double* a = proj_t.data() + j * m;
      for (uint32_t i = 0; i < m; ++i) acc[i] += a[i] * x;
    }
    for (uint32_t i = 0; i < m; ++i) dots[i][p] = acc[i];
  }
  double mean_abs = 0.0;
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < n; ++p) mean_abs += std::fabs(dots[i][p]);
  }
  mean_abs /= static_cast<double>(m) * n;

  idx->width_ = options.bucket_width;
  if (options.auto_scale_width) {
    // ~1/64 of the mean absolute projection: narrow enough that level 0
    // separates points, wide enough that virtual rehashing converges fast.
    idx->width_ = options.bucket_width * std::max(1e-9, mean_abs / 64.0);
  }

  for (uint32_t i = 0; i < m; ++i) {
    idx->shift_[i] = rng.NextDouble() * idx->width_;
  }

  // Key each function's points, sort the (key, id) pairs in one reused
  // buffer, then keep only the ids and the bucket directory.
  std::vector<Entry> entries(n);
  idx->ids_.resize(static_cast<size_t>(m) * n);
  idx->dirs_.resize(m);
  for (uint32_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < n; ++p) {
      const int64_t key = static_cast<int64_t>(
          std::floor((dots[i][p] + idx->shift_[i]) / idx->width_));
      entries[p] = {key, static_cast<PointId>(p)};
    }
    std::vector<double>().swap(dots[i]);
    std::sort(entries.begin(), entries.end());

    PointId* run = idx->ids_.data() + static_cast<size_t>(i) * n;
    Directory& dir = idx->dirs_[i];
    for (size_t e = 0; e < n; ++e) {
      run[e] = entries[e].id;
      if (e == 0 || entries[e].key != entries[e - 1].key) {
        dir.keys.push_back(entries[e].key);
        dir.starts.push_back(static_cast<uint32_t>(e));
      }
    }
    dir.starts.push_back(static_cast<uint32_t>(n));
    dir.keys.shrink_to_fit();
    dir.starts.shrink_to_fit();
  }

  *out = std::move(idx);
  return Status::OK();
}

int64_t C2Lsh::KeyFor(uint32_t func, std::span<const Scalar> p) const {
  // eeb-hot-begin(lsh-projection): the generation kernel's dot product —
  // runs m times per query over the full dimensionality; pure arithmetic.
  double dot = shift_[func];
  const double* a = proj_.data() + static_cast<size_t>(func) * dim_;
  for (size_t j = 0; j < dim_; ++j) dot += a[j] * p[j];
  return static_cast<int64_t>(std::floor(dot / width_));
  // eeb-hot-end
}

Status C2Lsh::Candidates(std::span<const Scalar> q, size_t k,
                         std::vector<PointId>* out,
                         storage::IoStats* stats) {
  if (q.size() != dim_) return Status::InvalidArgument("query dim mismatch");

  const uint32_t m = options_.num_functions;
  const uint32_t l = options_.collision_threshold;
  const int64_t c = static_cast<int64_t>(options_.approximation_ratio);
  const size_t want = std::min<size_t>(n_, k + options_.beta_candidates);

  // Reset this thread's scratch counters from its previous query.
  QueryScratch& scratch = Scratch(n_);
  uint8_t* const counts = scratch.counts.data();
  PointId* const touched = scratch.touched.data();
  size_t ntouched = 0;
  // Emitted candidates; trimmed to `emitted` once the search ends.
  out->resize(want);
  PointId* const cand = out->data();
  size_t emitted = 0;

  std::vector<int64_t> qkeys(m);
  for (uint32_t i = 0; i < m; ++i) qkeys[i] = KeyFor(i, q);

  // Covered key interval per function, inclusive; empty before level 0.
  std::vector<int64_t> lo(m), hi(m);
  bool first_level = true;
  uint64_t total_probes = 0;
  uint64_t total_entries = 0;
  uint64_t total_seq_pages = 0;

  int64_t bucket = 1;  // c^level
  uint32_t level = 0;
  for (; level < options_.max_levels; ++level) {
    for (uint32_t i = 0; i < m; ++i) {
      const int64_t idx = FloorDiv(qkeys[i], bucket);
      const int64_t new_lo = idx * bucket;
      const int64_t new_hi = new_lo + bucket - 1;

      // Ranges of keys covered for the first time at this level.
      struct Range {
        int64_t a, b;
      };
      Range fresh[2];
      int nfresh = 0;
      if (first_level) {
        fresh[nfresh++] = {new_lo, new_hi};
      } else {
        if (new_lo < lo[i]) fresh[nfresh++] = {new_lo, lo[i] - 1};
        if (new_hi > hi[i]) fresh[nfresh++] = {hi[i] + 1, new_hi};
      }
      lo[i] = new_lo;
      hi[i] = new_hi;

      // Offset within the run of the first entry whose key is >= `key`.
      const Directory& dir = dirs_[i];
      auto offset = [&dir](int64_t key) -> size_t {
        return dir.starts[static_cast<size_t>(
            std::lower_bound(dir.keys.begin(), dir.keys.end(), key) -
            dir.keys.begin())];
      };
      const PointId* run = ids_.data() + static_cast<size_t>(i) * n_;
      size_t entries_scanned = 0;
      for (int r = 0; r < nfresh; ++r) {
        const size_t begin = offset(fresh[r].a);
        const size_t end = offset(fresh[r].b + 1);
        entries_scanned += end - begin;
        // Once k + beta candidates are out this level ends the query, so no
        // later count can matter; the range is still charged below.
        if (emitted >= want) continue;
        // eeb-hot-begin(lsh-collision-count): one iteration per bucket
        // entry per query; a 4-byte id load and a branch-free count update.
        // Every id is stored at touched[ntouched] and kept only on its first
        // touch. Points crossing the collision threshold earliest (i.e. at
        // the smallest radius) are the most promising, so admission stops at
        // the k + beta target instead of admitting a whole cluster when one
        // level jump engulfs it.
        for (size_t e = begin; e < end; ++e) {
          const PointId id = run[e];
          const uint32_t count = counts[id] + 1u;
          touched[ntouched] = id;
          ntouched += (count == 1);
          counts[id] = static_cast<uint8_t>(count);
          if (count == l) [[unlikely]] {
            cand[emitted++] = id;
            if (emitted == want) break;
          }
        }
        // eeb-hot-end
      }

      // One random bucket-directory probe per function and level, plus the
      // id-list pages, which are scanned sequentially.
      const uint64_t seq_pages =
          (entries_scanned * kEntryBytes) / storage::kDefaultPageSize;
      total_probes += 1;
      total_entries += entries_scanned;
      total_seq_pages += seq_pages;
      if (stats != nullptr) {
        stats->page_reads += 1;
        stats->seq_page_reads += seq_pages;
        stats->bytes_read += entries_scanned * kEntryBytes;
      }
    }
    first_level = false;
    if (emitted >= want) break;
    if (bucket > (int64_t{1} << 60) / c) break;  // overflow guard
    bucket *= c;
  }
  scratch.ntouched = ntouched;
  out->resize(emitted);

  const double radius = width_ * static_cast<double>(bucket);
  last_radius_.store(radius, std::memory_order_relaxed);
  std::sort(out->begin(), out->end());
  if (obs_.queries != nullptr) {
    obs_.queries->Add(1);
    obs_.bucket_probes->Add(total_probes);
    obs_.entries_scanned->Add(total_entries);
    obs_.seq_page_reads->Add(total_seq_pages);
    obs_.candidates->Add(out->size());
    obs_.last_radius->Set(radius);
  }
  return Status::OK();
}

void C2Lsh::BindMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    obs_ = Instruments{};
    return;
  }
  obs_.queries = registry->GetCounter("lsh.queries");
  obs_.bucket_probes = registry->GetCounter("lsh.bucket_probes");
  obs_.entries_scanned = registry->GetCounter("lsh.entries_scanned");
  obs_.seq_page_reads = registry->GetCounter("lsh.seq_page_reads");
  obs_.candidates = registry->GetCounter("lsh.candidates");
  obs_.last_radius = registry->GetGauge("lsh.last_radius");
}

}  // namespace eeb::index
