// Parameterized property sweeps (TEST_P): histogram invariants across
// builder x bucket-count x domain, point-file round trips across page sizes
// and dimensionalities, bound validity across code lengths, and engine
// exactness across cache-method x tau.

#include <gtest/gtest.h>

#include <tuple>

#include "common/dataset.h"
#include "common/distance.h"
#include "common/random.h"
#include "cache/code_cache.h"
#include "core/system.h"
#include "hist/bounds.h"
#include "hist/builders.h"
#include "storage/mem_env.h"
#include "workload/generator.h"
#include "scoped_temp_dir.h"

namespace eeb {
namespace {

// ------------------------------------------------ histogram builder sweep --

using BuilderParam = std::tuple<hist::BuilderKind, uint32_t /*ndom*/,
                                uint32_t /*buckets*/>;

class HistogramBuilderP : public ::testing::TestWithParam<BuilderParam> {};

TEST_P(HistogramBuilderP, CoversDomainAndLookupConsistent) {
  const auto [kind, ndom, buckets] = GetParam();
  Rng rng(static_cast<uint64_t>(ndom) * 31 + buckets);
  hist::FrequencyArray f(ndom);
  for (uint32_t x = 0; x < ndom; ++x) {
    if (rng.Bernoulli(0.6)) f.Add(x, 1.0 + rng.Uniform(30));
  }

  hist::Histogram h;
  Status st;
  switch (kind) {
    case hist::BuilderKind::kEquiWidth:
      st = hist::BuildEquiWidth(ndom, buckets, &h);
      break;
    case hist::BuilderKind::kEquiDepth:
      st = hist::BuildEquiDepth(f, buckets, &h);
      break;
    case hist::BuilderKind::kVOptimal:
      st = hist::BuildVOptimal(f, buckets, &h);
      break;
    case hist::BuilderKind::kKnnOptimal:
      st = hist::BuildKnnOptimal(f, buckets, &h);
      break;
  }
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Invariants: tiling, bounded bucket count, total lookup.
  EXPECT_LE(h.num_buckets(), buckets);
  EXPECT_GE(h.num_buckets(), 1u);
  EXPECT_EQ(h.buckets().front().lo, 0u);
  EXPECT_EQ(h.buckets().back().hi, ndom - 1);
  for (uint32_t v = 0; v < ndom; ++v) {
    const hist::Bucket& b = h.bucket(h.Lookup(v));
    EXPECT_GE(v, b.lo);
    EXPECT_LE(v, b.hi);
  }
  // Code length fits the bucket count.
  EXPECT_LE(h.num_buckets(), 1u << h.code_length());
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, HistogramBuilderP,
    ::testing::Combine(
        ::testing::Values(hist::BuilderKind::kEquiWidth,
                          hist::BuilderKind::kEquiDepth,
                          hist::BuilderKind::kVOptimal,
                          hist::BuilderKind::kKnnOptimal),
        ::testing::Values(16u, 64u, 256u),
        ::testing::Values(2u, 8u, 32u, 256u)));

// ---------------------------------------------------- point file sweep ----

using FileParam = std::tuple<size_t /*page*/, size_t /*dim*/, size_t /*n*/>;

class PointFileP : public ::testing::TestWithParam<FileParam> {};

TEST_P(PointFileP, RoundTripAndIoAccounting) {
  const auto [page, dim, n] = GetParam();
  Rng rng(page * 131 + dim);
  Dataset data(dim);
  std::vector<Scalar> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(1024));
    data.Append(p);
  }

  storage::MemEnv env;
  ASSERT_TRUE(storage::PointFile::Create(&env, "/pf", data, page).ok());
  std::unique_ptr<storage::PointFile> pf;
  ASSERT_TRUE(storage::PointFile::Open(&env, "/pf", &pf).ok());
  EXPECT_EQ(pf->page_size(), page);

  std::vector<Scalar> buf(dim);
  storage::IoStats stats;
  for (PointId id = 0; id < n; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, &stats, nullptr).ok());
    auto expect = data.point(id);
    for (size_t j = 0; j < dim; ++j) ASSERT_EQ(buf[j], expect[j]);
  }
  EXPECT_EQ(stats.point_reads, n);
  const size_t rec = dim * sizeof(Scalar);
  const size_t pages_per_point = rec <= page ? 1 : (rec + page - 1) / page;
  EXPECT_EQ(stats.page_reads, n * pages_per_point);
}

INSTANTIATE_TEST_SUITE_P(
    PagesDims, PointFileP,
    ::testing::Combine(::testing::Values(size_t{512}, size_t{4096},
                                         size_t{16384}),
                       ::testing::Values(size_t{4}, size_t{96}, size_t{960}),
                       ::testing::Values(size_t{33})));

// ------------------------------------------------------ bounds tau sweep --

class BoundsTauP : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BoundsTauP, SandwichHoldsForEveryTau) {
  const uint32_t tau = GetParam();
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(1024, 1u << tau, &h).ok());
  Rng rng(tau * 1234567);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t d = 1 + rng.Uniform(64);
    std::vector<Scalar> p(d), q(d);
    for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(1024));
    for (auto& v : q) v = static_cast<Scalar>(rng.Uniform(1024));
    std::vector<BucketId> codes(d);
    cache::EncodeGlobal(h, p, codes);
    const double dist = L2(q, p);
    for (bool integral : {false, true}) {
      double lb, ub;
      hist::CodeBoundsGlobal(h, q, codes, &lb, &ub, integral);
      ASSERT_LE(lb, dist + 1e-9) << "tau=" << tau;
      ASSERT_GE(ub, dist - 1e-9) << "tau=" << tau;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, BoundsTauP,
                         ::testing::Values(1u, 2u, 4u, 6u, 8u, 10u));

// ------------------------------------------ engine exactness method sweep --

using CellParam = std::tuple<core::CacheMethod, uint32_t /*tau*/>;

class EngineCellP : public ::testing::TestWithParam<CellParam> {
 protected:
  static void SetUpTestSuite() {
    tmp_ = new ScopedTempDir("eeb_param_sys");
    ASSERT_TRUE(tmp_->ok());
    workload::DatasetSpec dspec;
    dspec.n = 4000;
    dspec.dim = 24;
    dspec.ndom = 256;
    dspec.clusters = 8;
    dspec.seed = 99;
    data_ = new Dataset(workload::GenerateClustered(dspec));
    workload::QueryLogSpec qspec;
    qspec.pool_size = 40;
    qspec.workload_size = 120;
    qspec.test_size = 12;
    log_ = new workload::QueryLog(workload::GenerateQueryLog(*data_, qspec));

    core::SystemOptions opt;
    opt.lsh.beta_candidates = 120;
    std::unique_ptr<core::System> sys;
    ASSERT_TRUE(core::System::Create(storage::Env::Default(), tmp_->path(),
                                     *data_, log_->workload, opt, &sys)
                    .ok());
    system_ = sys.release();

    // Reference result ids without any cache.
    ASSERT_TRUE(system_->ConfigureCache(core::CacheMethod::kNone, 0).ok());
    reference_ = new std::vector<std::vector<PointId>>();
    for (const auto& q : log_->test) {
      core::QueryResult r;
      ASSERT_TRUE(system_->Query(q, 10, &r).ok());
      reference_->push_back(r.result_ids);
    }
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete system_;
    delete log_;
    delete data_;
    delete tmp_;
  }

  // A failed ASSERT in SetUpTestSuite only returns from it; fail each case
  // here instead of dereferencing a system that was never built.
  void SetUp() override {
    ASSERT_TRUE(system_ != nullptr && reference_ != nullptr &&
                reference_->size() == log_->test.size())
        << "suite setup failed before the system and its NO-CACHE reference "
           "were built; see the SetUpTestSuite failure above";
  }

  static ScopedTempDir* tmp_;
  static Dataset* data_;
  static workload::QueryLog* log_;
  static core::System* system_;
  static std::vector<std::vector<PointId>>* reference_;
};

ScopedTempDir* EngineCellP::tmp_ = nullptr;
Dataset* EngineCellP::data_ = nullptr;
workload::QueryLog* EngineCellP::log_ = nullptr;
core::System* EngineCellP::system_ = nullptr;
std::vector<std::vector<PointId>>* EngineCellP::reference_ = nullptr;

TEST_P(EngineCellP, CachedResultsEqualReference) {
  const auto [method, tau] = GetParam();
  ASSERT_TRUE(system_->ConfigureCache(method, 60000, tau).ok());
  for (size_t i = 0; i < log_->test.size(); ++i) {
    core::QueryResult r;
    ASSERT_TRUE(system_->Query(log_->test[i], 10, &r).ok());
    EXPECT_EQ(r.result_ids, (*reference_)[i])
        << core::CacheMethodName(method) << " tau=" << tau << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByTau, EngineCellP,
    ::testing::Combine(
        ::testing::Values(core::CacheMethod::kExact, core::CacheMethod::kHcW,
                          core::CacheMethod::kHcV, core::CacheMethod::kHcM,
                          core::CacheMethod::kHcD,
                          core::CacheMethod::kHcO, core::CacheMethod::kIHcO,
                          core::CacheMethod::kMHcR, core::CacheMethod::kCVa),
        ::testing::Values(2u, 5u, 8u)));

}  // namespace
}  // namespace eeb
