// End-to-end tests of the System facade: every cache method returns the
// same results as NO-CACHE, histogram caches beat EXACT on refinement I/O,
// HC-O is the strongest pruner, the cost model picks sensible taus, the
// aggregate accounting is self-consistent, its percentiles are exact order
// statistics, and Create rejects data outside the value domain.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <vector>

#include "common/scoped_temp_dir.h"
#include "core/system.h"
#include "workload/generator.h"

namespace eeb::core {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tmp_ = new ScopedTempDir("eeb_system_test");
    ASSERT_TRUE(tmp_->ok());

    workload::DatasetSpec dspec;
    dspec.n = 6000;
    dspec.dim = 32;
    dspec.ndom = 256;
    dspec.clusters = 10;
    dspec.seed = 77;
    data_ = new Dataset(workload::GenerateClustered(dspec));

    workload::QueryLogSpec qspec;
    qspec.pool_size = 60;
    qspec.workload_size = 200;
    qspec.test_size = 25;
    log_ = new workload::QueryLog(workload::GenerateQueryLog(*data_, qspec));

    SystemOptions opt;
    opt.lsh.num_functions = 16;
    opt.lsh.collision_threshold = 8;
    opt.lsh.beta_candidates = 150;
    std::unique_ptr<System> sys;
    ASSERT_TRUE(System::Create(storage::Env::Default(), tmp_->path(), *data_,
                               log_->workload, opt, &sys)
                    .ok());
    system_ = sys.release();
  }

  static void TearDownTestSuite() {
    delete system_;
    delete log_;
    delete data_;
    delete tmp_;
  }

  // A failed ASSERT in SetUpTestSuite only returns from it; fail each case
  // here instead of dereferencing a system that was never built.
  void SetUp() override {
    ASSERT_NE(system_, nullptr)
        << "suite setup failed before the system was built; see the "
           "SetUpTestSuite failure above";
  }

  // Runs the test queries under a method and returns the aggregate.
  AggregateResult Run(CacheMethod method, size_t cache_bytes,
                      uint32_t tau = 0, bool lru = false) {
    EXPECT_TRUE(
        system_->ConfigureCache(method, cache_bytes, tau, lru).ok());
    AggregateResult agg;
    EXPECT_TRUE(system_->Serve(log_->test, 10, 1, &agg).ok());
    return agg;
  }

  // Builds a system over the suite's data with point 17, dimension 5 set to
  // `value`, in a fresh directory named `name`. A rejection must come
  // before the point file is written.
  static Status CreateWithValue(const std::string& name, Scalar value,
                                uint32_t ndom = 256, bool integral = true) {
    Dataset data = *data_;
    data.mutable_point(17)[5] = value;
    const std::string dir = tmp_->File(name);
    std::filesystem::create_directories(dir);
    SystemOptions opt;
    opt.ndom = ndom;
    opt.integral_values = integral;
    std::unique_ptr<System> sys;
    const Status st = System::Create(storage::Env::Default(), dir, data,
                                     log_->workload, opt, &sys);
    if (!st.ok()) {
      EXPECT_FALSE(std::filesystem::exists(dir + "/points.eeb")) << name;
    }
    return st;
  }

  static ScopedTempDir* tmp_;
  static Dataset* data_;
  static workload::QueryLog* log_;
  static System* system_;
};

ScopedTempDir* SystemTest::tmp_ = nullptr;
Dataset* SystemTest::data_ = nullptr;
workload::QueryLog* SystemTest::log_ = nullptr;
System* SystemTest::system_ = nullptr;

constexpr size_t kCacheBytes = 150000;  // ~20% of 6000*32*4 = 768 KB

TEST_F(SystemTest, AllMethodsReturnIdenticalResults) {
  // Reference: NO-CACHE result ids per query.
  ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kNone, 0).ok());
  std::vector<std::vector<PointId>> reference;
  for (const auto& q : log_->test) {
    QueryResult r;
    ASSERT_TRUE(system_->Query(q, 10, &r).ok());
    reference.push_back(r.result_ids);
  }

  for (CacheMethod m :
       {CacheMethod::kExact, CacheMethod::kHcW, CacheMethod::kHcV,
        CacheMethod::kHcD, CacheMethod::kHcO, CacheMethod::kIHcW,
        CacheMethod::kIHcD, CacheMethod::kIHcO, CacheMethod::kMHcR,
        CacheMethod::kCVa}) {
    ASSERT_TRUE(system_->ConfigureCache(m, kCacheBytes).ok()) << (int)m;
    for (size_t i = 0; i < log_->test.size(); ++i) {
      QueryResult r;
      ASSERT_TRUE(system_->Query(log_->test[i], 10, &r).ok());
      EXPECT_EQ(r.result_ids, reference[i])
          << CacheMethodName(m) << " changed results of query " << i;
    }
  }
}

TEST_F(SystemTest, HistogramCachesReduceIoVersusExact) {
  const auto exact = Run(CacheMethod::kExact, kCacheBytes);
  const auto hco = Run(CacheMethod::kHcO, kCacheBytes);
  const auto hcd = Run(CacheMethod::kHcD, kCacheBytes);
  EXPECT_LT(hco.avg_fetched, exact.avg_fetched)
      << "HC-O must fetch fewer candidates than EXACT caching";
  EXPECT_LT(hcd.avg_fetched, exact.avg_fetched);
  EXPECT_GT(hco.hit_ratio, exact.hit_ratio)
      << "compact codes fit more items -> higher hit ratio";
}

TEST_F(SystemTest, EstimateCurrentCacheMatchesConfiguredMethod) {
  // Unconfigured (NO-CACHE): invalid argument.
  ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kNone, 0).ok());
  CostEstimate est;
  EXPECT_TRUE(system_->EstimateCurrentCache(10, &est).IsInvalidArgument());

  // EXACT: every hit fully resolved.
  const auto exact = Run(CacheMethod::kExact, kCacheBytes);
  ASSERT_TRUE(system_->EstimateCurrentCache(10, &est).ok());
  EXPECT_DOUBLE_EQ(est.prune_ratio, 1.0);
  EXPECT_GT(est.hit_ratio, 0.0);
  EXPECT_LE(est.expected_crefine,
            system_->workload_stats().avg_candidates + 1e-9);

  // Global histogram: the estimate reuses the retained build histogram and
  // should land in the same ballpark as the measurement (the model is an
  // estimate, not a bound; generous tolerances).
  const auto hco = Run(CacheMethod::kHcO, kCacheBytes);
  ASSERT_TRUE(system_->EstimateCurrentCache(10, &est).ok());
  EXPECT_GT(est.hit_ratio, 0.0);
  EXPECT_LE(est.hit_ratio, 1.0);
  const ModelValidation v = ValidateEstimate(est, hco.hit_ratio,
                                             hco.prune_ratio,
                                             hco.avg_remaining);
  EXPECT_LT(v.hit_error, 0.5);
  EXPECT_LT(v.crefine_rel_error, 2.0);

  // Per-dimension / multi-dim caches: no single-histogram estimator.
  (void)Run(CacheMethod::kIHcO, kCacheBytes);
  EXPECT_TRUE(system_->EstimateCurrentCache(10, &est).IsNotSupported());
  (void)exact;
}

TEST_F(SystemTest, HcoIsBestGlobalHistogramAtEqualTau) {
  // Compare histogram quality at the same code length (auto-tuned taus may
  // differ per method; the paper's Table 4 also notes the cost-model
  // default is not always the measured optimum).
  const uint32_t tau = 5;
  const auto hcw = Run(CacheMethod::kHcW, kCacheBytes, tau);
  const auto hcv = Run(CacheMethod::kHcV, kCacheBytes, tau);
  const auto hcd = Run(CacheMethod::kHcD, kCacheBytes, tau);
  const auto hco = Run(CacheMethod::kHcO, kCacheBytes, tau);
  EXPECT_LE(hco.avg_fetched, hcd.avg_fetched * 1.15)
      << "HC-O should be at least on par with HC-D";
  EXPECT_LE(hco.avg_fetched, hcw.avg_fetched * 1.15);
  EXPECT_LE(hco.avg_fetched, hcv.avg_fetched * 1.15);
}

TEST_F(SystemTest, MhcRIsIneffective) {
  const auto mhcr = Run(CacheMethod::kMHcR, kCacheBytes);
  const auto hco = Run(CacheMethod::kHcO, kCacheBytes);
  EXPECT_GT(mhcr.avg_fetched, hco.avg_fetched)
      << "curse of dimensionality: mHC-R prunes worse than HC-O";
}

TEST_F(SystemTest, NoCacheFetchesEverything) {
  const auto none = Run(CacheMethod::kNone, 0);
  EXPECT_DOUBLE_EQ(none.hit_ratio, 0.0);
  EXPECT_NEAR(none.avg_remaining, none.avg_candidates, 1e-9);
}

TEST_F(SystemTest, AggregateAccountingConsistent) {
  const auto agg = Run(CacheMethod::kHcO, kCacheBytes);
  EXPECT_GT(agg.avg_candidates, 0.0);
  EXPECT_LE(agg.avg_fetched, agg.avg_remaining + 1e-9);
  EXPECT_LE(agg.avg_remaining, agg.avg_candidates + 1e-9);
  EXPECT_GE(agg.hit_ratio, 0.0);
  EXPECT_LE(agg.hit_ratio, 1.0);
  EXPECT_NEAR(agg.avg_response_seconds,
              agg.avg_gen_seconds + agg.avg_refine_seconds, 1e-12);
}

TEST_F(SystemTest, BatchPercentilesAreExactOrderStatistics) {
  ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kHcO, kCacheBytes).ok());
  AggregateResult agg;
  std::vector<QueryResult> per_query;
  ASSERT_TRUE(system_->Serve(log_->test, 10, 1, &agg, &per_query).ok());
  // Each query's modeled response: measured time plus the disk model over
  // its page counts. The batch reports the nearest-rank statistic, index
  // floor(p * (n - 1)) of the sorted responses, not a histogram bucket.
  std::vector<double> responses;
  for (const QueryResult& r : per_query) {
    storage::IoStats io = r.gen_io;
    io += r.refine_io;
    responses.push_back(r.query_seconds() +
                        system_->disk_model().Seconds(io));
  }
  std::sort(responses.begin(), responses.end());
  auto rank = [&responses](double p) {
    return responses[static_cast<size_t>(
        p * static_cast<double>(responses.size() - 1))];
  };
  EXPECT_DOUBLE_EQ(agg.p50_response_seconds, rank(0.50));
  EXPECT_DOUBLE_EQ(agg.p95_response_seconds, rank(0.95));
  EXPECT_DOUBLE_EQ(agg.p99_response_seconds, rank(0.99));
  EXPECT_LT(agg.p50_response_seconds, agg.p99_response_seconds);
}

TEST_F(SystemTest, AutoTauWithinRange) {
  for (CacheMethod m : {CacheMethod::kHcW, CacheMethod::kHcD,
                        CacheMethod::kHcO}) {
    const uint32_t tau = system_->AutoTau(m, kCacheBytes, 10);
    EXPECT_GE(tau, 1u);
    EXPECT_LE(tau, system_->lvalue());
  }
}

TEST_F(SystemTest, ConfigureReportsHistogramCosts) {
  ASSERT_TRUE(
      system_->ConfigureCache(CacheMethod::kHcO, kCacheBytes, 6).ok());
  EXPECT_EQ(system_->last_tau(), 6u);
  EXPECT_EQ(system_->last_histogram_space_bytes(), 64u * 2 * 4);
  EXPECT_GT(system_->last_histogram_build_seconds(), 0.0);
}

TEST_F(SystemTest, LruModeWorksAndWarmsUp) {
  ASSERT_TRUE(
      system_->ConfigureCache(CacheMethod::kHcO, kCacheBytes, 6, true).ok());
  QueryResult cold, warm;
  ASSERT_TRUE(system_->Query(log_->test[0], 10, &cold).ok());
  ASSERT_TRUE(system_->Query(log_->test[0], 10, &warm).ok());
  EXPECT_EQ(cold.result_ids, warm.result_ids);
  EXPECT_GE(warm.cache_hits, cold.cache_hits);
}

TEST_F(SystemTest, CVaCachesWholeDataset) {
  ASSERT_TRUE(
      system_->ConfigureCache(CacheMethod::kCVa, kCacheBytes).ok());
  EXPECT_EQ(system_->cache()->size(), data_->size())
      << "C-VA must hold an approximation of every point";
}

TEST_F(SystemTest, CreateRejectsValuesAtOrAboveNdomAndNonFinite) {
  const Status at = CreateWithValue("at_ndom", 256.0f);
  EXPECT_TRUE(at.IsInvalidArgument()) << at.ToString();
  EXPECT_NE(at.ToString().find("point 17, dimension 5: value 256 is outside "
                               "the value domain [0, 256)"),
            std::string::npos)
      << at.ToString();
  // An ndom below the data's max: cluster centers lie in [38, 218).
  EXPECT_TRUE(CreateWithValue("small_ndom", 50.0f, /*ndom=*/100)
                  .IsInvalidArgument());
  const Scalar inf = std::numeric_limits<Scalar>::infinity();
  for (const Scalar bad :
       {1000.0f, std::numeric_limits<Scalar>::quiet_NaN(), inf, -inf}) {
    const Status st = CreateWithValue("non_finite", bad);
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << ": " << st.ToString();
  }
}

TEST_F(SystemTest, CreateRejectsNegativeValues) {
  for (const Scalar bad : {-1.0f, -128.0f, -0.5f}) {
    const Status st = CreateWithValue("negative", bad);
    EXPECT_TRUE(st.IsInvalidArgument()) << bad << ": " << st.ToString();
    EXPECT_NE(st.ToString().find("outside the value domain"),
              std::string::npos)
        << st.ToString();
  }
}

TEST_F(SystemTest, CreateRejectsFractionalValuesUnderIntegralValues) {
  const Status st = CreateWithValue("fractional", 10.5f);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("point 17, dimension 5: value 10.5 is not an "
                               "integer"),
            std::string::npos)
      << st.ToString();
  // Without the integral promise the same value is in the domain.
  EXPECT_TRUE(
      CreateWithValue("real_valued", 10.5f, 256, /*integral=*/false).ok());
}

TEST_F(SystemTest, OrderingVariantsProduceSameResults) {
  // Fig. 9 precondition: physical ordering affects I/O only, not answers.
  for (FileOrdering ord :
       {FileOrdering::kClustered, FileOrdering::kSortedKey}) {
    const std::string d2 = tmp_->File("ord" + std::to_string((int)ord));
    std::filesystem::create_directories(d2);
    SystemOptions opt;
    opt.lsh.num_functions = 16;
    opt.lsh.collision_threshold = 8;
    opt.lsh.beta_candidates = 150;
    opt.ordering = ord;
    std::unique_ptr<System> sys2;
    ASSERT_TRUE(System::Create(storage::Env::Default(), d2, *data_,
                               log_->workload, opt, &sys2)
                    .ok());
    ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kNone, 0).ok());
    ASSERT_TRUE(sys2->ConfigureCache(CacheMethod::kNone, 0).ok());
    for (size_t i = 0; i < 5; ++i) {
      QueryResult a, b;
      ASSERT_TRUE(system_->Query(log_->test[i], 10, &a).ok());
      ASSERT_TRUE(sys2->Query(log_->test[i], 10, &b).ok());
      EXPECT_EQ(a.result_ids, b.result_ids);
    }
  }
}

}  // namespace
}  // namespace eeb::core
