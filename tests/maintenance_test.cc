// Tests for the Sec. 3.5 maintenance machinery: drift metric, epoch-driven
// rebuilds, and System::RefreshWorkload / ReconfigureCache.

#include <gtest/gtest.h>

#include "core/maintenance.h"
#include "workload/generator.h"
#include "scoped_temp_dir.h"

namespace eeb::core {
namespace {

TEST(DriftTest, IdenticalDistributionsHaveZeroDrift) {
  hist::FrequencyArray a(16), b(16);
  for (uint32_t x = 0; x < 16; ++x) {
    a.Add(x, x + 1.0);
    b.Add(x, 2.0 * (x + 1.0));  // scaled, same shape
  }
  EXPECT_NEAR(DistributionDrift(a, b), 0.0, 1e-12);
}

TEST(DriftTest, DisjointDistributionsHaveDriftOne) {
  hist::FrequencyArray a(16), b(16);
  a.Add(0, 10.0);
  b.Add(15, 10.0);
  EXPECT_NEAR(DistributionDrift(a, b), 1.0, 1e-12);
}

TEST(DriftTest, EmptyCountsAsUniform) {
  hist::FrequencyArray a(4), b(4);
  for (uint32_t x = 0; x < 4; ++x) b.Add(x, 1.0);
  EXPECT_NEAR(DistributionDrift(a, b), 0.0, 1e-12);
}

TEST(DriftTest, SymmetricAndBounded) {
  hist::FrequencyArray a(32), b(32);
  a.Add(3, 5.0);
  a.Add(20, 1.0);
  b.Add(3, 1.0);
  b.Add(29, 7.0);
  const double d1 = DistributionDrift(a, b);
  const double d2 = DistributionDrift(b, a);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_GT(d1, 0.0);
  EXPECT_LE(d1, 1.0);
}

class MaintainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(tmp_.ok());

    workload::DatasetSpec dspec;
    dspec.n = 5000;
    dspec.dim = 16;
    dspec.ndom = 256;
    dspec.clusters = 8;
    dspec.seed = 11;
    data_ = workload::GenerateClustered(dspec);

    // Two disjoint query pools: epochs drawn from pool A vs pool B have a
    // very different near-result distribution.
    workload::QueryLogSpec qa;
    qa.pool_size = 30;
    qa.workload_size = 150;
    qa.seed = 21;
    log_a_ = workload::GenerateQueryLog(data_, qa);
    workload::QueryLogSpec qb = qa;
    qb.seed = 99;  // different pool
    log_b_ = workload::GenerateQueryLog(data_, qb);

    core::SystemOptions opt;
    opt.lsh.beta_candidates = 100;
    ASSERT_TRUE(System::Create(storage::Env::Default(), tmp_.path(), data_,
                               log_a_.workload, opt, &system_)
                    .ok());
    ASSERT_TRUE(
        system_->ConfigureCache(CacheMethod::kHcO, 50000).ok());
  }

  ScopedTempDir tmp_{"eeb_maint"};
  Dataset data_;
  workload::QueryLog log_a_;
  workload::QueryLog log_b_;
  std::unique_ptr<System> system_;
};

TEST_F(MaintainerTest, StableWorkloadDoesNotRebuild) {
  CacheMaintainer maint(system_.get(), {.rebuild_threshold = 0.15});
  ASSERT_TRUE(maint.EndEpoch(log_a_.workload).ok());
  EXPECT_EQ(maint.rebuilds(), 0u) << "drift " << maint.last_drift();
  EXPECT_LT(maint.last_drift(), 0.15);
}

TEST_F(MaintainerTest, ShiftedWorkloadTriggersRebuild) {
  CacheMaintainer maint(system_.get(), {.rebuild_threshold = 0.15});
  ASSERT_TRUE(maint.EndEpoch(log_b_.workload).ok());
  EXPECT_EQ(maint.rebuilds(), 1u) << "drift " << maint.last_drift();
  EXPECT_GT(maint.last_drift(), 0.15);

  // After the rebuild the active stats match epoch B: a repeat of the same
  // epoch must not rebuild again.
  ASSERT_TRUE(maint.EndEpoch(log_b_.workload).ok());
  EXPECT_EQ(maint.rebuilds(), 1u);
  EXPECT_EQ(maint.epochs(), 2u);
}

TEST_F(MaintainerTest, RebuildImprovesHitRatioOnNewWorkload) {
  // Serving epoch-B queries with the epoch-A cache vs after maintenance.
  AggregateResult before;
  ASSERT_TRUE(system_->Serve(log_b_.test, 10, 1, &before).ok());

  CacheMaintainer maint(system_.get(), {.rebuild_threshold = 0.15});
  ASSERT_TRUE(maint.EndEpoch(log_b_.workload).ok());
  ASSERT_EQ(maint.rebuilds(), 1u);

  AggregateResult after;
  ASSERT_TRUE(system_->Serve(log_b_.test, 10, 1, &after).ok());
  EXPECT_GT(after.hit_ratio, before.hit_ratio)
      << "rebuilt HFF content should serve the new workload better";
}

TEST_F(MaintainerTest, ResultsStayCorrectAcrossRebuilds) {
  ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kNone, 0).ok());
  QueryResult reference;
  ASSERT_TRUE(system_->Query(log_b_.test[0], 10, &reference).ok());

  ASSERT_TRUE(system_->ConfigureCache(CacheMethod::kHcO, 50000).ok());
  CacheMaintainer maint(system_.get(), {.rebuild_threshold = 0.0});
  ASSERT_TRUE(maint.EndEpoch(log_b_.workload).ok());
  QueryResult after;
  ASSERT_TRUE(system_->Query(log_b_.test[0], 10, &after).ok());
  EXPECT_EQ(after.result_ids, reference.result_ids);
}

TEST_F(MaintainerTest, HistoryBlendingKeepsOldHotPoints) {
  // With decay, a rebuild after the shift still ranks epoch-A hot points
  // above never-seen points, so a return to workload A finds warm content.
  CacheMaintainer plain(system_.get(), {.rebuild_threshold = 0.0,
                                        .history_decay = 0.0});
  ASSERT_TRUE(plain.EndEpoch(log_b_.workload).ok());
  AggregateResult back_plain;
  ASSERT_TRUE(system_->Serve(log_a_.test, 10, 1, &back_plain).ok());

  // Reset to the A-built state, then maintain with history.
  ASSERT_TRUE(system_->RefreshWorkload(log_a_.workload).ok());
  ASSERT_TRUE(system_->ReconfigureCache().ok());
  CacheMaintainer blended(system_.get(), {.rebuild_threshold = 0.0,
                                          .history_decay = 0.8});
  ASSERT_TRUE(blended.EndEpoch(log_a_.workload).ok());
  ASSERT_TRUE(blended.EndEpoch(log_b_.workload).ok());
  AggregateResult back_blended;
  ASSERT_TRUE(system_->Serve(log_a_.test, 10, 1, &back_blended).ok());

  EXPECT_GE(back_blended.hit_ratio, back_plain.hit_ratio)
      << "history blending should not serve returning workloads worse";
  // Epoch A matches the active stats exactly (drift 0), so only the B
  // epoch rebuilds.
  EXPECT_EQ(blended.rebuilds(), 1u);
  EXPECT_EQ(blended.epochs(), 2u);
}

TEST_F(MaintainerTest, SetWorkloadStatsValidates) {
  WorkloadStats bad;
  bad.freq.assign(3, 1.0);  // wrong size
  hist::FrequencyArray f(system_->options().ndom);
  EXPECT_TRUE(system_->SetWorkloadStats(bad, f).IsInvalidArgument());
  hist::FrequencyArray wrong_dom(16);
  WorkloadStats ok_stats = system_->workload_stats();
  EXPECT_TRUE(
      system_->SetWorkloadStats(ok_stats, wrong_dom).IsInvalidArgument());
}

}  // namespace
}  // namespace eeb::core
