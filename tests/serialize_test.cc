// Tests for fvecs dataset I/O, including corruption handling.

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/mem_env.h"
#include "workload/fvecs.h"

namespace eeb {
namespace {

TEST(FvecsTest, RoundTrip) {
  storage::MemEnv env;
  Dataset data(7);
  Rng rng(5);
  std::vector<Scalar> p(7);
  for (int i = 0; i < 40; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.NextGaussian());
    data.Append(p);
  }
  ASSERT_TRUE(workload::WriteFvecs(&env, "/d.fvecs", data).ok());

  Dataset loaded;
  ASSERT_TRUE(workload::ReadFvecs(&env, "/d.fvecs", &loaded).ok());
  ASSERT_EQ(loaded.size(), 40u);
  ASSERT_EQ(loaded.dim(), 7u);
  for (PointId id = 0; id < 40; ++id) {
    for (size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(loaded.point(id)[j], data.point(id)[j]);
    }
  }
}

TEST(FvecsTest, MaxVectorsTruncates) {
  storage::MemEnv env;
  Dataset data(3);
  std::vector<Scalar> p{1, 2, 3};
  for (int i = 0; i < 10; ++i) data.Append(p);
  ASSERT_TRUE(workload::WriteFvecs(&env, "/d", data).ok());
  Dataset loaded;
  ASSERT_TRUE(workload::ReadFvecs(&env, "/d", &loaded, 4).ok());
  EXPECT_EQ(loaded.size(), 4u);
}

TEST(FvecsTest, RejectsCorruptFiles) {
  storage::MemEnv env;
  std::unique_ptr<storage::WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/bad", &w).ok());
  const int32_t dim = 100;  // promises 100 floats, delivers none
  ASSERT_TRUE(
      w->Append(reinterpret_cast<const char*>(&dim), sizeof(dim)).ok());
  Dataset out;
  EXPECT_TRUE(workload::ReadFvecs(&env, "/bad", &out).IsCorruption());

  // Inconsistent dimensions.
  std::unique_ptr<storage::WritableFile> w2;
  ASSERT_TRUE(env.NewWritableFile("/mixed", &w2).ok());
  auto put_vec = [&](int32_t d) {
    ASSERT_TRUE(
        w2->Append(reinterpret_cast<const char*>(&d), sizeof(d)).ok());
    std::vector<float> v(d, 1.0f);
    ASSERT_TRUE(w2->Append(reinterpret_cast<const char*>(v.data()),
                           d * sizeof(float))
                    .ok());
  };
  put_vec(4);
  put_vec(6);
  EXPECT_TRUE(workload::ReadFvecs(&env, "/mixed", &out).IsCorruption());
}

TEST(FvecsTest, EmptyFileGivesEmptyDataset) {
  storage::MemEnv env;
  std::unique_ptr<storage::WritableFile> w;
  ASSERT_TRUE(env.NewWritableFile("/empty", &w).ok());
  Dataset out;
  ASSERT_TRUE(workload::ReadFvecs(&env, "/empty", &out).ok());
  EXPECT_EQ(out.size(), 0u);
}

}  // namespace
}  // namespace eeb
