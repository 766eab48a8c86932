// Tests for histogram serialization and fvecs dataset I/O, including
// corruption handling.

#include <gtest/gtest.h>

#include "common/random.h"
#include "hist/builders.h"
#include "hist/serialize.h"
#include "storage/mem_env.h"
#include "workload/fvecs.h"

namespace eeb {
namespace {

TEST(HistSerializeTest, RoundTripBuffer) {
  hist::FrequencyArray f(128);
  Rng rng(3);
  for (uint32_t x = 0; x < 128; ++x) f.Add(x, 1.0 + rng.Uniform(20));
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildKnnOptimal(f, 16, &h).ok());

  std::string blob;
  hist::AppendHistogram(h, &blob);
  std::string_view view(blob);
  hist::Histogram parsed;
  ASSERT_TRUE(hist::ParseHistogram(&view, &parsed).ok());
  EXPECT_TRUE(view.empty());
  ASSERT_EQ(parsed.num_buckets(), h.num_buckets());
  for (uint32_t v = 0; v < 128; ++v) {
    EXPECT_EQ(parsed.Lookup(v), h.Lookup(v));
  }
}

TEST(HistSerializeTest, RoundTripFile) {
  storage::MemEnv env;
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(256, 32, &h).ok());
  ASSERT_TRUE(hist::SaveHistogram(&env, "/h", h).ok());
  hist::Histogram loaded;
  ASSERT_TRUE(hist::LoadHistogram(&env, "/h", &loaded).ok());
  EXPECT_EQ(loaded.num_buckets(), 32u);
  EXPECT_EQ(loaded.ndom(), 256u);
}

TEST(HistSerializeTest, IndividualBundleRoundTrip) {
  std::vector<hist::FrequencyArray> freqs(5, hist::FrequencyArray(64));
  hist::IndividualHistograms hs;
  ASSERT_TRUE(
      hist::BuildIndividual(freqs, 8, hist::BuilderKind::kEquiWidth, &hs)
          .ok());
  std::string blob;
  hist::AppendIndividual(hs, &blob);
  std::string_view view(blob);
  hist::IndividualHistograms parsed;
  ASSERT_TRUE(hist::ParseIndividual(&view, &parsed).ok());
  ASSERT_EQ(parsed.dim(), 5u);
  EXPECT_EQ(parsed.at(2).num_buckets(), hs.at(2).num_buckets());
}

TEST(HistSerializeTest, RejectsCorruptBlobs) {
  hist::Histogram h;
  ASSERT_TRUE(hist::BuildEquiWidth(64, 8, &h).ok());
  std::string blob;
  hist::AppendHistogram(h, &blob);

  // Truncation.
  std::string_view shorty(blob.data(), blob.size() - 5);
  hist::Histogram out;
  EXPECT_TRUE(hist::ParseHistogram(&shorty, &out).IsCorruption());

  // Bad magic.
  std::string bad = blob;
  bad[0] = 'x';
  std::string_view badview(bad);
  EXPECT_TRUE(hist::ParseHistogram(&badview, &out).IsCorruption());

  // Corrupt interval (break the tiling): Create() must refuse.
  std::string evil = blob;
  evil[12] = static_cast<char>(evil[12] + 1);  // first bucket's lo
  std::string_view evilview(evil);
  EXPECT_FALSE(hist::ParseHistogram(&evilview, &out).ok());

  // Counts read from the blob must not size an allocation the blob cannot
  // back: a 12-byte blob claiming 2^32 - 1 buckets over a 2^32 - 1 domain,
  // and an 8-byte bundle claiming 2^32 - 1 dimensions.
  auto u32 = [](uint32_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  std::string huge = blob.substr(0, 4) + u32(0xffffffffu) + u32(0xffffffffu);
  std::string_view hugeview(huge);
  EXPECT_TRUE(hist::ParseHistogram(&hugeview, &out).IsCorruption());

  std::string bundle;
  hist::AppendIndividual(hist::IndividualHistograms({h}), &bundle);
  std::string wide = bundle.substr(0, 4) + u32(0xffffffffu);
  std::string_view wideview(wide);
  hist::IndividualHistograms parsed;
  EXPECT_TRUE(hist::ParseIndividual(&wideview, &parsed).IsCorruption());
}

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
