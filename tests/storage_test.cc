// Tests for the storage substrate: Env, PointFile (orderings, padding,
// multi-page records), I/O accounting, file orderings.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>

#include "common/dataset.h"
#include "common/random.h"
#include "common/scoped_temp_dir.h"
#include "storage/env.h"
#include "storage/file_ordering.h"
#include "storage/io_stats.h"
#include "storage/point_file.h"

namespace eeb::storage {
namespace {

// Every case's files live in one directory private to this process.
std::string TempPath(const std::string& name) {
  static const ScopedTempDir dir("eeb_test");
  EXPECT_TRUE(dir.ok()) << "could not create a temp directory";
  return dir.File(name);
}

Dataset RandomData(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.Uniform(256));
    d.Append(p);
  }
  return d;
}

// -------------------------------------------------------------------- Env --

TEST(EnvTest, WriteThenReadBack) {
  const std::string path = TempPath("env_rw");
  Env* env = Env::Default();
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(path, &w).ok());
  const std::string payload = "hello point file";
  ASSERT_TRUE(w->Append(payload.data(), payload.size()).ok());
  EXPECT_EQ(w->Offset(), payload.size());
  ASSERT_TRUE(w->Close().ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &r).ok());
  EXPECT_EQ(r->Size(), payload.size());
  std::string buf(5, '\0');
  ASSERT_TRUE(r->Read(6, 5, buf.data()).ok());
  EXPECT_EQ(buf, "point");
  ASSERT_TRUE(env->DeleteFile(path).ok());
  EXPECT_FALSE(env->FileExists(path));
}

TEST(EnvTest, MissingFileIsIOError) {
  std::unique_ptr<RandomAccessFile> r;
  EXPECT_TRUE(Env::Default()
                  ->NewRandomAccessFile("/nonexistent/definitely/gone", &r)
                  .IsIOError());
}

TEST(EnvTest, ShortReadIsIOError) {
  const std::string path = TempPath("env_short");
  Env* env = Env::Default();
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append("abc", 3).ok());
  ASSERT_TRUE(w->Close().ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &r).ok());
  char buf[10];
  EXPECT_TRUE(r->Read(0, 10, buf).IsIOError());
  env->DeleteFile(path).IgnoreError();
}

// -------------------------------------------------------------- PointFile --

TEST(PointFileTest, RoundTripRawOrder) {
  const std::string path = TempPath("pf_raw");
  Dataset data = RandomData(100, 16, 61);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());

  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  EXPECT_EQ(pf->size(), 100u);
  EXPECT_EQ(pf->dim(), 16u);

  std::vector<Scalar> buf(16);
  for (PointId id = 0; id < 100; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).ok());
    auto expect = data.point(id);
    for (size_t j = 0; j < 16; ++j) EXPECT_EQ(buf[j], expect[j]);
  }
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, RoundTripPermutedOrder) {
  const std::string path = TempPath("pf_perm");
  Dataset data = RandomData(50, 8, 67);
  // Reverse permutation.
  std::vector<PointId> order(50);
  for (size_t i = 0; i < 50; ++i) order[i] = static_cast<PointId>(49 - i);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data, order).ok());

  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  std::vector<Scalar> buf(8);
  for (PointId id = 0; id < 50; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).ok());
    auto expect = data.point(id);
    for (size_t j = 0; j < 8; ++j) EXPECT_EQ(buf[j], expect[j]);
  }
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, PaddingSlotsSkipped) {
  const std::string path = TempPath("pf_pad");
  Dataset data = RandomData(10, 4, 71);
  std::vector<PointId> order;
  for (PointId id = 0; id < 10; ++id) {
    order.push_back(id);
    order.push_back(kInvalidPointId);  // padding after every point
  }
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data, order).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  std::vector<Scalar> buf(4);
  for (PointId id = 0; id < 10; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).ok());
    EXPECT_EQ(buf[0], data.point(id)[0]);
  }
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, MultiPageRecords) {
  const std::string path = TempPath("pf_big");
  // 2000-dim floats = 8000 bytes > 4096 page: each record spans 2 pages.
  Dataset data = RandomData(5, 2000, 73);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  EXPECT_EQ(pf->points_per_page(), 0u);

  std::vector<Scalar> buf(2000);
  IoStats stats;
  ASSERT_TRUE(pf->ReadPoint(3, buf, &stats, nullptr).ok());
  EXPECT_EQ(stats.point_reads, 1u);
  EXPECT_EQ(stats.page_reads, 2u);
  for (size_t j = 0; j < 2000; ++j) EXPECT_EQ(buf[j], data.point(3)[j]);
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, PageTrackerDeduplicatesWithinQuery) {
  const std::string path = TempPath("pf_dedup");
  // 16-dim floats = 64 bytes: 63 points per 4K page (4 bytes go to the
  // CRC32C page footer).
  Dataset data = RandomData(128, 16, 79);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  ASSERT_EQ(pf->points_per_page(), 63u);

  std::vector<Scalar> buf(16);
  IoStats stats;
  PageTracker tracker;
  // Points 0..62 share page 0.
  for (PointId id = 0; id < 63; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, &stats, &tracker).ok());
  }
  EXPECT_EQ(stats.point_reads, 63u);
  EXPECT_EQ(stats.page_reads, 1u);

  // Without a tracker every read charges its page.
  IoStats stats2;
  for (PointId id = 0; id < 63; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, &stats2, nullptr).ok());
  }
  EXPECT_EQ(stats2.page_reads, 63u);
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, PageOfPointConsistentWithOrdering) {
  const std::string path = TempPath("pf_pages");
  Dataset data = RandomData(256, 16, 83);  // 63 per checksummed page
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  EXPECT_EQ(pf->PageOfPoint(0), 0u);
  EXPECT_EQ(pf->PageOfPoint(62), 0u);
  EXPECT_EQ(pf->PageOfPoint(63), 1u);
  EXPECT_EQ(pf->PageOfPoint(255), 4u);
  Env::Default()->DeleteFile(path).IgnoreError();
}

// Overwrites the 8 bytes at `offset` with `value`, through the Env.
void PatchU64At(Env* env, const std::string& path, uint64_t offset,
                uint64_t value) {
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &r).ok());
  std::vector<char> all(r->Size());
  ASSERT_TRUE(r->Read(0, all.size(), all.data()).ok());
  r.reset();
  ASSERT_LE(offset + sizeof(value), all.size());
  std::memcpy(all.data() + offset, &value, sizeof(value));
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append(all.data(), all.size()).ok());
  ASSERT_TRUE(w->Close().ok());
}

TEST(PointFileTest, RejectsCorruptMagic) {
  const std::string path = TempPath("pf_corrupt");
  Env* env = Env::Default();
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(path, &w).ok());
  std::vector<char> junk(8192, 'x');
  ASSERT_TRUE(w->Append(junk.data(), junk.size()).ok());
  ASSERT_TRUE(w->Close().ok());
  std::unique_ptr<PointFile> pf;
  EXPECT_TRUE(PointFile::Open(env, path, &pf).IsCorruption());

  // The retired unchecksummed format's magic ("EEBPFILE") on an otherwise
  // intact file: its pages would be handed back unverified, so it is
  // refused like any other unknown magic.
  const std::string v1 = TempPath("pf_v1_magic");
  ASSERT_TRUE(PointFile::Create(env, v1, RandomData(64, 4, 137)).ok());
  PatchU64At(env, v1, /*offset=*/0, 0x4545425046494c45ULL);
  EXPECT_TRUE(PointFile::Open(env, v1, &pf).IsCorruption());
  env->DeleteFile(path).IgnoreError();
  env->DeleteFile(v1).IgnoreError();
}

TEST(PointFileTest, DuplicateAndMissingIdsRejected) {
  const std::string path = TempPath("pf_dup");
  Dataset data = RandomData(4, 4, 91);
  std::vector<PointId> dup{0, 1, 1, 3};  // id 1 twice, id 2 missing
  EXPECT_TRUE(PointFile::Create(Env::Default(), path, data, dup)
                  .IsInvalidArgument());
  std::vector<PointId> missing{0, 1, 2, kInvalidPointId};  // id 3 missing
  EXPECT_TRUE(PointFile::Create(Env::Default(), path, data, missing)
                  .IsInvalidArgument());
}

TEST(PointFileTest, OutOfRangeIdRejected) {
  const std::string path = TempPath("pf_range");
  Dataset data = RandomData(10, 4, 89);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  std::vector<Scalar> buf(4);
  EXPECT_TRUE(pf->ReadPoint(10, buf, nullptr, nullptr).IsInvalidArgument());
  std::vector<Scalar> small(2);
  EXPECT_TRUE(pf->ReadPoint(0, small, nullptr, nullptr).IsInvalidArgument());
  Env::Default()->DeleteFile(path).IgnoreError();
}

// ------------------------------------------------------- page checksums --

// Flips one bit of the file at `offset` by rewriting it through the Env.
void FlipByteAt(Env* env, const std::string& path, uint64_t offset) {
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(env->NewRandomAccessFile(path, &r).ok());
  std::vector<char> all(r->Size());
  ASSERT_TRUE(r->Read(0, all.size(), all.data()).ok());
  r.reset();
  ASSERT_LT(offset, all.size());
  all[offset] ^= 0x01;
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(env->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append(all.data(), all.size()).ok());
  ASSERT_TRUE(w->Close().ok());
}

TEST(PointFileTest, CorruptDataPageIsCorruptionNeverData) {
  const std::string path = TempPath("pf_ck_data");
  Dataset data = RandomData(256, 16, 113);  // 63 per page, 5 data pages
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  // Flip a bit inside data page 1 (file page 2, after the header page).
  FlipByteAt(Env::Default(), path, 2 * kDefaultPageSize + 100);
  // The file object caches nothing across reads: every point on the bad
  // page reports Corruption, every other page still reads fine.
  std::vector<Scalar> buf(16);
  for (PointId id = 63; id < 126; ++id) {
    EXPECT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).IsCorruption());
  }
  for (PointId id = 0; id < 63; ++id) {
    ASSERT_TRUE(pf->ReadPoint(id, buf, nullptr, nullptr).ok());
    EXPECT_EQ(buf[0], data.point(id)[0]);
  }
  ASSERT_TRUE(pf->ReadPoint(200, buf, nullptr, nullptr).ok());
  EXPECT_EQ(buf[0], data.point(200)[0]);
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, CorruptHeaderPageRejectedAtOpen) {
  const std::string path = TempPath("pf_ck_hdr");
  Dataset data = RandomData(16, 4, 127);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  // Past the header struct but inside the checksummed header page.
  FlipByteAt(Env::Default(), path, 256);
  std::unique_ptr<PointFile> pf;
  EXPECT_TRUE(PointFile::Open(Env::Default(), path, &pf).IsCorruption());
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, CorruptSlotTableRejectedAtOpen) {
  const std::string path = TempPath("pf_ck_slots");
  Dataset data = RandomData(64, 4, 131);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path, &r).ok());
  const uint64_t size = r->Size();
  r.reset();
  // The slot table (and its CRC) are the last bytes of the file.
  FlipByteAt(Env::Default(), path, size - 10);
  std::unique_ptr<PointFile> pf;
  EXPECT_TRUE(PointFile::Open(Env::Default(), path, &pf).IsCorruption());
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, CorruptMultiPageRecordDetected) {
  const std::string path = TempPath("pf_ck_big");
  // 2000-dim floats = 8000 bytes > one 4092-byte payload: 2 pages each.
  Dataset data = RandomData(5, 2000, 137);
  ASSERT_TRUE(PointFile::Create(Env::Default(), path, data).ok());
  std::unique_ptr<PointFile> pf;
  ASSERT_TRUE(PointFile::Open(Env::Default(), path, &pf).ok());
  std::vector<Scalar> buf(2000);
  ASSERT_TRUE(pf->ReadPoint(1, buf, nullptr, nullptr).ok());
  // Record 1 starts at file page 1 + 1*2 = 3; corrupt its second page.
  FlipByteAt(Env::Default(), path, 4 * kDefaultPageSize + 8);
  EXPECT_TRUE(pf->ReadPoint(1, buf, nullptr, nullptr).IsCorruption());
  ASSERT_TRUE(pf->ReadPoint(0, buf, nullptr, nullptr).ok());
  EXPECT_EQ(buf[0], data.point(0)[0]);
  Env::Default()->DeleteFile(path).IgnoreError();
}

TEST(PointFileTest, HostileHeaderGeometryRejectedBeforeAllocating) {
  // Header words: magic, n, dim, page_size, n_slots.
  constexpr uint64_t kNOffset = 8;
  constexpr uint64_t kPageSizeOffset = 24;
  constexpr uint64_t kHuge = uint64_t{1} << 40;
  Env* env = Env::Default();
  Dataset data = RandomData(64, 4, 139);
  std::unique_ptr<PointFile> pf;

  // A page size larger than the file must be refused before Open allocates
  // a buffer of that size to check the header page's CRC.
  const std::string big_page = TempPath("pf_hostile_page_size");
  ASSERT_TRUE(PointFile::Create(env, big_page, data).ok());
  PatchU64At(env, big_page, kPageSizeOffset, kHuge);
  EXPECT_TRUE(PointFile::Open(env, big_page, &pf).IsCorruption());

  // A point count whose slot table cannot fit in the file must be refused
  // by the slot-table bound, which runs before the header CRC is checked
  // and before the table is allocated.
  const std::string big_n = TempPath("pf_hostile_n");
  ASSERT_TRUE(PointFile::Create(env, big_n, data).ok());
  PatchU64At(env, big_n, kNOffset, kHuge);
  const Status st = PointFile::Open(env, big_n, &pf);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("slot table runs past the file end"),
            std::string::npos)
      << st.ToString();
  env->DeleteFile(big_page).IgnoreError();
  env->DeleteFile(big_n).IgnoreError();
}

// ---------------------------------------------------------- file ordering --

TEST(FileOrderingTest, RawIsIdentity) {
  auto order = RawOrder(5);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

bool IsPermutation(const std::vector<PointId>& order, size_t n) {
  std::set<PointId> seen(order.begin(), order.end());
  return order.size() == n && seen.size() == n && *seen.rbegin() == n - 1;
}

TEST(FileOrderingTest, ClusteredIsPermutation) {
  Dataset data = RandomData(200, 8, 97);
  auto order = ClusteredOrder(data, 8, 1);
  EXPECT_TRUE(IsPermutation(order, 200));
}

TEST(FileOrderingTest, SortedKeyIsPermutation) {
  Dataset data = RandomData(200, 8, 101);
  auto order = SortedKeyOrder(data, 4, 16.0, 1);
  EXPECT_TRUE(IsPermutation(order, 200));
}

TEST(FileOrderingTest, ClusteredGroupsNearbyPoints) {
  // Two well-separated blobs: the clustered order must not interleave them.
  Rng rng(103);
  Dataset data(4);
  std::vector<Scalar> p(4);
  for (int i = 0; i < 50; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.NextGaussian());
    data.Append(p);
  }
  for (int i = 0; i < 50; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(200 + rng.NextGaussian());
    data.Append(p);
  }
  auto order = ClusteredOrder(data, 2, 3);
  // Count blob transitions along the order; a grouped layout has exactly 1.
  int transitions = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    if ((order[i] < 50) != (order[i - 1] < 50)) ++transitions;
  }
  EXPECT_EQ(transitions, 1);
}

// ---------------------------------------------------------------- IoStats --

TEST(IoStatsTest, Accumulates) {
  IoStats a, b;
  a.point_reads = 3;
  a.page_reads = 2;
  b.point_reads = 1;
  b.bytes_read = 100;
  a += b;
  EXPECT_EQ(a.point_reads, 4u);
  EXPECT_EQ(a.page_reads, 2u);
  EXPECT_EQ(a.bytes_read, 100u);
  a.Reset();
  EXPECT_EQ(a.point_reads, 0u);
}

TEST(DiskModelTest, ChargesRandomAndSequentialDifferently) {
  IoStats s;
  s.page_reads = 10;
  s.seq_page_reads = 100;
  DiskModel model;
  model.seconds_per_page = 0.002;
  model.seconds_per_seq_page = 0.0001;
  EXPECT_DOUBLE_EQ(model.Seconds(s), 0.02 + 0.01);
}

TEST(IoStatsTest, AccumulatesEveryField) {
  IoStats a;
  a.point_reads = 1;
  a.page_reads = 2;
  a.seq_page_reads = 3;
  a.node_reads = 4;
  a.bytes_read = 5;
  IoStats b;
  b.point_reads = 10;
  b.page_reads = 20;
  b.seq_page_reads = 30;
  b.node_reads = 40;
  b.bytes_read = 50;
  a += b;
  EXPECT_EQ(a.point_reads, 11u);
  EXPECT_EQ(a.page_reads, 22u);
  EXPECT_EQ(a.seq_page_reads, 33u);
  EXPECT_EQ(a.node_reads, 44u);
  EXPECT_EQ(a.bytes_read, 55u);
  // += returns *this so charges can be chained.
  IoStats c;
  (c += a) += b;
  EXPECT_EQ(c.point_reads, 21u);
  EXPECT_EQ(c.bytes_read, 105u);
}

TEST(DiskModelTest, DefaultsModelCommodityHdd) {
  // 5 ms per random page, 0.05 ms per sequential page (Sec. 5 setup).
  DiskModel model;
  IoStats s;
  s.page_reads = 2;
  s.seq_page_reads = 100;
  EXPECT_DOUBLE_EQ(model.Seconds(s), 2 * 0.005 + 100 * 0.00005);
  IoStats zero;
  EXPECT_DOUBLE_EQ(model.Seconds(zero), 0.0);
  // Point/node/bytes counters do not contribute to modeled time directly.
  IoStats other;
  other.point_reads = 7;
  other.node_reads = 9;
  other.bytes_read = 1 << 20;
  EXPECT_DOUBLE_EQ(model.Seconds(other), 0.0);
}

TEST(PageTrackerTest, TouchDeduplicatesUntilReset) {
  PageTracker t;
  EXPECT_EQ(t.distinct_pages(), 0u);
  EXPECT_TRUE(t.Touch(7));
  EXPECT_FALSE(t.Touch(7));  // second touch of the same page is free
  EXPECT_TRUE(t.Touch(8));
  EXPECT_TRUE(t.Touch(0));
  EXPECT_FALSE(t.Touch(8));
  EXPECT_EQ(t.distinct_pages(), 3u);
  t.Reset();
  EXPECT_EQ(t.distinct_pages(), 0u);
  EXPECT_TRUE(t.Touch(7));  // a new query re-charges every page
  EXPECT_EQ(t.distinct_pages(), 1u);
}

}  // namespace
}  // namespace eeb::storage
