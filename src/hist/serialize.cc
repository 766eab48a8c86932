#include "hist/serialize.h"

#include <cstring>
#include <vector>

namespace eeb::hist {
namespace {

constexpr uint32_t kHistMagic = 0x48454542;  // "BEEH"
constexpr uint32_t kBundleMagic = 0x49454542;  // "BEEI"
// Wire bytes of one bucket (lo, hi) and of the smallest valid histogram
// (magic, ndom, count, one bucket).
constexpr uint64_t kBucketBytes = 8;
constexpr uint64_t kMinHistogramBytes = 12 + kBucketBytes;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

Status GetU32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return Status::Corruption("histogram blob truncated");
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return Status::OK();
}

}  // namespace

void AppendHistogram(const Histogram& h, std::string* out) {
  PutU32(kHistMagic, out);
  PutU32(h.ndom(), out);
  PutU32(h.num_buckets(), out);
  for (const Bucket& b : h.buckets()) {
    PutU32(b.lo, out);
    PutU32(b.hi, out);
  }
}

Status ParseHistogram(std::string_view* in, Histogram* out) {
  uint32_t magic, ndom, count;
  EEB_RETURN_IF_ERROR(GetU32(in, &magic));
  if (magic != kHistMagic) return Status::Corruption("bad histogram magic");
  EEB_RETURN_IF_ERROR(GetU32(in, &ndom));
  EEB_RETURN_IF_ERROR(GetU32(in, &count));
  if (count == 0 || count > ndom) {
    return Status::Corruption("bad histogram bucket count");
  }
  // Both counts come from the blob: size nothing from them until the blob
  // is known to hold that many buckets.
  if (count * kBucketBytes > in->size()) {
    return Status::Corruption("histogram blob truncated");
  }
  std::vector<Bucket> buckets(count);
  for (uint32_t i = 0; i < count; ++i) {
    EEB_RETURN_IF_ERROR(GetU32(in, &buckets[i].lo));
    EEB_RETURN_IF_ERROR(GetU32(in, &buckets[i].hi));
  }
  // Histogram::Create re-validates the tiling, so corrupt interval data is
  // rejected rather than producing an inconsistent lookup table.
  return Histogram::Create(std::move(buckets), ndom, out);
}

void AppendIndividual(const IndividualHistograms& hs, std::string* out) {
  PutU32(kBundleMagic, out);
  PutU32(static_cast<uint32_t>(hs.dim()), out);
  for (size_t j = 0; j < hs.dim(); ++j) AppendHistogram(hs.at(j), out);
}

Status ParseIndividual(std::string_view* in, IndividualHistograms* out) {
  uint32_t magic, dims;
  EEB_RETURN_IF_ERROR(GetU32(in, &magic));
  if (magic != kBundleMagic) return Status::Corruption("bad bundle magic");
  EEB_RETURN_IF_ERROR(GetU32(in, &dims));
  if (dims * kMinHistogramBytes > in->size()) {
    return Status::Corruption("histogram bundle truncated");
  }
  std::vector<Histogram> parsed(dims);
  for (uint32_t j = 0; j < dims; ++j) {
    EEB_RETURN_IF_ERROR(ParseHistogram(in, &parsed[j]));
  }
  *out = IndividualHistograms(std::move(parsed));
  return Status::OK();
}

Status SaveHistogram(storage::Env* env, const std::string& path,
                     const Histogram& h) {
  std::string blob;
  AppendHistogram(h, &blob);
  std::unique_ptr<storage::WritableFile> f;
  EEB_RETURN_IF_ERROR(env->NewWritableFile(path, &f));
  auto write_body = [&]() -> Status {
    EEB_RETURN_IF_ERROR(f->Append(blob.data(), blob.size()));
    return f->Close();
  };
  return storage::CleanupIfError(env, path, write_body());
}

Status LoadHistogram(storage::Env* env, const std::string& path,
                     Histogram* out) {
  std::unique_ptr<storage::RandomAccessFile> f;
  EEB_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &f));
  std::string blob(f->Size(), '\0');
  EEB_RETURN_IF_ERROR(f->Read(0, blob.size(), blob.data()));
  std::string_view view(blob);
  return ParseHistogram(&view, out);
}

}  // namespace eeb::hist
