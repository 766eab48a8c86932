#include "storage/point_file.h"

#include <cstring>

#include "common/crc32c.h"

namespace eeb::storage {
namespace {

constexpr uint64_t kMagicV2 = 0x4545425046494c32ULL;  // "EEBPFIL2"

struct Header {
  uint64_t magic;
  uint64_t n;
  uint64_t dim;
  uint64_t page_size;
  uint64_t n_slots;
};

}  // namespace

Status PointFile::Create(Env* env, const std::string& path,
                         const Dataset& data,
                         const std::vector<PointId>& order,
                         size_t page_size) {
  const size_t n = data.size();
  const size_t dim = data.dim();
  const size_t n_slots = order.size();
  if (n_slots < n) {
    return Status::InvalidArgument("order has fewer slots than points");
  }
  const size_t record_bytes = dim * sizeof(Scalar);
  if (record_bytes == 0 || page_size <= kPageFooterBytes) {
    return Status::InvalidArgument("empty record or page");
  }
  const size_t payload = page_size - kPageFooterBytes;

  std::unique_ptr<WritableFile> f;
  EEB_RETURN_IF_ERROR(env->NewWritableFile(path, &f));
  // From here on any failure must also remove the partial file; the write
  // body runs in a lambda so every early return funnels through the cleanup.
  auto write_body = [&]() -> Status {
    std::vector<char> page(page_size, 0);
    // Stamp the footer and flush one finished page.
    auto append_page = [&]() -> Status {
      const uint32_t crc = Crc32c(page.data(), payload);
      std::memcpy(page.data() + payload, &crc, sizeof(crc));
      return f->Append(page.data(), page.size());
    };

    // Header page.
    Header h{kMagicV2, n, dim, page_size, n_slots};
    std::memcpy(page.data(), &h, sizeof(h));
    EEB_RETURN_IF_ERROR(append_page());

    // Data pages in slot order. Records pack into the page payload area;
    // oversized records are chunked payload-by-payload across whole pages.
    const size_t ppp = record_bytes <= payload ? payload / record_bytes : 0;
    const size_t pages_per_point =
        ppp > 0 ? 1 : (record_bytes + payload - 1) / payload;

    // Build the inverse permutation (id -> slot) while writing, validating
    // that every real id appears exactly once (a duplicate would silently
    // orphan another point's slot-table entry).
    std::vector<bool> seen(n, false);
    std::vector<uint32_t> id_to_slot(n);
    auto claim = [&](PointId id, size_t slot) -> Status {
      if (id >= n) return Status::InvalidArgument("order id out of range");
      if (seen[id]) return Status::InvalidArgument("duplicate id in order");
      seen[id] = true;
      id_to_slot[id] = static_cast<uint32_t>(slot);
      return Status::OK();
    };
    if (ppp > 0) {
      size_t slot = 0;
      while (slot < n_slots) {
        std::fill(page.begin(), page.end(), 0);
        size_t in_page = std::min(ppp, n_slots - slot);
        for (size_t i = 0; i < in_page; ++i) {
          PointId id = order[slot + i];
          if (id == kInvalidPointId) continue;  // padding slot
          EEB_RETURN_IF_ERROR(claim(id, slot + i));
          auto p = data.point(id);
          std::memcpy(page.data() + i * record_bytes, p.data(), record_bytes);
        }
        EEB_RETURN_IF_ERROR(append_page());
        slot += in_page;
      }
    } else {
      for (size_t slot = 0; slot < n_slots; ++slot) {
        PointId id = order[slot];
        const char* src = nullptr;
        if (id != kInvalidPointId) {
          EEB_RETURN_IF_ERROR(claim(id, slot));
          src = reinterpret_cast<const char*>(data.point(id).data());
        }
        size_t off = 0;
        for (size_t pg = 0; pg < pages_per_point; ++pg) {
          std::fill(page.begin(), page.end(), 0);
          if (src != nullptr && off < record_bytes) {
            const size_t chunk = std::min(payload, record_bytes - off);
            std::memcpy(page.data(), src + off, chunk);
            off += chunk;
          }
          EEB_RETURN_IF_ERROR(append_page());
        }
      }
    }

    for (size_t id = 0; id < n; ++id) {
      if (!seen[id]) return Status::InvalidArgument("order is missing an id");
    }

    // Slot table tail: id -> slot, 4 bytes per point, then its CRC.
    const char* table = reinterpret_cast<const char*>(id_to_slot.data());
    const size_t table_bytes = id_to_slot.size() * sizeof(uint32_t);
    EEB_RETURN_IF_ERROR(f->Append(table, table_bytes));
    const uint32_t crc = Crc32c(table, table_bytes);
    EEB_RETURN_IF_ERROR(
        f->Append(reinterpret_cast<const char*>(&crc), sizeof(crc)));
    return f->Close();
  };
  return CleanupIfError(env, path, write_body());
}

Status PointFile::Create(Env* env, const std::string& path,
                         const Dataset& data, size_t page_size) {
  std::vector<PointId> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<PointId>(i);
  return Create(env, path, data, order, page_size);
}

Status PointFile::Open(Env* env, const std::string& path,
                       std::unique_ptr<PointFile>* out) {
  std::unique_ptr<PointFile> pf(new PointFile());
  EEB_RETURN_IF_ERROR(pf->Init(env, path));
  *out = std::move(pf);
  return Status::OK();
}

Status PointFile::VerifyPage(const char* page, uint64_t file_page) const {
  uint32_t stored;
  std::memcpy(&stored, page + payload_bytes_, sizeof(stored));
  if (Crc32c(page, payload_bytes_) != stored) {
    return Status::Corruption("point file page " + std::to_string(file_page) +
                              " checksum mismatch");
  }
  return Status::OK();
}

Status PointFile::Init(Env* env, const std::string& path) {
  EEB_RETURN_IF_ERROR(env->NewRandomAccessFile(path, &file_));
  Header h;
  EEB_RETURN_IF_ERROR(file_->Read(0, sizeof(h), reinterpret_cast<char*>(&h)));
  if (h.magic != kMagicV2) return Status::Corruption("bad point file magic");
  n_ = h.n;
  dim_ = h.dim;
  page_size_ = h.page_size;
  n_slots_ = h.n_slots;
  // Until the header page's CRC is checked below, every field is hostile:
  // the geometry is computed overflow-safely and must fit inside the file
  // before anything is sized from it.
  const uint64_t file_size = file_->Size();
  if (__builtin_mul_overflow(dim_, sizeof(Scalar), &record_bytes_) ||
      record_bytes_ == 0 || page_size_ <= kPageFooterBytes ||
      page_size_ < sizeof(Header) || page_size_ > file_size) {
    return Status::Corruption("bad point file geometry");
  }
  payload_bytes_ = page_size_ - kPageFooterBytes;
  points_per_page_ =
      record_bytes_ <= payload_bytes_ ? payload_bytes_ / record_bytes_ : 0;
  pages_per_point_ = points_per_page_ > 0
                         ? 1
                         : record_bytes_ / payload_bytes_ +
                               (record_bytes_ % payload_bytes_ != 0);
  if (points_per_page_ > 0) {
    data_pages_ = n_slots_ / points_per_page_ +
                  (n_slots_ % points_per_page_ != 0);
  } else if (__builtin_mul_overflow(n_slots_, pages_per_point_,
                                    &data_pages_)) {
    return Status::Corruption("bad point file geometry");
  }
  // The slot table and its CRC close the file, after the header page and
  // the data pages.
  uint64_t table_off, table_bytes, table_end;
  if (__builtin_mul_overflow(data_pages_, page_size_, &table_off) ||
      __builtin_add_overflow(table_off, page_size_, &table_off) ||
      __builtin_mul_overflow(n_, sizeof(uint32_t), &table_bytes) ||
      __builtin_add_overflow(table_off, table_bytes, &table_end) ||
      __builtin_add_overflow(table_end, sizeof(uint32_t), &table_end) ||
      table_end > file_size) {
    return Status::Corruption("point file slot table runs past the file end");
  }

  // Re-read the whole header page to verify its footer: a flipped bit in
  // n/dim/page_size would otherwise silently rewire the file geometry.
  std::vector<char> page(page_size_);
  EEB_RETURN_IF_ERROR(file_->Read(0, page_size_, page.data()));
  EEB_RETURN_IF_ERROR(VerifyPage(page.data(), 0));

  id_to_slot_.resize(n_);
  EEB_RETURN_IF_ERROR(file_->Read(table_off, table_bytes,
                                  reinterpret_cast<char*>(id_to_slot_.data())));
  uint32_t stored;
  EEB_RETURN_IF_ERROR(file_->Read(table_off + table_bytes, sizeof(stored),
                                  reinterpret_cast<char*>(&stored)));
  if (Crc32c(id_to_slot_.data(), table_bytes) != stored) {
    return Status::Corruption("point file slot table checksum mismatch");
  }
  return Status::OK();
}

uint64_t PointFile::PageOfPoint(PointId id) const {
  const uint32_t slot = id_to_slot_[id];
  if (points_per_page_ > 0) return slot / points_per_page_;
  return static_cast<uint64_t>(slot) * pages_per_point_;
}

Status PointFile::ReadPoint(PointId id, std::span<Scalar> out, IoStats* stats,
                            PageTracker* tracker) const {
  if (id >= n_) return Status::InvalidArgument("point id out of range");
  if (out.size() != dim_) return Status::InvalidArgument("bad output span");
  const uint32_t slot = id_to_slot_[id];

  uint64_t first_page;
  size_t in_page = 0;
  size_t pages_touched;
  if (points_per_page_ > 0) {
    first_page = slot / points_per_page_;
    in_page = slot % points_per_page_;
    pages_touched = 1;
  } else {
    first_page = static_cast<uint64_t>(slot) * pages_per_point_;
    pages_touched = pages_per_point_;
  }

  // Each page is read whole and verified before any byte of it is copied
  // out, so a corrupt page can never look like data.
  thread_local std::vector<char> page;
  page.resize(page_size_);
  char* dst = reinterpret_cast<char*>(out.data());
  size_t copied = 0;
  // eeb-hot-begin(read-point-page-loop): per-page read/verify/copy — the
  // refinement inner loop. The scratch buffer above is thread_local and
  // sized before entry; nothing in here may allocate.
  for (size_t pg = 0; pg < pages_touched; ++pg) {
    const uint64_t file_page = 1 + first_page + pg;  // 0 is the header
    EEB_RETURN_IF_ERROR(
        file_->Read(file_page * page_size_, page_size_, page.data()));
    EEB_RETURN_IF_ERROR(VerifyPage(page.data(), file_page));
    if (points_per_page_ > 0) {
      std::memcpy(dst, page.data() + in_page * record_bytes_, record_bytes_);
    } else {
      const size_t chunk = std::min(payload_bytes_, record_bytes_ - copied);
      std::memcpy(dst + copied, page.data(), chunk);
      copied += chunk;
    }
  }
  // eeb-hot-end

  if (stats != nullptr) {
    uint64_t charged_pages = 0;
    for (size_t i = 0; i < pages_touched; ++i) {
      const uint64_t page_index = first_page + i;
      if (tracker == nullptr || tracker->Touch(page_index)) charged_pages += 1;
    }
    stats->point_reads += 1;
    stats->bytes_read += record_bytes_;
    stats->page_reads += charged_pages;
  }
  return Status::OK();
}

}  // namespace eeb::storage
