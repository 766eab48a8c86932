// Disk-resident point set P (paper Sec. 2.1): a page-aligned sequential file
// of fixed-size point records supporting direct access by point identifier.
// The physical ordering of records is a build-time permutation so the
// orderings of Fig. 9 (raw / clustered / sorted-key) can be compared.
//
// The last 4 bytes of every page (header and data) hold a CRC32C footer over
// the rest of the page, and a CRC32C of the slot table closes the file;
// reads verify the footer and surface a mismatch as Status::Corruption.

#ifndef EEB_STORAGE_POINT_FILE_H_
#define EEB_STORAGE_POINT_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/env.h"
#include "storage/io_stats.h"

namespace eeb::storage {

/// Default page (block) size, matching the paper's 4 KB system page.
inline constexpr size_t kDefaultPageSize = 4096;

/// Immutable on-disk point file. Records never straddle page boundaries when
/// a record fits in a page's payload area; larger records occupy whole pages.
class PointFile {
 public:
  /// Bytes of each page reserved for the CRC32C footer.
  static constexpr size_t kPageFooterBytes = 4;

  /// Writes `data` to `path`. `order[slot]` is the PointId stored at physical
  /// slot `slot`; pass an identity permutation for the raw ordering. Entries
  /// equal to kInvalidPointId are padding slots (zero-filled, unaddressable);
  /// tree indexes use them to align leaf nodes to page boundaries. Every
  /// real id must appear exactly once.
  static Status Create(Env* env, const std::string& path, const Dataset& data,
                       const std::vector<PointId>& order,
                       size_t page_size = kDefaultPageSize);

  /// Convenience overload with raw (identity) ordering.
  static Status Create(Env* env, const std::string& path, const Dataset& data,
                       size_t page_size = kDefaultPageSize);

  /// Opens an existing file and loads the id->slot table into memory,
  /// verifying the header-page and slot-table checksums.
  static Status Open(Env* env, const std::string& path,
                     std::unique_ptr<PointFile>* out);

  size_t size() const { return n_; }
  size_t dim() const { return dim_; }
  size_t page_size() const { return page_size_; }
  /// Points per page (0 means a record spans multiple pages).
  size_t points_per_page() const { return points_per_page_; }
  /// Total data bytes (excluding header and slot table), i.e. the "file size"
  /// figure used when sizing caches relative to the dataset.
  uint64_t data_bytes() const { return data_pages_ * page_size_; }

  /// Fetches the point with identifier `id` into `out` (must have dim()
  /// elements). Charges `stats` with one point read plus the pages newly
  /// touched according to `tracker` (pass nullptr to charge all pages).
  /// A footer mismatch returns Status::Corruption and `out` is
  /// unspecified — corrupt bytes are never handed back as data.
  Status ReadPoint(PointId id, std::span<Scalar> out, IoStats* stats,
                   PageTracker* tracker) const;

  /// Physical page index (0-based within the data area) of the first page of
  /// point `id` — exposed for cache-by-page policies and tests.
  uint64_t PageOfPoint(PointId id) const;

 private:
  PointFile() = default;

  Status Init(Env* env, const std::string& path);
  Status VerifyPage(const char* page, uint64_t file_page) const;

  std::unique_ptr<RandomAccessFile> file_;
  size_t n_ = 0;
  size_t dim_ = 0;
  size_t page_size_ = kDefaultPageSize;
  size_t record_bytes_ = 0;
  size_t payload_bytes_ = 0;    // page_size_ - kPageFooterBytes
  size_t points_per_page_ = 0;  // 0 when record_bytes_ > payload_bytes_
  size_t pages_per_point_ = 1;  // used when points_per_page_ == 0
  uint64_t n_slots_ = 0;  // physical slots including padding
  uint64_t data_pages_ = 0;
  std::vector<uint32_t> id_to_slot_;
};

}  // namespace eeb::storage

#endif  // EEB_STORAGE_POINT_FILE_H_
