// Minimal filesystem abstraction (RocksDB-style Env): random-access readers
// and append-only writers over POSIX files. All disk-resident structures
// (point file, VA-file, tree nodes) go through this layer so that
// I/O accounting has a single choke point.

#ifndef EEB_STORAGE_ENV_H_
#define EEB_STORAGE_ENV_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace eeb::storage {

/// Positional reader over an immutable file.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads exactly `n` bytes at `offset` into `scratch`. Fails with IOError
  /// on short reads.
  virtual Status Read(uint64_t offset, size_t n, char* scratch) const = 0;

  /// Total file size in bytes.
  virtual uint64_t Size() const = 0;
};

/// Append-only writer.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const char* data, size_t n) = 0;
  virtual Status Close() = 0;

  /// Bytes appended so far.
  virtual uint64_t Offset() const = 0;
};

/// Factory for files. The default implementation talks to the local
/// filesystem; tests may substitute an in-memory Env.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* out) = 0;
  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* out) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  /// Process-wide POSIX Env singleton.
  static Env* Default();
};

/// Returns `s` unchanged; when `s` is an error, best-effort-deletes `path`
/// so a writer that failed mid-stream does not leave a partial file behind.
/// The deletion's own status is deliberately dropped — the original error is
/// the one the caller must see. Use as the tail of every file writer:
///   return CleanupIfError(env, path, write_body());
Status CleanupIfError(Env* env, const std::string& path, Status s);

}  // namespace eeb::storage

#endif  // EEB_STORAGE_ENV_H_
