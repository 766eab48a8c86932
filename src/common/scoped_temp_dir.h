// A private scratch directory for a run that needs real files: the CLI's
// point file, a bench workbench, a test case.
//
// Runs go side by side (`ctest -j` runs every test case as its own process,
// and several CLI or bench runs may share a machine), so a fixed path lets
// one run delete or rewrite files another is still reading. ScopedTempDir
// creates a fresh directory with mkdtemp under the system temp directory
// ($TMPDIR, else /tmp) and removes it, with everything in it, on
// destruction. Declare it before the objects that hold files open in it.

#ifndef EEB_COMMON_SCOPED_TEMP_DIR_H_
#define EEB_COMMON_SCOPED_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace eeb {

class ScopedTempDir {
 public:
  /// Creates `<temp>/<prefix>_XXXXXX`; ok() is false if that failed.
  explicit ScopedTempDir(const std::string& prefix = "eeb") {
    std::string pattern =
        (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX"))
            .string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  /// `path()/name`.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace eeb

#endif  // EEB_COMMON_SCOPED_TEMP_DIR_H_
