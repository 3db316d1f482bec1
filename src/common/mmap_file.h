#ifndef MUDS_COMMON_MMAP_FILE_H_
#define MUDS_COMMON_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace muds {

/// Read-only memory mapping of a whole file: one mapping, one
/// `string_view`, unmapped on destruction. Movable, not copyable.
///
/// On platforms without mmap, Open fails with IoError and callers fall back
/// to their buffered read path — nothing in the tree requires mapping to
/// succeed.
class MappedFile {
 public:
  enum class Advice {
    kNormal,
    kSequential,  // madvise(MADV_SEQUENTIAL): aggressive read-ahead.
    kRandom,      // madvise(MADV_RANDOM): no read-ahead.
    kDontNeed,    // madvise(MADV_DONTNEED): drop clean pages.
  };

  /// Maps `path` read-only. Empty files succeed and yield an empty view.
  static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::string_view view() const {
    // An unmapped file (size 0, or a platform without mmap) must not build
    // a string_view over a null pointer — that is UB the callers' parsers
    // would then iterate over.
    if (data_ == nullptr) return std::string_view();
    return std::string_view(static_cast<const char*>(data_), size_);
  }
  size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }

  /// Applies `advice` to the whole mapping; ignored where unsupported.
  void Advise(Advice advice) const;

 private:
  MappedFile(void* data, size_t size) : data_(data), size_(size) {}

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace muds

#endif  // MUDS_COMMON_MMAP_FILE_H_
