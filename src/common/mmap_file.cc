#include "common/mmap_file.h"

#include <cerrno>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define MUDS_MMAP_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace muds {

Result<MappedFile> MappedFile::Open(const std::string& path) {
#if MUDS_MMAP_POSIX
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Status::IoError(path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return MappedFile(nullptr, 0);
  }
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (data == MAP_FAILED) {
    return Status::IoError(path + ": mmap: " + std::strerror(errno));
  }
  return MappedFile(data, size);
#else
  return Status::IoError(path + ": mmap not supported on this platform");
#endif
}

MappedFile::~MappedFile() {
#if MUDS_MMAP_POSIX
  if (data_ != nullptr) ::munmap(data_, size_);
#endif
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
#if MUDS_MMAP_POSIX
    if (data_ != nullptr) ::munmap(data_, size_);
#endif
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void MappedFile::Advise(Advice advice) const {
#if MUDS_MMAP_POSIX
  if (data_ == nullptr) return;
  int adv = MADV_NORMAL;
  switch (advice) {
    case Advice::kNormal:
      adv = MADV_NORMAL;
      break;
    case Advice::kSequential:
      adv = MADV_SEQUENTIAL;
      break;
    case Advice::kRandom:
      adv = MADV_RANDOM;
      break;
    case Advice::kDontNeed:
      adv = MADV_DONTNEED;
      break;
  }
  // Best effort: profiling is correct without the hint.
  (void)::madvise(data_, size_, adv);
#else
  (void)advice;
#endif
}

}  // namespace muds
