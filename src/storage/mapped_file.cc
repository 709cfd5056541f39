#include "storage/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace sitm::storage {

Result<MappedFile> MappedFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for reading");
  MappedFile file;
  struct stat st;
  Status status;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    status = Status::IOError("'" + path + "' is not a regular file");
  } else if (st.st_size > 0) {  // mmap of length 0 is invalid
    void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      status = Status::IOError("cannot map '" + path +
                               "': " + std::strerror(errno));
    } else {
      file.mapped_ = static_cast<const char*>(addr);
      file.size_ = static_cast<std::size_t>(st.st_size);
    }
  }
  ::close(fd);
  if (!status.ok()) return status;
  return file;
}

MappedFile::~MappedFile() { Reset(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : mapped_(std::exchange(other.mapped_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Reset();
    mapped_ = std::exchange(other.mapped_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedFile::Reset() {
  if (mapped_ != nullptr) ::munmap(const_cast<char*>(mapped_), size_);
  mapped_ = nullptr;
  size_ = 0;
}

}  // namespace sitm::storage
