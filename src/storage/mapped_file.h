#pragma once

#include <string>
#include <string_view>

#include "base/result.h"

namespace sitm::storage {

/// \brief A read-only, memory-mapped view of a whole file (zero copy:
/// the EventStore reader decodes straight out of the page cache).
/// `view()` stays valid for the lifetime of the object. Move-only.
class MappedFile {
 public:
  /// Opens and maps `path`. IOError when the file cannot be opened, is
  /// not a regular file, or cannot be mapped; an empty file yields an
  /// empty view.
  [[nodiscard]] static Result<MappedFile> Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file content. Valid until destruction.
  std::string_view view() const { return {mapped_, size_}; }
  std::size_t size() const { return size_; }

 private:
  void Reset();

  const char* mapped_ = nullptr;  // null for an empty file
  std::size_t size_ = 0;
};

}  // namespace sitm::storage
