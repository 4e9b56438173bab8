// Read-only memory-mapped file with RAII unmapping. The index store
// reads through this so a saved table loads in O(mmap) -- the kernel
// pages occurrence data in lazily as step 2 walks the index lists --
// and multiple service workers can share one physical copy.
//
// On platforms without POSIX mmap the class falls back to reading the
// file into an owned buffer; callers see the same bytes() view either
// way.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace psc::store {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;

  /// Maps `path` read-only. Throws StoreError(kIo) on open/map failure.
  /// A zero-length file (a legal empty tail delta) is NOT an error and
  /// never reaches mmap (whose behaviour for length 0 is unspecified,
  /// EINVAL on Linux): it comes back as an open file with an empty
  /// view, and the store readers reject it downstream with a typed
  /// kCorrupt ("truncated before header") rather than a raw errno.
  static MmapFile open(const std::string& path);

  /// Wraps an owned byte buffer in the same read-only view interface,
  /// so a payload decompressed at load time flows through the exact
  /// validation path a mapped file does (see format.hpp).
  static MmapFile from_owned(std::vector<std::uint8_t> bytes);

  const std::uint8_t* data() const noexcept {
    return static_cast<const std::uint8_t*>(addr_);
  }
  std::size_t size() const noexcept { return size_; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {data(), size_};
  }

 private:
  void reset() noexcept;

  void* addr_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                  // true: munmap on destruction
  std::vector<std::uint8_t> fallback_;   // non-mmap platforms own the bytes
};

}  // namespace psc::store
