#include "store/mmap_file.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include "store/format.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PSC_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PSC_STORE_HAVE_MMAP 0
#include <cstdio>
#endif

namespace psc::store {

MmapFile::~MmapFile() { reset(); }

void MmapFile::reset() noexcept {
#if PSC_STORE_HAVE_MMAP
  if (mapped_ && addr_ != nullptr) ::munmap(addr_, size_);
#endif
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MmapFile::MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this == &other) return *this;
  reset();
  addr_ = other.addr_;
  size_ = other.size_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  if (!fallback_.empty()) addr_ = fallback_.data();
  other.addr_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  return *this;
}

MmapFile MmapFile::from_owned(std::vector<std::uint8_t> bytes) {
  MmapFile file;
  file.fallback_ = std::move(bytes);
  file.addr_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
  return file;
}

MmapFile MmapFile::open(const std::string& path) {
  MmapFile file;
#if PSC_STORE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT
  if (fd < 0) {
    throw StoreError(StoreErrorCode::kIo, "cannot open store file: " + path +
                                              " (" + std::strerror(errno) +
                                              ")");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw StoreError(StoreErrorCode::kIo, "cannot stat store file: " + path);
  }
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ == 0) {
    // mmap of length 0 is unspecified; an empty file fails header checks
    // downstream, so hand back an empty view.
    ::close(fd);
    return file;
  }
  void* addr = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    throw StoreError(StoreErrorCode::kIo, "cannot mmap store file: " + path +
                                              " (" + std::strerror(errno) +
                                              ")");
  }
  file.addr_ = addr;
  file.mapped_ = true;
#else
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) {
    throw StoreError(StoreErrorCode::kIo, "cannot open store file: " + path);
  }
  if (std::fseek(fp, 0, SEEK_END) != 0) {
    std::fclose(fp);
    throw StoreError(StoreErrorCode::kIo, "cannot seek store file: " + path);
  }
  const long end = std::ftell(fp);
  if (end < 0 || std::fseek(fp, 0, SEEK_SET) != 0) {
    std::fclose(fp);
    throw StoreError(StoreErrorCode::kIo,
                     "cannot determine store file size: " + path);
  }
  file.fallback_.resize(static_cast<std::size_t>(end));
  if (!file.fallback_.empty() &&
      std::fread(file.fallback_.data(), 1, file.fallback_.size(), fp) !=
          file.fallback_.size()) {
    std::fclose(fp);
    throw StoreError(StoreErrorCode::kIo, "cannot read store file: " + path);
  }
  std::fclose(fp);
  file.addr_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
#endif
  return file;
}

}  // namespace psc::store
