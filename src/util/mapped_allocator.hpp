// An allocator that maps large blocks straight from the operating system.
//
// glibc serves a block above its mmap threshold with its own mapping, and
// on freeing one it raises the threshold to that block's size, so later
// blocks up to that size come from the heap, where they stay resident
// once freed. A process that keeps loading and dropping megabyte-sized
// buffers -- a serving replica adopting each new store revision's shard
// banks -- then holds tens of megabytes of free heap. Blocks of at least
// kMappedMinBytes from this allocator are mapped and unmapped directly:
// freeing one returns its pages at once and leaves malloc's threshold
// where it was. Smaller blocks go through operator new.
#pragma once

#include <cstddef>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PSC_UTIL_HAVE_MMAP 1
#else
#define PSC_UTIL_HAVE_MMAP 0
#endif

namespace psc::util {

/// Smallest block MappedAllocator maps directly (glibc's default mmap
/// threshold).
inline constexpr std::size_t kMappedMinBytes = std::size_t{128} << 10;

template <typename T>
class MappedAllocator {
 public:
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if PSC_UTIL_HAVE_MMAP
    if (bytes >= kMappedMinBytes) {
      void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (block == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(block);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* block, std::size_t n) noexcept {
#if PSC_UTIL_HAVE_MMAP
    if (n * sizeof(T) >= kMappedMinBytes) {
      ::munmap(block, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(block);
  }

  friend bool operator==(const MappedAllocator&, const MappedAllocator&) {
    return true;
  }
};

}  // namespace psc::util
