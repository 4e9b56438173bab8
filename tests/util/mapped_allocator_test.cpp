#include "util/mapped_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace psc::util {
namespace {

TEST(MappedAllocator, SmallAndMappedBlocksHoldTheirContents) {
  // Below and at the mapping threshold, and past it by growth: every
  // block must be writable and keep what the vector copied into it.
  for (const std::size_t bytes :
       {std::size_t{64}, kMappedMinBytes - 1, kMappedMinBytes,
        3 * kMappedMinBytes + 5}) {
    std::vector<std::uint32_t, MappedAllocator<std::uint32_t>> values;
    for (std::size_t i = 0; i < bytes / sizeof(std::uint32_t); ++i) {
      values.push_back(static_cast<std::uint32_t>(i));
    }
    std::vector<std::uint32_t> expected(values.size());
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_TRUE(std::equal(values.begin(), values.end(), expected.begin()))
        << bytes;
  }
}

TEST(MappedAllocator, DirectBlocksAreAlignedAndReleasable) {
  MappedAllocator<std::uint64_t> allocator;
  const std::size_t count = 2 * kMappedMinBytes / sizeof(std::uint64_t);
  std::uint64_t* block = allocator.allocate(count);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) % alignof(std::uint64_t),
            0u);
  block[0] = 1;
  block[count - 1] = 2;
  EXPECT_EQ(block[0] + block[count - 1], 3u);
  allocator.deallocate(block, count);
}

}  // namespace
}  // namespace psc::util
