#include "index/neighborhood.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace psc::index {

void WindowBatch::append(const bio::SequenceBank& bank, const Occurrence& occ,
                         const WindowShape& shape) {
  if (shape.length() != window_length_) {
    throw std::invalid_argument(
        "WindowBatch::append: shape/window length mismatch");
  }
  const bio::Sequence& seq = bank[occ.sequence];
  const auto length = static_cast<std::int64_t>(window_length_);
  const std::int64_t begin = static_cast<std::int64_t>(occ.offset) -
                             static_cast<std::int64_t>(shape.flank);
  // In-sequence window positions [lo, hi), copied in one piece; X pads
  // only what falls off either end. Empty when the window lies wholly
  // past the sequence end.
  const std::int64_t lo = std::clamp<std::int64_t>(-begin, 0, length);
  const std::int64_t hi = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(seq.size()) - begin, lo, length);
  const std::size_t base = residues_.size();
  residues_.resize(base + window_length_);
  std::uint8_t* dst = residues_.data() + base;
  std::fill(dst, dst + lo, bio::kUnknownX);
  if (hi > lo) {
    std::memcpy(dst + lo, seq.data() + (begin + lo),
                static_cast<std::size_t>(hi - lo));
  }
  std::fill(dst + hi, dst + length, bio::kUnknownX);
  sources_.push_back(occ);
}

void WindowBatch::assign(const WindowBatch& from, std::size_t first,
                         std::size_t count) {
  if (from.window_length_ != window_length_) {
    throw std::invalid_argument("WindowBatch::assign: window length mismatch");
  }
  if (first > from.size() || count > from.size() - first) {
    throw std::out_of_range("WindowBatch::assign: range past end of batch");
  }
  const auto begin = static_cast<std::ptrdiff_t>(first);
  const auto end = static_cast<std::ptrdiff_t>(first + count);
  const auto length = static_cast<std::ptrdiff_t>(window_length_);
  residues_.assign(from.residues_.begin() + begin * length,
                   from.residues_.begin() + end * length);
  sources_.assign(from.sources_.begin() + begin,
                  from.sources_.begin() + end);
}

void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out) {
  out.clear();
  out.reserve(list.size());
  for (const Occurrence& occ : list) out.append(bank, occ, shape);
}

namespace {

// 16-byte vectors in the GCC/Clang vector extension: the transpose below
// compiles to SSE2 unpacks on x86 and to zips on NEON, one source for all.
using U8x16 = std::uint8_t __attribute__((vector_size(16)));

/// Transposes the 16 x 16 byte block whose row i starts at
/// src + i * src_stride: byte k of row i lands at dst + k * dst_stride + i.
/// Interleaving the bytes of rows i and i + 8 into rows 2i and 2i + 1
/// rotates each byte's 8-bit (row, column) index left by one bit, so four
/// such passes swap row and column.
void transpose16(const std::uint8_t* src, std::size_t src_stride,
                 std::uint8_t* dst, std::size_t dst_stride) {
  U8x16 rows[16];
  for (std::size_t i = 0; i < 16; ++i) {
    std::memcpy(&rows[i], src + i * src_stride, sizeof(U8x16));
  }
  for (int pass = 0; pass < 4; ++pass) {
    U8x16 next[16];
    for (std::size_t i = 0; i < 8; ++i) {
      next[2 * i] = __builtin_shufflevector(rows[i], rows[i + 8], 0, 16, 1, 17,
                                            2, 18, 3, 19, 4, 20, 5, 21, 6, 22,
                                            7, 23);
      next[2 * i + 1] = __builtin_shufflevector(rows[i], rows[i + 8], 8, 24, 9,
                                                25, 10, 26, 11, 27, 12, 28, 13,
                                                29, 14, 30, 15, 31);
    }
    std::copy(std::begin(next), std::end(next), std::begin(rows));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    std::memcpy(dst + i * dst_stride, &rows[i], sizeof(U8x16));
  }
}

}  // namespace

void StripedWindows::assign(const WindowBatch& batch) {
  // A lane group is two 16 x 16 transpose blocks side by side.
  constexpr std::size_t kBlock = 16;
  static_assert(kLaneWidth % kBlock == 0, "transpose16 moves 16-lane blocks");
  window_length_ = batch.window_length();
  count_ = batch.size();
  stride_ = (count_ + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
  residues_.resize(window_length_ * stride_);
  const std::uint8_t* flat = batch.flat().data();
  const std::size_t length = window_length_;
  const std::size_t blocked = length / kBlock * kBlock;
  std::uint8_t block[kBlock * kBlock];
  for (std::size_t g = 0; g < stride_; g += kBlock) {
    if (g >= count_) {
      // The all-padding second block of the last group.
      for (std::size_t k = 0; k < length; ++k) {
        std::memset(residues_.data() + k * stride_ + g, bio::kUnknownX, kBlock);
      }
      continue;
    }
    const std::size_t lanes = std::min(kBlock, count_ - g);
    for (std::size_t k = 0; k < blocked; k += kBlock) {
      std::uint8_t* dst = residues_.data() + k * stride_ + g;
      if (lanes == kBlock) {
        transpose16(flat + g * length + k, length, dst, stride_);
        continue;
      }
      // The last, partial block: stage its windows in an X-filled block.
      std::fill(std::begin(block), std::end(block), bio::kUnknownX);
      for (std::size_t l = 0; l < lanes; ++l) {
        std::memcpy(block + l * kBlock, flat + (g + l) * length + k, kBlock);
      }
      transpose16(block, kBlock, dst, stride_);
    }
    // Positions past the last whole block.
    for (std::size_t k = blocked; k < length; ++k) {
      std::uint8_t* dst = residues_.data() + k * stride_ + g;
      for (std::size_t l = 0; l < kBlock; ++l) {
        dst[l] = l < lanes ? flat[(g + l) * length + k] : bio::kUnknownX;
      }
    }
  }
}

}  // namespace psc::index
