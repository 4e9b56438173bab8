#include "index/neighborhood.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace psc::index {

namespace {

void check_flank(const WindowShape& shape, const char* who) {
  if (shape.flank > bio::SequenceBank::kPadding) {
    throw std::invalid_argument(std::string(who) +
                                ": flank exceeds the bank padding");
  }
}

}  // namespace

WindowSpan WindowSpan::subspan(std::size_t first, std::size_t count) const {
  if (first > size() || count > size() - first) {
    throw std::out_of_range("WindowSpan::subspan: range past end");
  }
  return {refs_.subspan(first, count), window_length_};
}

void WindowBatch::append(const bio::SequenceBank& bank, const Occurrence& occ,
                         const WindowShape& shape) {
  if (shape.length() != window_length_) {
    throw std::invalid_argument(
        "WindowBatch::append: shape/window length mismatch");
  }
  check_flank(shape, "WindowBatch::append");
  if (occ.sequence >= bank.size() ||
      std::size_t{occ.offset} + shape.seed_width + shape.flank >
          bank.length(occ.sequence) + bio::SequenceBank::kPadding) {
    throw std::out_of_range(
        "WindowBatch::append: window reaches past the sequence padding");
  }
  refs_.push_back(WindowRef{window_start(bank, occ, shape), occ});
}

void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out) {
  if (shape.length() != out.window_length()) {
    throw std::invalid_argument(
        "extract_windows: shape/window length mismatch");
  }
  check_flank(shape, "extract_windows");
  out.clear();
  out.reserve(list.size());
  for (const Occurrence& occ : list) {
    out.refs_.push_back(WindowRef{window_start(bank, occ, shape), occ});
  }
}

namespace {

// 16-byte vectors in the GCC/Clang vector extension: the transpose below
// compiles to SSE2 unpacks on x86 and to zips on NEON, one source for all.
using U8x16 = std::uint8_t __attribute__((vector_size(16)));

/// Transposes the 16 x 16 byte block whose row i starts at rows[i] + k:
/// byte k + j of row i lands at dst + j * dst_stride + i.
/// Interleaving the bytes of rows i and i + 8 into rows 2i and 2i + 1
/// rotates each byte's 8-bit (row, column) index left by one bit, so four
/// such passes swap row and column.
void transpose16(const std::uint8_t* const* src, std::size_t k,
                 std::uint8_t* dst, std::size_t dst_stride) {
  U8x16 rows[16];
  for (std::size_t i = 0; i < 16; ++i) {
    std::memcpy(&rows[i], src[i] + k, sizeof(U8x16));
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

void StripedWindows::assign(WindowSpan windows) {
  // A lane group is two 16 x 16 transpose blocks side by side; each block
  // gathers its 16 rows by pointer, padding lanes reading an X row.
  constexpr std::size_t kBlock = 16;
  static_assert(kLaneWidth % kBlock == 0, "transpose16 moves 16-lane blocks");
  window_length_ = windows.window_length();
  count_ = windows.size();
  stride_ = (count_ + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
  residues_.resize(window_length_ * stride_);
  pad_row_.resize(window_length_, bio::kUnknownX);
  const std::size_t length = window_length_;
  const std::size_t blocked = length / kBlock * kBlock;
  const std::uint8_t* rows[kBlock];
  for (std::size_t g = 0; g < stride_; g += kBlock) {
    for (std::size_t l = 0; l < kBlock; ++l) {
      rows[l] = g + l < count_ ? windows.window(g + l).data() : pad_row_.data();
    }
    for (std::size_t k = 0; k < blocked; k += kBlock) {
      transpose16(rows, k, residues_.data() + k * stride_ + g, stride_);
    }
    // Positions past the last whole block.
    for (std::size_t k = blocked; k < length; ++k) {
      std::uint8_t* dst = residues_.data() + k * stride_ + g;
      for (std::size_t l = 0; l < kBlock; ++l) dst[l] = rows[l][k];
    }
  }
}

}  // namespace psc::index
