// Fixed-length seed neighbourhoods: the substrings S0, S1 "of length
// 2N + W composed of a seed of W characters with its left and right
// extensions of N characters" (paper, section 2.2) that the ungapped
// kernel and the PSC processing elements score.
//
// Positions that fall outside the sequence are padded with X, which scores
// mildly negative against everything under BLOSUM62; a maximal-scoring
// segment therefore never benefits from running into the padding, and the
// fixed window length the hardware requires is preserved.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/sequence.hpp"
#include "index/index_table.hpp"

namespace psc::index {

/// Geometry of the ungapped window.
struct WindowShape {
  std::size_t seed_width = 4;  ///< W
  std::size_t flank = 30;      ///< N

  std::size_t length() const { return seed_width + 2 * flank; }
};

/// A batch of equal-length windows stored back to back, each tagged with
/// the occurrence it came from. This is the flat stream format the RASC
/// input controllers DMA into the operator.
class WindowBatch {
 public:
  explicit WindowBatch(std::size_t window_length)
      : window_length_(window_length) {}

  std::size_t window_length() const { return window_length_; }
  std::size_t size() const { return sources_.size(); }
  bool empty() const { return sources_.empty(); }

  void clear() {
    residues_.clear();
    sources_.clear();
  }

  /// Sizes the storage for `windows` windows in one allocation.
  void reserve(std::size_t windows) {
    residues_.reserve(windows * window_length_);
    sources_.reserve(windows);
  }

  /// Residues of window i.
  std::span<const std::uint8_t> window(std::size_t i) const {
    return {residues_.data() + i * window_length_, window_length_};
  }

  const Occurrence& source(std::size_t i) const { return sources_[i]; }
  const std::vector<std::uint8_t>& flat() const { return residues_; }

  /// Replaces the contents with windows [first, first + count) of `from`,
  /// which must have the same window length (reuses storage).
  void assign(const WindowBatch& from, std::size_t first, std::size_t count);

  /// Appends the window centred on `occ`'s seed in `bank`, padding with X
  /// where the flank extends past either end of the sequence.
  void append(const bio::SequenceBank& bank, const Occurrence& occ,
              const WindowShape& shape);

 private:
  std::size_t window_length_;
  std::vector<std::uint8_t> residues_;
  std::vector<Occurrence> sources_;
};

/// Extracts windows for every occurrence in `list` into `out` (cleared
/// first, then sized once for the whole list). `out`'s window length must
/// equal shape.length().
void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out);

/// A WindowBatch transposed into striped (position-major) order for the
/// SIMD many-vs-one screen: residue of window i at position k lives at
/// position(k)[i], so the 32 windows a vector register carries read 32
/// contiguous bytes per position instead of 32 strided ones. The window
/// count is padded to a multiple of kLaneWidth with X so kernels never
/// need a remainder loop; padded lanes score like real windows and their
/// results are simply dropped.
class StripedWindows {
 public:
  /// Windows per vector group; matches the 32 x 8-bit lanes of a 256-bit
  /// register and the portable tier's lane arrays.
  static constexpr std::size_t kLaneWidth = 32;

  /// Rebuilds the striped image of `batch` (reuses storage across calls).
  void assign(const WindowBatch& batch);

  std::size_t window_length() const { return window_length_; }
  std::size_t size() const { return count_; }          ///< real windows
  std::size_t padded_size() const { return stride_; }  ///< incl. X lanes
  bool empty() const { return count_ == 0; }

  /// The padded_size() residues of position k, one byte per window.
  const std::uint8_t* position(std::size_t k) const {
    return residues_.data() + k * stride_;
  }

 private:
  std::size_t window_length_ = 0;
  std::size_t count_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::uint8_t> residues_;
};

}  // namespace psc::index
