// Fixed-length seed neighbourhoods: the substrings S0, S1 "of length
// 2N + W composed of a seed of W characters with its left and right
// extensions of N characters" (paper, section 2.2) that the ungapped
// kernel and the PSC processing elements score.
//
// Positions that fall outside the sequence read the X padding of the
// bank's arena (bio::SequenceBank), which scores mildly negative against
// everything under BLOSUM62; a maximal-scoring segment therefore never
// benefits from running into the padding, and the fixed window length
// the hardware requires is preserved. Because the arena pads every
// sequence by SequenceBank::kPadding residues on both sides, a window is
// read in place for every flank up to that pad: no copy, no clamp.
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
  std::size_t flank = 30;      ///< N; at most bio::SequenceBank::kPadding

  std::size_t length() const { return seed_width + 2 * flank; }
};

/// One window of a stream: where its residues start in the bank's arena,
/// and the occurrence it was cut around.
struct WindowRef {
  const std::uint8_t* residues = nullptr;
  Occurrence source;
};

/// The first residue of `occ`'s window in `bank`'s arena. `occ` must be a
/// word start of `bank` (offset + seed_width <= length, as every index
/// occurrence is) and shape.flank <= SequenceBank::kPadding.
inline const std::uint8_t* window_start(const bio::SequenceBank& bank,
                                        const Occurrence& occ,
                                        const WindowShape& shape) {
  return bank.arena() + bank.start(occ.sequence) + occ.offset - shape.flank;
}

/// A read-only run of equal-length windows: the flat stream format the
/// RASC input controllers DMA into the operator, as a list of window
/// views into the banks' arenas. Cheap to copy; valid while the batch it
/// came from and the banks stay unchanged.
class WindowSpan {
 public:
  WindowSpan() = default;
  WindowSpan(std::span<const WindowRef> refs, std::size_t window_length)
      : refs_(refs), window_length_(window_length) {}

  std::size_t window_length() const { return window_length_; }
  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }

  /// Residues of window i.
  std::span<const std::uint8_t> window(std::size_t i) const {
    return {refs_[i].residues, window_length_};
  }
  const Occurrence& source(std::size_t i) const { return refs_[i].source; }

  /// Windows [first, first + count), without copying; throws
  /// std::out_of_range past the end.
  WindowSpan subspan(std::size_t first, std::size_t count) const;

 private:
  std::span<const WindowRef> refs_;
  std::size_t window_length_ = 0;
};

/// An owned list of windows, each tagged with the occurrence it came
/// from. Holds pointers into the banks it was built from, which must
/// outlive it and not be added to while it is in use.
class WindowBatch {
 public:
  explicit WindowBatch(std::size_t window_length)
      : window_length_(window_length) {}

  std::size_t window_length() const { return window_length_; }
  std::size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }

  void clear() { refs_.clear(); }

  /// Sizes the storage for `windows` windows in one allocation.
  void reserve(std::size_t windows) { refs_.reserve(windows); }

  /// Residues of window i.
  std::span<const std::uint8_t> window(std::size_t i) const {
    return {refs_[i].residues, window_length_};
  }
  const Occurrence& source(std::size_t i) const { return refs_[i].source; }

  operator WindowSpan() const { return {refs_, window_length_}; }  // NOLINT

  /// Windows [first, first + count), without copying.
  WindowSpan subspan(std::size_t first, std::size_t count) const {
    return WindowSpan(*this).subspan(first, count);
  }

  /// Appends the window centred on `occ`'s seed in `bank`. Throws
  /// std::invalid_argument when the shape does not give this batch's
  /// window length or its flank exceeds SequenceBank::kPadding, and
  /// std::out_of_range when the window would reach past the padding
  /// after the sequence (offset + seed_width + flank > length + pad).
  void append(const bio::SequenceBank& bank, const Occurrence& occ,
              const WindowShape& shape);

 private:
  friend void extract_windows(const bio::SequenceBank& bank,
                              std::span<const Occurrence> list,
                              const WindowShape& shape, WindowBatch& out);

  std::size_t window_length_;
  std::vector<WindowRef> refs_;
};

/// Replaces `out`'s windows with the window of every occurrence in
/// `list`, sized once for the whole list. `out`'s window length must
/// equal shape.length() and shape.flank must not exceed
/// SequenceBank::kPadding (std::invalid_argument otherwise); each
/// occurrence must be a word start of `bank`, as index lists are.
void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out);

/// A window stream transposed into striped (position-major) order for the
/// SIMD many-vs-one screen: residue of window i at position k lives at
/// position(k)[i], so the 32 windows a vector register carries read 32
/// contiguous bytes per position instead of 32 strided ones. The window
/// count is padded to a multiple of kLaneWidth with X so kernels never
/// need a remainder loop; padded lanes score like real windows and their
/// results are simply dropped.
class StripedWindows {
 public:
  /// Windows per vector group; matches the 32 x 8-bit lanes of a 256-bit
  /// register and the portable tier's lane arrays (the AVX-512 tier
  /// screens two groups per 512-bit register, and a last odd group on
  /// 256 bits).
  static constexpr std::size_t kLaneWidth = 32;

  /// Rebuilds the striped image of `windows`, gathered from their arena
  /// rows (reuses storage across calls).
  void assign(WindowSpan windows);

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
  std::vector<std::uint8_t> pad_row_;  ///< X row for the padding lanes
};

}  // namespace psc::index
