// Residue-indexed substitution rows: the substitution matrix laid out so
// the ungapped kernel's two-level gather
//
//     matrix[ s0[k] ][ s1[k] ]      (row select, then column select)
//
// becomes one row pointer per IL0 residue and one indexed byte load per
// IL1 residue
//
//     rows.row(s0[k])[ s1[k] ]        (stored + bias(), see below)
//
// Every residue code 0..255 owns one row of 32 u8 cells (the 24-letter
// alphabet padded to a power-of-two stride). Rows and padding columns past
// the alphabet hold the X scores, so any code reads what
// SubstitutionMatrix::score would return for it and the row lookup needs
// no clamp or bounds check. Each cell is stored pre-biased, as
// score + bias() with bias() = max(0, -min score), so the 8-bit step-2
// screen (align/ungapped_simd.hpp) adds it with unsigned saturation and
// never widens. This is the software form of a PE's substitution ROM:
// built once per matrix and engine, addressed by the (IL0 residue, IL1
// residue) pair and never rebuilt per window. The SIMD kernel also
// exploits that a 32-entry u8 row fits in two 128-bit registers, so the
// column lookup is a pair of in-register shuffles (AVX2) or one vpermb
// (AVX-512 VBMI) instead of a memory gather.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/substitution_matrix.hpp"

namespace psc::align {

class SubstitutionRows {
 public:
  /// Cells per row: the 24-letter alphabet padded to 32 so rows stay
  /// register-aligned and any encoded IL1 residue (< 32) indexes a cell.
  static constexpr std::size_t kStride = 32;
  /// One row per 8-bit residue code.
  static constexpr std::size_t kRows = 256;

  /// The bias that makes every cell of `matrix` non-negative.
  static int bias_for(const bio::SubstitutionMatrix& matrix) noexcept;

  /// True when every biased cell of `matrix` fits u8, i.e. the matrix
  /// spans at most 255 score units (BLOSUM-family matrices span [-4, 11];
  /// only exotic custom matrices fail, and those fall back to the scalar
  /// kernels).
  static bool representable(const bio::SubstitutionMatrix& matrix) noexcept;

  /// Builds the table. Throws std::invalid_argument unless
  /// representable(matrix).
  explicit SubstitutionRows(const bio::SubstitutionMatrix& matrix);

  /// Biased substitution row of IL0 residue `code`:
  /// row(a)[b] == score(a, b) + bias() for every code a and every
  /// b < kStride.
  const std::uint8_t* row(std::uint8_t code) const noexcept {
    return cells_.data() + std::size_t{code} * kStride;
  }

  int bias() const noexcept { return bias_; }
  /// The highest running score an 8-bit lane can carry: 255 - bias().
  int ceiling() const noexcept { return 255 - bias_; }

 private:
  int bias_;
  std::vector<std::uint8_t> cells_;
};

}  // namespace psc::align
