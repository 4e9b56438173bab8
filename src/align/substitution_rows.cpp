#include "align/substitution_rows.hpp"

#include <algorithm>
#include <stdexcept>

namespace psc::align {

bool SubstitutionRows::representable(
    const bio::SubstitutionMatrix& matrix) noexcept {
  return matrix.min_score() >= -128 && matrix.max_score() <= 127;
}

SubstitutionRows::SubstitutionRows(const bio::SubstitutionMatrix& matrix)
    : cells_(kRows * kStride) {
  if (!representable(matrix)) {
    throw std::invalid_argument(
        "SubstitutionRows: matrix scores exceed int8 range");
  }
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    std::int8_t* row = cells_.data() + a * kStride;
    for (std::size_t c = 0; c < kStride; ++c) {
      // Padding columns clamp to X inside score().
      row[c] = static_cast<std::int8_t>(matrix.score(
          static_cast<bio::Residue>(a), static_cast<bio::Residue>(c)));
    }
  }
  // Codes past the alphabet read the X row, as score() clamps them.
  const std::int8_t* x_row = cells_.data() + bio::kUnknownX * kStride;
  for (std::size_t a = bio::kProteinAlphabetSize; a < kRows; ++a) {
    std::copy_n(x_row, kStride, cells_.data() + a * kStride);
  }
}

}  // namespace psc::align
