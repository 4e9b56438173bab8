#include "align/substitution_rows.hpp"

#include <algorithm>
#include <stdexcept>

namespace psc::align {

int SubstitutionRows::bias_for(const bio::SubstitutionMatrix& matrix) noexcept {
  return std::max(0, -static_cast<int>(matrix.min_score()));
}

bool SubstitutionRows::representable(
    const bio::SubstitutionMatrix& matrix) noexcept {
  return static_cast<int>(matrix.max_score()) + bias_for(matrix) <= 255;
}

SubstitutionRows::SubstitutionRows(const bio::SubstitutionMatrix& matrix)
    : bias_(bias_for(matrix)), cells_(kRows * kStride) {
  if (!representable(matrix)) {
    throw std::invalid_argument(
        "SubstitutionRows: biased matrix scores exceed the u8 range");
  }
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    std::uint8_t* row = cells_.data() + a * kStride;
    for (std::size_t c = 0; c < kStride; ++c) {
      // Padding columns clamp to X inside score().
      row[c] = static_cast<std::uint8_t>(
          matrix.score(static_cast<bio::Residue>(a),
                       static_cast<bio::Residue>(c)) +
          bias_);
    }
  }
  // Codes past the alphabet read the X row, as score() clamps them.
  const std::uint8_t* x_row = cells_.data() + bio::kUnknownX * kStride;
  for (std::size_t a = bio::kProteinAlphabetSize; a < kRows; ++a) {
    std::copy_n(x_row, kStride, cells_.data() + a * kStride);
  }
}

}  // namespace psc::align
