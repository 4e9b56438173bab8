#include "align/ungapped.hpp"

#include <algorithm>
#include <stdexcept>

namespace psc::align {

int ungapped_window_score(std::span<const std::uint8_t> s0,
                          std::span<const std::uint8_t> s1,
                          const bio::SubstitutionMatrix& matrix) noexcept {
  const std::size_t len = s0.size() < s1.size() ? s0.size() : s1.size();
  int score = 0;
  int best = 0;
  // Branch-free max/clamp: the running score's sign is data-dependent, so
  // branches here mispredict about every other cell.
  for (std::size_t k = 0; k < len; ++k) {
    score = std::max(score + matrix.score(s0[k], s1[k]), 0);
    best = std::max(best, score);
  }
  return best;
}

void ungapped_score_one_vs_many(std::span<const std::uint8_t> s0,
                                index::WindowSpan batch,
                                const bio::SubstitutionMatrix& matrix,
                                std::vector<int>& scores) {
  if (s0.size() != batch.window_length()) {
    throw std::invalid_argument("ungapped_score_one_vs_many: length mismatch");
  }
  scores.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    scores[i] = ungapped_window_score(s0, batch.window(i), matrix);
  }
}

void ungapped_score_one_vs_many_blocked(std::span<const std::uint8_t> s0,
                                        index::WindowSpan batch,
                                        const bio::SubstitutionMatrix& matrix,
                                        std::vector<int>& scores) {
  if (s0.size() != batch.window_length()) {
    throw std::invalid_argument(
        "ungapped_score_one_vs_many_blocked: length mismatch");
  }
  const std::size_t len = s0.size();
  const std::size_t count = batch.size();
  scores.resize(count);
  const auto* cells = matrix.cells().data();
  const std::uint8_t* a = s0.data();

  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const std::uint8_t* b0 = batch.window(i).data();
    const std::uint8_t* b1 = batch.window(i + 1).data();
    const std::uint8_t* b2 = batch.window(i + 2).data();
    const std::uint8_t* b3 = batch.window(i + 3).data();
    int r0 = 0, r1 = 0, r2 = 0, r3 = 0;
    int m0 = 0, m1 = 0, m2 = 0, m3 = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const auto* row = cells + a[k] * bio::kProteinAlphabetSize;
      r0 += row[b0[k]];
      r1 += row[b1[k]];
      r2 += row[b2[k]];
      r3 += row[b3[k]];
      if (r0 < 0) r0 = 0;
      if (r1 < 0) r1 = 0;
      if (r2 < 0) r2 = 0;
      if (r3 < 0) r3 = 0;
      if (r0 > m0) m0 = r0;
      if (r1 > m1) m1 = r1;
      if (r2 > m2) m2 = r2;
      if (r3 > m3) m3 = r3;
    }
    scores[i] = m0;
    scores[i + 1] = m1;
    scores[i + 2] = m2;
    scores[i + 3] = m3;
  }
  for (; i < count; ++i) {
    scores[i] = ungapped_window_score(s0, batch.window(i), matrix);
  }
}

}  // namespace psc::align
