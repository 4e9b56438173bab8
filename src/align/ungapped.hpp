// The paper's ungapped-extension kernel (section 2.2): given two
// fixed-length windows around a shared seed, compute the maximal score of
// a contiguous segment under a substitution matrix -- a one-dimensional
// Smith-Waterman pass (running sum clamped at zero, track the maximum).
// This is exactly the add/max datapath each PSC processing element
// implements in W + 2N clock cycles, so the scalar routine here is the
// golden reference the cycle simulator is tested against.
//
// Note on the paper's pseudocode: the listing reads
//     score = max(score, score + Sub[S0[k]][S1[k]])
// which, taken literally, would sum only the positive substitution costs.
// The intended (and hardware-meaningful) recurrence is the classic
//     score = max(0, score + Sub[S0[k]][S1[k]])
// i.e. the best-scoring contiguous run; we implement that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bio/substitution_matrix.hpp"
#include "index/neighborhood.hpp"

namespace psc::align {

/// Maximal contiguous-segment score of the two equal-length windows.
int ungapped_window_score(std::span<const std::uint8_t> s0,
                          std::span<const std::uint8_t> s1,
                          const bio::SubstitutionMatrix& matrix) noexcept;

/// One-versus-many form mirroring a processing element's duty: one IL0
/// window against every window of an IL1 batch. Scores are appended to
/// `scores` (resized to batch.size()).
void ungapped_score_one_vs_many(std::span<const std::uint8_t> s0,
                                const index::WindowBatch& batch,
                                const bio::SubstitutionMatrix& matrix,
                                std::vector<int>& scores);

/// Blocked one-versus-many: identical results to the scalar form, but
/// scores four IL1 windows per pass with independent accumulators so the
/// substitution-row load for s0[k] is shared and the adds/max pipeline
/// across windows -- the software analogue of the PE array's SIMD
/// parallelism, and the kernel the host step-2 backends run. It indexes
/// the matrix directly, so residues must be encoder codes
/// (< bio::kProteinAlphabetSize), as every extracted window's are.
void ungapped_score_one_vs_many_blocked(std::span<const std::uint8_t> s0,
                                        const index::WindowBatch& batch,
                                        const bio::SubstitutionMatrix& matrix,
                                        std::vector<int>& scores);

/// All-pairs form used by the host step-2 backends: every IL0 window
/// against every IL1 window; `emit(i0, i1, score)` is called for each pair
/// whose score is >= threshold. Kept in one translation unit so the
/// compiler can keep the substitution row in cache across the inner loop.
template <typename Emit>
void ungapped_score_all_pairs(const index::WindowBatch& batch0,
                              const index::WindowBatch& batch1,
                              const bio::SubstitutionMatrix& matrix,
                              int threshold, Emit&& emit) {
  const std::size_t len = batch0.window_length();
  // Window residues come from the encoder (always < 24), so raw matrix
  // indexing is safe and keeps this inner loop -- 97% of the software
  // pipeline's time -- branch-light.
  const auto* cells = matrix.cells().data();
  for (std::size_t i0 = 0; i0 < batch0.size(); ++i0) {
    const std::uint8_t* a = batch0.window(i0).data();
    for (std::size_t i1 = 0; i1 < batch1.size(); ++i1) {
      const std::uint8_t* b = batch1.window(i1).data();
      int score = 0;
      int best = 0;
      for (std::size_t k = 0; k < len; ++k) {
        score += cells[a[k] * bio::kProteinAlphabetSize + b[k]];
        if (score < 0) score = 0;
        if (score > best) best = score;
      }
      if (best >= threshold) emit(i0, i1, best);
    }
  }
}

}  // namespace psc::align
