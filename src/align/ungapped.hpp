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
                                index::WindowSpan batch,
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
                                        index::WindowSpan batch,
                                        const bio::SubstitutionMatrix& matrix,
                                        std::vector<int>& scores);

}  // namespace psc::align
