// Step 3: gapped extension of the seed pairs that survived step 2,
// E-value scoring and duplicate suppression (paper, section 2.1: "The
// third step is much more complex. The search space is augmented by the
// possibility to consider gaps.").
#pragma once

#include <cstdint>
#include <vector>

#include "align/gapped_simd.hpp"
#include "align/hit.hpp"
#include "bio/substitution_matrix.hpp"
#include "core/options.hpp"
#include "core/result.hpp"

namespace psc::core {

struct Step3Result {
  std::vector<Match> matches;       ///< finalized (deduped, E-sorted)
  std::uint64_t extensions = 0;     ///< gapped extensions actually run
  /// Kernel the extensions actually dispatched to (options.step3_kernel
  /// resolved against the CPU and matrix/gap configuration).
  align::GappedKernel kernel = align::GappedKernel::kScalar;
};

/// Extends every hit whose seed is not already covered by an accepted
/// alignment of the same sequence pair, filters at options.e_value_cutoff
/// and finalizes the match list. Parallel over sequence-pair groups when
/// options.step3_threads is not 1 (0 = hardware concurrency; on
/// options.executor, or the shared executor); the result is identical
/// to the sequential walk either way.
Step3Result run_step3(const bio::SequenceBank& bank0,
                      const bio::SequenceBank& bank1,
                      std::vector<align::SeedPairHit> hits,
                      const bio::SubstitutionMatrix& matrix,
                      const PipelineOptions& options);

}  // namespace psc::core
