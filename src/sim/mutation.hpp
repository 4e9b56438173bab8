// Protein mutation model for building homolog families: substitutions are
// drawn proportionally to exp(BLOSUM62 score) against the original residue
// (so conservative replacements dominate, as in real divergence), and
// short indels occur at a configurable rate. Used to derive family members
// from ancestor proteins and mutated gene copies for planting.
#pragma once

#include <cstdint>

#include "bio/sequence.hpp"
#include "util/rng.hpp"

namespace psc::sim {

struct MutationConfig {
  /// Per-residue probability of substitution (0.3 ~= distant homolog).
  double substitution_rate = 0.2;
  /// Per-residue probability of starting an indel.
  double indel_rate = 0.01;
  /// Indel lengths are 1 + geometric(indel_extend).
  double indel_extend = 0.5;
  /// Temperature for the BLOSUM-conditioned substitution distribution;
  /// higher = more conservative replacements.
  double conservation = 1.0;
};

/// Returns a mutated copy of `protein` (id gets a "|mut" suffix).
bio::Sequence mutate_protein(bio::SequenceView protein,
                             const MutationConfig& config,
                             util::Xoshiro256& rng);
inline bio::Sequence mutate_protein(const bio::Sequence& protein,
                                    const MutationConfig& config,
                                    util::Xoshiro256& rng) {
  return mutate_protein(protein.view(), config, rng);
}

/// Expected fraction of identical residues after mutation (ignoring
/// indels): 1 - substitution_rate * (1 - P[self-replacement]).
double expected_identity(const MutationConfig& config);

}  // namespace psc::sim
