// Synthetic genome generation. Stands in for the paper's Human
// chromosome 1 (220 Mnt, NCBI Mar. 2008): an order-k Markov DNA sequence
// with controllable GC content, plus support for planting (reverse-)
// translated gene copies so the comparison stages have real homologies to
// find.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/sequence.hpp"
#include "util/rng.hpp"

namespace psc::sim {

struct GenomeConfig {
  std::size_t length = 2'200'000;  ///< nucleotides (paper: 220e6; default 1%)
  double gc_content = 0.41;        ///< human-like GC fraction
  /// Weight of first-order Markov structure: 0 = i.i.d., 1 = strongly
  /// correlated dinucleotides (CpG suppression etc. are approximated).
  double markov_strength = 0.3;
  std::uint64_t seed = 1;
};

/// Record of a gene planted into a genome.
struct PlantedGene {
  std::size_t genome_begin = 0;  ///< first nucleotide of the coding region
  bool forward_strand = true;
  std::size_t protein_index = 0;  ///< which source protein it encodes
  std::size_t protein_length = 0;
};

/// Generates a random genome under the config.
bio::Sequence generate_genome(const GenomeConfig& config);

/// Reverse-translates `protein` into DNA using uniformly chosen synonymous
/// codons and writes it into `genome` at `position` (forward strand) or as
/// its reverse complement (reverse strand). The written region replaces
/// existing nucleotides; the caller guarantees it fits.
void plant_gene(bio::Sequence& genome, bio::SequenceView protein,
                std::size_t position, bool forward_strand,
                util::Xoshiro256& rng);
inline void plant_gene(bio::Sequence& genome, const bio::Sequence& protein,
                       std::size_t position, bool forward_strand,
                       util::Xoshiro256& rng) {
  plant_gene(genome, protein.view(), position, forward_strand, rng);
}

/// Plants every protein of `bank` at random non-overlapping positions and
/// strands. Returns the plant records (sorted by position). Throws if the
/// genome is too small to fit them all with `spacing` nucleotides between
/// consecutive genes.
std::vector<PlantedGene> plant_bank(bio::Sequence& genome,
                                    const bio::SequenceBank& bank,
                                    util::Xoshiro256& rng,
                                    std::size_t spacing = 200);

}  // namespace psc::sim
