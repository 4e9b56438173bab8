// Six-frame translation of a DNA sequence into protein frames, with the
// bookkeeping needed to map a protein-frame hit back to genome
// coordinates (tblastn reports nucleotide positions).
#pragma once

#include <cstdint>
#include <vector>

#include "bio/sequence.hpp"

namespace psc::bio {

/// One reading frame of a translated genome.
struct TranslatedFrame {
  /// +1,+2,+3 for the forward strand, -1,-2,-3 for the reverse strand
  /// (frame magnitude = 1 + offset of the first translated nucleotide).
  int frame = 0;
  Sequence protein;  ///< translated residues, stops encoded as kStop

  /// Maps a residue offset in `protein` to the 0-based genome position of
  /// the first nucleotide of its codon (on the forward strand, regardless
  /// of frame sign -- reverse-strand codons report their leftmost base).
  std::int64_t genome_position(std::size_t residue_offset,
                               std::size_t genome_length) const;
};

/// Translates all six frames. Codons containing N translate to X. The
/// translation covers floor((len - offset)/3) codons per frame.
std::vector<TranslatedFrame> translate_six_frames(SequenceView dna);
inline std::vector<TranslatedFrame> translate_six_frames(const Sequence& dna) {
  return translate_six_frames(dna.view());
}

/// Translates a single frame (frame in {+1,+2,+3,-1,-2,-3}).
TranslatedFrame translate_frame(SequenceView dna, int frame);
inline TranslatedFrame translate_frame(const Sequence& dna, int frame) {
  return translate_frame(dna.view(), frame);
}

/// Splits translated frames at stop codons into ORF-like fragments of at
/// least `min_length` residues, preserving frame/position metadata in the
/// fragment id ("<dna-id>|f<frame>|<residue-offset>"). This mirrors how
/// tblastn-style tools avoid extending across stops, and gives the
/// bank-vs-bank pipeline protein-like entries for the genome side.
SequenceBank frames_to_bank(const std::vector<TranslatedFrame>& frames,
                            std::size_t min_length = 20);

/// Provenance of one fragment produced by frames_to_bank: enough to map a
/// protein-space hit back to genome nucleotide coordinates (what tblastn
/// reports to the user).
struct FrameFragment {
  int frame = 0;                 ///< +-1..3
  std::size_t frame_offset = 0;  ///< residue offset within the frame
  std::size_t length = 0;        ///< residues in the fragment
  std::size_t genome_begin = 0;  ///< forward-strand nt range [begin, end)
  std::size_t genome_end = 0;
};

/// Same as frames_to_bank but also returns one FrameFragment per bank
/// entry (parallel arrays). `genome_length` is the source DNA length.
SequenceBank frames_to_bank_mapped(const std::vector<TranslatedFrame>& frames,
                                   std::size_t genome_length,
                                   std::size_t min_length,
                                   std::vector<FrameFragment>& fragments);

}  // namespace psc::bio
