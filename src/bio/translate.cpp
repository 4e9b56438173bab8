#include "bio/translate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bio/genetic_code.hpp"

namespace psc::bio {

std::int64_t TranslatedFrame::genome_position(std::size_t residue_offset,
                                              std::size_t genome_length) const {
  const auto off = static_cast<std::int64_t>(residue_offset);
  if (frame > 0) {
    return (frame - 1) + 3 * off;
  }
  // Reverse strand: residue 0 comes from the 3' end of the forward strand.
  // Its codon occupies forward positions [L - shift - 3*(off+1), ... +2].
  const auto length = static_cast<std::int64_t>(genome_length);
  const std::int64_t shift = -frame - 1;
  return length - shift - 3 * (off + 1);
}

TranslatedFrame translate_frame(SequenceView dna, int frame) {
  if (dna.kind() != SequenceKind::kDna) {
    throw std::invalid_argument("translate_frame: input is not DNA");
  }
  if (frame == 0 || frame > 3 || frame < -3) {
    throw std::invalid_argument("translate_frame: frame must be in [-3,-1] or [1,3]");
  }
  const std::size_t length = dna.size();
  const std::size_t shift = static_cast<std::size_t>(frame > 0 ? frame - 1 : -frame - 1);

  std::vector<std::uint8_t> protein;
  if (length >= shift + 3) {
    const std::size_t codons = (length - shift) / 3;
    protein.reserve(codons);
    if (frame > 0) {
      for (std::size_t c = 0; c < codons; ++c) {
        const std::size_t p = shift + 3 * c;
        protein.push_back(translate_codon(dna[p], dna[p + 1], dna[p + 2]));
      }
    } else {
      // Reverse complement read 3' -> 5' of the forward strand.
      for (std::size_t c = 0; c < codons; ++c) {
        const std::size_t p = length - shift - 3 * c;  // one past codon end
        protein.push_back(translate_codon(complement(dna[p - 1]),
                                          complement(dna[p - 2]),
                                          complement(dna[p - 3])));
      }
    }
  }

  TranslatedFrame out;
  out.frame = frame;
  out.protein = Sequence(std::string(dna.id()) + "|f" + std::to_string(frame),
                         SequenceKind::kProtein, std::move(protein));
  return out;
}

std::vector<TranslatedFrame> translate_six_frames(SequenceView dna) {
  std::vector<TranslatedFrame> frames;
  frames.reserve(6);
  for (int f : {1, 2, 3, -1, -2, -3}) {
    frames.push_back(translate_frame(dna, f));
  }
  return frames;
}

namespace {
SequenceBank split_frames(const std::vector<TranslatedFrame>& frames,
                          std::size_t min_length, std::size_t genome_length,
                          std::vector<FrameFragment>* fragments) {
  SequenceBank bank(SequenceKind::kProtein);
  // Size the bank once: a translated genome is tens of thousands of
  // fragments, and growing the arena would copy it log-many times.
  std::size_t fragment_count = 0;
  std::size_t fragment_residues = 0;
  for (const TranslatedFrame& tf : frames) {
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= tf.protein.size(); ++i) {
      if (i < tf.protein.size() && tf.protein[i] != kStop) continue;
      if (i - begin >= min_length) {
        ++fragment_count;
        fragment_residues += i - begin;
      }
      begin = i + 1;
    }
  }
  bank.reserve(fragment_count, fragment_residues);
  for (const TranslatedFrame& tf : frames) {
    const auto& residues = tf.protein.residues();
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= residues.size(); ++i) {
      const bool at_break = i == residues.size() || residues[i] == kStop;
      if (!at_break) continue;
      const std::size_t len = i - begin;
      if (len >= min_length) {
        const std::string id = tf.protein.id() + "|" + std::to_string(begin);
        bank.add(SequenceView(id, SequenceKind::kProtein,
                              ResidueSpan(residues.data() + begin, len)));
        if (fragments != nullptr) {
          FrameFragment record;
          record.frame = tf.frame;
          record.frame_offset = begin;
          record.length = len;
          // Nucleotide span on the forward strand: both strands are
          // normalized to [leftmost base of farthest codon, one past
          // rightmost base of nearest codon).
          const std::int64_t first =
              tf.genome_position(begin, genome_length);
          const std::int64_t last =
              tf.genome_position(i - 1, genome_length);
          const std::int64_t lo = std::min(first, last);
          const std::int64_t hi = std::max(first, last) + 3;
          record.genome_begin = static_cast<std::size_t>(std::max<std::int64_t>(lo, 0));
          record.genome_end = static_cast<std::size_t>(hi);
          fragments->push_back(record);
        }
      }
      begin = i + 1;
    }
  }
  return bank;
}
}  // namespace

SequenceBank frames_to_bank(const std::vector<TranslatedFrame>& frames,
                            std::size_t min_length) {
  return split_frames(frames, min_length, 0, nullptr);
}

SequenceBank frames_to_bank_mapped(const std::vector<TranslatedFrame>& frames,
                                   std::size_t genome_length,
                                   std::size_t min_length,
                                   std::vector<FrameFragment>& fragments) {
  fragments.clear();
  return split_frames(frames, min_length, genome_length, &fragments);
}

}  // namespace psc::bio
