#include "bio/complexity.hpp"

#include <array>
#include <cmath>
#include <vector>

namespace psc::bio {

double shannon_entropy_bits(std::span<const std::uint8_t> residues) {
  std::array<std::size_t, kNumAminoAcids> counts{};
  std::size_t total = 0;
  for (const std::uint8_t r : residues) {
    if (r < kNumAminoAcids) {
      ++counts[r];
      ++total;
    }
  }
  if (total == 0) return 0.0;
  double entropy = 0.0;
  for (const std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    entropy -= p * std::log2(p);
  }
  return entropy;
}

namespace {

std::size_t mask_residues(std::span<std::uint8_t> residues,
                          const MaskConfig& config) {
  const std::size_t n = residues.size();
  if (n < config.window || config.window == 0) return 0;

  // Mark low-entropy windows first, then mask in one sweep, so
  // overlapping windows don't see already-masked (X) residues.
  std::vector<bool> mask(n, false);
  for (std::size_t begin = 0; begin + config.window <= n; ++begin) {
    const double entropy = shannon_entropy_bits(
        {residues.data() + begin, config.window});
    if (entropy < config.min_entropy_bits) {
      for (std::size_t k = 0; k < config.window; ++k) mask[begin + k] = true;
    }
  }
  std::size_t masked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask[i] && residues[i] != kUnknownX) {
      residues[i] = kUnknownX;
      ++masked;
    }
  }
  return masked;
}

}  // namespace

std::size_t mask_low_complexity(Sequence& sequence, const MaskConfig& config) {
  if (sequence.kind() != SequenceKind::kProtein) return 0;
  return mask_residues(sequence.mutable_residues(), config);
}

std::size_t mask_low_complexity(SequenceBank& bank, const MaskConfig& config) {
  if (bank.kind() != SequenceKind::kProtein) return 0;
  std::size_t masked = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    masked += mask_residues(bank.mutable_residues(i), config);
  }
  return masked;
}

}  // namespace psc::bio
