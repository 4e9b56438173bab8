#include "sim/protein_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace psc::sim {

namespace {
const std::array<double, bio::kNumAminoAcids>& residue_cumulative() {
  static const auto kCum = [] {
    std::array<double, bio::kNumAminoAcids> cum{};
    double acc = 0.0;
    const auto& freq = bio::robinson_frequencies();
    for (std::size_t i = 0; i < freq.size(); ++i) {
      acc += freq[i];
      cum[i] = acc;
    }
    cum.back() = 1.0 + 1e-12;  // guard against rounding at the tail
    return cum;
  }();
  return kCum;
}
}  // namespace

bio::Sequence generate_protein(std::string id, std::size_t length,
                               util::Xoshiro256& rng) {
  const auto& cum = residue_cumulative();
  std::vector<std::uint8_t> data;
  data.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double u = rng.uniform();
    std::size_t r = 0;
    while (r + 1 < cum.size() && u >= cum[r]) ++r;
    data.push_back(static_cast<std::uint8_t>(r));
  }
  return bio::Sequence(std::move(id), bio::SequenceKind::kProtein,
                       std::move(data));
}

bio::SequenceBank generate_protein_bank(const ProteinBankConfig& config) {
  util::Xoshiro256 rng(config.seed);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.reserve(config.count, config.count * config.mean_length);
  for (std::size_t i = 0; i < config.count; ++i) {
    // Right-skewed length model: exponential around the mean, clamped.
    const double u = std::max(rng.uniform(), 1e-12);
    const double raw =
        static_cast<double>(config.mean_length) * (-std::log(u));
    const std::size_t length = std::clamp<std::size_t>(
        static_cast<std::size_t>(raw), config.min_length, config.max_length);
    bank.add(generate_protein(config.id_prefix + std::to_string(i), length,
                              rng));
  }
  return bank;
}

}  // namespace psc::sim
