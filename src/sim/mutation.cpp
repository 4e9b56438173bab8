#include "sim/mutation.hpp"

#include <array>
#include <cmath>

#include "bio/substitution_matrix.hpp"

namespace psc::sim {

namespace {

/// Cumulative substitution distributions: row r gives the distribution of
/// replacement residues for original residue r, proportional to
/// p_j * exp(conservation * blosum62(r, j)) over j != r.
struct SubstitutionModel {
  std::array<std::array<double, bio::kNumAminoAcids>, bio::kNumAminoAcids> cum{};
  std::array<double, bio::kNumAminoAcids> self_weight{};

  explicit SubstitutionModel(double conservation) {
    const auto& matrix = bio::SubstitutionMatrix::blosum62();
    const auto& freq = bio::robinson_frequencies();
    for (std::size_t r = 0; r < bio::kNumAminoAcids; ++r) {
      double acc = 0.0;
      for (std::size_t j = 0; j < bio::kNumAminoAcids; ++j) {
        if (j != r) {
          acc += freq[j] * std::exp(conservation *
                                    matrix.score(static_cast<bio::Residue>(r),
                                                 static_cast<bio::Residue>(j)));
        }
        cum[r][j] = acc;
      }
      for (std::size_t j = 0; j < bio::kNumAminoAcids; ++j) cum[r][j] /= acc;
    }
  }
};

}  // namespace

bio::Sequence mutate_protein(bio::SequenceView protein,
                             const MutationConfig& config,
                             util::Xoshiro256& rng) {
  // The model object is cheap relative to mutating whole banks; rebuild
  // when the conservation parameter changes.
  static thread_local double cached_conservation = -1.0;
  static thread_local SubstitutionModel* model = nullptr;
  if (model == nullptr || cached_conservation != config.conservation) {
    delete model;
    model = new SubstitutionModel(config.conservation);
    cached_conservation = config.conservation;
  }

  std::vector<std::uint8_t> out;
  out.reserve(protein.size() + 8);
  const auto& freq_cum = [] {
    std::array<double, bio::kNumAminoAcids> cum{};
    double acc = 0.0;
    for (std::size_t i = 0; i < bio::kNumAminoAcids; ++i) {
      acc += bio::robinson_frequencies()[i];
      cum[i] = acc;
    }
    return cum;
  }();

  auto sample_background = [&]() -> std::uint8_t {
    const double u = rng.uniform() * freq_cum.back();
    std::size_t r = 0;
    while (r + 1 < freq_cum.size() && u >= freq_cum[r]) ++r;
    return static_cast<std::uint8_t>(r);
  };

  for (std::size_t i = 0; i < protein.size(); ++i) {
    if (rng.chance(config.indel_rate)) {
      std::size_t len = 1;
      while (rng.chance(config.indel_extend)) ++len;
      if (rng.chance(0.5)) {
        // Deletion: skip `len` residues (including this one).
        i += len - 1;
        continue;
      }
      // Insertion of `len` background residues before this one.
      for (std::size_t k = 0; k < len; ++k) out.push_back(sample_background());
    }

    std::uint8_t residue = protein[i];
    if (residue < bio::kNumAminoAcids && rng.chance(config.substitution_rate)) {
      const auto& cum = model->cum[residue];
      const double u = rng.uniform();
      std::size_t j = 0;
      while (j + 1 < cum.size() && u >= cum[j]) ++j;
      residue = static_cast<std::uint8_t>(j);
    }
    out.push_back(residue);
  }

  return bio::Sequence(std::string(protein.id()) + "|mut",
                       bio::SequenceKind::kProtein, std::move(out));
}

double expected_identity(const MutationConfig& config) {
  // Substituted residues are always changed (self excluded from the
  // replacement distribution), so identity is simply 1 - rate.
  return 1.0 - config.substitution_rate;
}

}  // namespace psc::sim
