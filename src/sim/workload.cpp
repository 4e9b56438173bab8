#include "sim/workload.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "bio/translate.hpp"
#include "sim/protein_generator.hpp"
#include "util/logging.hpp"

namespace psc::sim {

const std::vector<std::pair<std::string, std::size_t>>& paper_bank_sizes() {
  static const std::vector<std::pair<std::string, std::size_t>> kSizes = {
      {"1K", 1000}, {"3K", 3000}, {"10K", 10000}, {"30K", 30000}};
  return kSizes;
}

std::size_t paper_genome_size() { return 220'000'000; }

double scale_from_env() {
  const char* env = std::getenv("PSC_SCALE");
  if (env == nullptr || *env == '\0') return 0.01;
  const std::string value(env);
  if (value == "small") return 0.01;
  if (value == "medium") return 0.05;
  if (value == "large") return 0.2;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() && parsed > 0.0 && parsed <= 1.0) return parsed;
  util::log_warn() << "PSC_SCALE='" << value << "' not understood; using small (0.01)";
  return 0.01;
}

PaperWorkload build_paper_workload(const ScaledWorkloadConfig& config) {
  if (config.scale <= 0.0 || config.scale > 1.0) {
    throw std::invalid_argument("build_paper_workload: scale must be in (0,1]");
  }
  const double bank_scale =
      config.bank_scale > 0.0 ? config.bank_scale : config.scale;
  if (bank_scale > 1.0) {
    throw std::invalid_argument("build_paper_workload: bank_scale > 1");
  }
  util::Xoshiro256 rng(config.seed);

  // Largest bank first; smaller banks are prefixes of it.
  const auto& sizes = paper_bank_sizes();
  const std::size_t largest = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(sizes.back().second) *
                                  bank_scale));
  ProteinBankConfig bank_config;
  bank_config.count = largest;
  bank_config.seed = rng();
  bio::SequenceBank all_proteins = generate_protein_bank(bank_config);

  PaperWorkload out;

  // Genome with planted homologs of a sample of the bank.
  GenomeConfig genome_config;
  genome_config.length = std::max<std::size_t>(
      50'000, static_cast<std::size_t>(
                  static_cast<double>(paper_genome_size()) * config.scale));
  genome_config.seed = rng();
  out.genome = generate_genome(genome_config);

  bio::SequenceBank planted(bio::SequenceKind::kProtein);
  util::Xoshiro256 plant_rng(rng());
  for (std::size_t i = 0; i < all_proteins.size(); ++i) {
    if (!plant_rng.chance(config.planted_fraction)) continue;
    bio::Sequence copy =
        mutate_protein(all_proteins[i], config.plant_divergence, plant_rng);
    // Cap planted gene length so small genomes can hold the sample.
    if (copy.size() > 600) copy = copy.subsequence(0, 600);
    planted.add(std::move(copy));
  }
  if (!planted.empty()) {
    out.planted_genes = plant_bank(out.genome, planted, plant_rng).size();
  }

  // Six-frame translation, split at stop codons (tblastn-style).
  out.genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(out.genome),
                          config.orf_min_length);

  // Nested scaled banks.
  for (const auto& [label, paper_count] : sizes) {
    PaperBank bank;
    bank.label = label;
    bank.paper_count = paper_count;
    const std::size_t scaled = std::max<std::size_t>(
        2, static_cast<std::size_t>(static_cast<double>(paper_count) *
                                    bank_scale));
    const std::size_t take = std::min(scaled, all_proteins.size());
    bank.proteins = bio::SequenceBank(bio::SequenceKind::kProtein);
    std::size_t residues = 0;
    for (std::size_t i = 0; i < take; ++i) residues += all_proteins.length(i);
    bank.proteins.reserve(take, residues);
    for (std::size_t i = 0; i < take; ++i) {
      bank.proteins.add(all_proteins[i]);
    }
    out.banks.push_back(std::move(bank));
  }
  return out;
}

}  // namespace psc::sim
