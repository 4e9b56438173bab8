#include "sim/genome_generator.hpp"

#include <array>
#include <stdexcept>

#include "bio/genetic_code.hpp"

namespace psc::sim {

namespace {

/// codons_for[aa] lists the packed codons translating to amino acid `aa`.
const std::array<std::vector<std::uint8_t>, bio::kNumAminoAcids>&
codons_by_residue() {
  static const auto kTable = [] {
    std::array<std::vector<std::uint8_t>, bio::kNumAminoAcids> table;
    const auto& code = bio::standard_genetic_code();
    for (std::uint8_t codon = 0; codon < 64; ++codon) {
      const bio::Residue aa = code[codon];
      if (aa < bio::kNumAminoAcids) table[aa].push_back(codon);
    }
    return table;
  }();
  return kTable;
}

void unpack_codon(std::uint8_t codon, std::uint8_t out[3]) {
  out[0] = static_cast<std::uint8_t>((codon >> 4) & 0x3);
  out[1] = static_cast<std::uint8_t>((codon >> 2) & 0x3);
  out[2] = static_cast<std::uint8_t>(codon & 0x3);
}

}  // namespace

bio::Sequence generate_genome(const GenomeConfig& config) {
  util::Xoshiro256 rng(config.seed);
  const double gc = config.gc_content;
  // Base composition: A=T=(1-gc)/2, C=G=gc/2, in ACGT code order.
  const std::array<double, 4> base = {(1.0 - gc) / 2.0, gc / 2.0, gc / 2.0,
                                      (1.0 - gc) / 2.0};

  // First-order transition rows: a blend of the base composition with a
  // simple dinucleotide bias (self-transition boost, CpG suppression),
  // weighted by markov_strength.
  std::array<std::array<double, 4>, 4> rows{};
  const double w = config.markov_strength;
  for (std::size_t prev = 0; prev < 4; ++prev) {
    double total = 0.0;
    for (std::size_t next = 0; next < 4; ++next) {
      double bias = (prev == next) ? 1.6 : 1.0;  // homopolymer runs
      if (prev == 1 && next == 2) bias = 0.25;   // CpG depletion
      rows[prev][next] = base[next] * ((1.0 - w) + w * bias);
      total += rows[prev][next];
    }
    // Turn into cumulative distribution for sampling.
    double acc = 0.0;
    for (std::size_t next = 0; next < 4; ++next) {
      acc += rows[prev][next] / total;
      rows[prev][next] = acc;
    }
  }
  std::array<double, 4> base_cum{};
  {
    double acc = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
      acc += base[i];
      base_cum[i] = acc;
    }
  }

  std::vector<std::uint8_t> data;
  data.reserve(config.length);
  std::uint8_t prev = 0;
  for (std::size_t i = 0; i < config.length; ++i) {
    const auto& cum = (i == 0) ? base_cum : rows[prev];
    const double u = rng.uniform();
    std::uint8_t next = 3;
    for (std::uint8_t c = 0; c < 4; ++c) {
      if (u < cum[c]) {
        next = c;
        break;
      }
    }
    data.push_back(next);
    prev = next;
  }
  return bio::Sequence("synthetic-genome", bio::SequenceKind::kDna,
                       std::move(data));
}

void plant_gene(bio::Sequence& genome, bio::SequenceView protein,
                std::size_t position, bool forward_strand,
                util::Xoshiro256& rng) {
  const std::size_t nt_length = 3 * protein.size();
  if (position + nt_length > genome.size()) {
    throw std::out_of_range("plant_gene: gene does not fit in genome");
  }
  auto& data = genome.mutable_residues();
  const auto& codon_table = codons_by_residue();

  std::vector<std::uint8_t> gene;
  gene.reserve(nt_length);
  std::uint8_t nt[3];
  for (std::size_t i = 0; i < protein.size(); ++i) {
    bio::Residue aa = protein[i];
    if (aa >= bio::kNumAminoAcids) aa = 0;  // degrade ambiguity codes to A
    const auto& codons = codon_table[aa];
    unpack_codon(codons[rng.bounded(codons.size())], nt);
    gene.push_back(nt[0]);
    gene.push_back(nt[1]);
    gene.push_back(nt[2]);
  }

  if (forward_strand) {
    for (std::size_t i = 0; i < nt_length; ++i) data[position + i] = gene[i];
  } else {
    // Write the reverse complement so the reverse strand reads the gene.
    for (std::size_t i = 0; i < nt_length; ++i) {
      data[position + i] = bio::complement(gene[nt_length - 1 - i]);
    }
  }
}

std::vector<PlantedGene> plant_bank(bio::Sequence& genome,
                                    const bio::SequenceBank& bank,
                                    util::Xoshiro256& rng,
                                    std::size_t spacing) {
  std::size_t needed = 0;
  for (const auto& protein : bank) needed += 3 * protein.size() + spacing;
  if (needed > genome.size()) {
    throw std::invalid_argument("plant_bank: genome too small for bank");
  }

  // Distribute the slack as random inter-gene gaps, keeping order fixed.
  const std::size_t slack = genome.size() - needed;
  std::vector<PlantedGene> plants;
  plants.reserve(bank.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    cursor += spacing / 2 + rng.bounded(slack / bank.size() + 1);
    const bool forward = rng.chance(0.5);
    const std::size_t nt_length = 3 * bank[i].size();
    if (cursor + nt_length > genome.size()) {
      cursor = genome.size() - nt_length;  // clamp the final stragglers
    }
    plant_gene(genome, bank[i], cursor, forward, rng);
    plants.push_back(PlantedGene{cursor, forward, i, bank[i].size()});
    cursor += nt_length + spacing / 2;
  }
  return plants;
}

}  // namespace psc::sim
