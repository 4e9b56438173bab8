// Genome annotation -- the paper's motivating workflow (section 1):
// compare a set of known proteins against a full genome to locate coding
// regions. The genome is six-frame translated; the bank-versus-bank
// pipeline (step 2 on the simulated RASC-100) finds the similarities; hits
// are reported as GFF3-style lines with genome nucleotide coordinates.
//
//   $ ./annotate_genome                         # synthetic demo data
//   $ ./annotate_genome --proteins=p.fa --genome=g.fa   # your FASTA files
#include <cstdio>
#include <sstream>
#include <string>

#include "bio/fasta.hpp"
#include "bio/translate.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "util/args.hpp"

namespace {

/// Demo inputs: a synthetic genome with planted, diverged gene copies.
void make_demo_data(psc::bio::SequenceBank& proteins,
                    psc::bio::Sequence& genome) {
  using namespace psc;
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 12; ++i) {
    proteins.add(sim::generate_protein("prot" + std::to_string(i), 180, rng));
  }
  sim::GenomeConfig config;
  config.length = 120000;
  config.seed = 8;
  genome = sim::generate_genome(config);

  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.2;
  divergence.indel_rate = 0.005;
  std::size_t position = 10000;
  for (const std::size_t i : {0u, 2u, 5u, 9u}) {
    const bio::Sequence copy = sim::mutate_protein(proteins[i], divergence, rng);
    sim::plant_gene(genome, copy, position, (i % 2) == 0, rng);
    position += 25000;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psc;

  util::ArgParser args("annotate_genome",
                       "locate protein homologies in a genome (tblastn-style "
                       "workflow on the simulated RASC-100)");
  args.add_option("proteins", "", "protein bank FASTA (empty: synthetic demo)");
  args.add_option("genome", "", "genome FASTA (empty: synthetic demo)");
  args.add_option("pes", "192", "number of PSC processing elements");
  args.add_option("fpgas", "1", "simulated FPGAs (1 or 2)");
  args.add_option("evalue", "1e-3", "E-value cutoff");
  if (!args.parse(argc, argv)) return 1;

  bio::SequenceBank proteins(bio::SequenceKind::kProtein);
  bio::Sequence genome;
  if (args.get("proteins").empty() || args.get("genome").empty()) {
    std::fprintf(stderr, "# using synthetic demo data "
                         "(--proteins/--genome to supply FASTA)\n");
    make_demo_data(proteins, genome);
  } else {
    proteins = bio::read_fasta_file(args.get("proteins"),
                                    bio::SequenceKind::kProtein);
    const bio::SequenceBank genomes =
        bio::read_fasta_file(args.get("genome"), bio::SequenceKind::kDna);
    if (genomes.empty()) {
      std::fprintf(stderr, "genome FASTA is empty\n");
      return 1;
    }
    genome = bio::Sequence(genomes[0]);
  }

  // Translate with coordinate mapping so hits can be located on the genome.
  std::vector<bio::FrameFragment> fragments;
  const bio::SequenceBank genome_bank = bio::frames_to_bank_mapped(
      bio::translate_six_frames(genome), genome.size(), 20, fragments);

  core::PipelineOptions options;
  options.backend = core::Step2Backend::kRasc;
  options.rasc.psc.num_pes = static_cast<std::size_t>(args.get_int("pes"));
  options.rasc.num_fpgas = static_cast<std::size_t>(args.get_int("fpgas"));
  options.e_value_cutoff = args.get_double("evalue");

  const core::PipelineResult result =
      core::run_pipeline(proteins, genome_bank, options);

  // GFF3 output through the library's reporter.
  std::ostringstream gff;
  core::write_gff3(gff, result.matches, proteins, fragments, genome.id());
  std::fputs(gff.str().c_str(), stdout);

  std::fprintf(stderr,
               "# step1 %.3fs | step2 %.3fs (modeled, %zu PE x %zu FPGA, "
               "util %.1f%%) | step3 %.3fs | %zu matches\n",
               result.times.step1_index, result.times.step2_ungapped,
               options.rasc.psc.num_pes, options.rasc.num_fpgas,
               100.0 * result.operator_stats.utilization(),
               result.times.step3_gapped, result.matches.size());
  return 0;
}
