// psc_search: a command-line search tool over the whole BLAST-family
// surface of the library -- the conclusion's claim that the PSC design
// "can be directly reused for implementing blastp, blastx, and tblastx",
// as a runnable program.
//
//   $ ./psc_search --mode=tblastn --query=proteins.fa --subject=genome.fa
//   $ ./psc_search --mode=blastp  --query=a.fa --subject=b.fa --format=tabular
//   $ ./psc_search                                      # synthetic demo
//
// Formats: tabular (BLAST outfmt-6 style), gff3 (translated subjects
// only), pairwise (rendered alignments).
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "bio/complexity.hpp"
#include "bio/fasta.hpp"
#include "core/cli_options.hpp"
#include "core/modes.hpp"
#include "core/report.hpp"
#include "core/result_codec.hpp"
#include "service/shard_query.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/index_store.hpp"
#include "store/bank_store.hpp"
#include "store/shard_store.hpp"
#include "util/args.hpp"

namespace {

using namespace psc;

void print_pairwise(const std::vector<core::Match>& matches,
                    const bio::SequenceBank& bank0,
                    const bio::SequenceBank& bank1) {
  for (const core::Match& match : matches) {
    const bio::SequenceView s0 = bank0[match.bank0_sequence];
    const bio::SequenceView s1 = bank1[match.bank1_sequence];
    std::printf("> %.*s x %.*s  score=%d bits=%.1f E=%.2g\n",
                static_cast<int>(s0.id().size()), s0.id().data(),
                static_cast<int>(s1.id().size()), s1.id().data(),
                match.alignment.score, match.bit_score,
                match.e_value);
    if (!match.alignment.ops.empty()) {
      const auto rows =
          match.alignment.render({s0.data(), s0.size()}, {s1.data(), s1.size()});
      std::printf("  %s\n  %s\n  %s\n", rows[0].c_str(), rows[1].c_str(),
                  rows[2].c_str());
    }
  }
}

struct DemoData {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::Sequence genome;
};

DemoData make_demo() {
  DemoData demo;
  util::Xoshiro256 rng(2009);
  for (int i = 0; i < 6; ++i) {
    demo.proteins.add(
        sim::generate_protein("prot" + std::to_string(i), 150, rng));
  }
  sim::GenomeConfig config;
  config.length = 60000;
  config.seed = 2010;
  demo.genome = sim::generate_genome(config);
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.15;
  sim::plant_gene(demo.genome,
                  sim::mutate_protein(demo.proteins[1], divergence, rng),
                  12000, true, rng);
  sim::plant_gene(demo.genome,
                  sim::mutate_protein(demo.proteins[4], divergence, rng),
                  40001, false, rng);
  return demo;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("psc_search",
                       "BLAST-family search on the seed-based pipeline with "
                       "the simulated RASC-100 accelerator");
  args.add_option("mode", "tblastn", "tblastn | blastp | blastx | tblastx");
  args.add_option("query", "", "query FASTA (protein or DNA per mode)");
  args.add_option("subject", "", "subject FASTA (protein or DNA per mode)");
  args.add_option("subject-index", "",
                  "prebuilt subject store prefix from psc_index "
                  "(<prefix>.pscbank + <prefix>.pscidx); skips step-1 "
                  "indexing of the subject and implies a protein query");
  args.add_option("format", "tabular", "tabular | gff3 | pairwise");
  args.add_flag("output-binary",
                "write the versioned match encoding to stdout instead of "
                "text (diffable against psc_client --output-binary)");
  args.add_flag("mask", "mask low-complexity query regions (SEG-style)");
  // The shared flag surface (core/cli_options.hpp): psc_serve and the
  // benches register these same spellings.
  core::PipelineOptions defaults;
  defaults.backend = core::Step2Backend::kRasc;
  core::add_pipeline_options(args, defaults);
  core::add_matrix_option(args);
  if (!args.parse(argc, argv)) return 1;

  const std::string mode = args.get("mode");
  const std::string format = args.get("format");
  const bool output_binary = args.get_flag("output-binary");

  core::PipelineOptions options;
  if (!core::parse_pipeline_options(args, options)) return 1;
  bio::SubstitutionMatrix matrix;
  if (!core::parse_matrix_option(args, matrix)) return 1;
  options.with_traceback = output_binary || format != "gff3";

  // Prebuilt-subject flow: the index-once / query-many path. The store
  // remembers which seed model built the index, so the search configures
  // itself to match and step 1 only touches the query.
  if (!args.get("subject-index").empty()) {
    const std::string prefix = args.get("subject-index");
    if (args.get("query").empty()) {
      std::fprintf(stderr, "--subject-index requires --query\n");
      return 1;
    }
    if (!output_binary && format == "gff3") {
      std::fprintf(stderr,
                   "gff3 output needs genome coordinates; a prebuilt index "
                   "stores translated fragments (use tabular/pairwise)\n");
      return 1;
    }
    try {
      // A sharded store records its seed model identically in every
      // shard's index; sniff it from the first file either way.
      const bool sharded = store::manifest_exists(prefix);
      const store::IndexFileInfo info = store::inspect_index(
          (sharded ? store::shard_prefix(prefix, 0) : prefix) + ".pscidx");
      options.seed_model = core::parse_seed_model_kind(info.model_name);
      const index::SeedModel model = core::make_seed_model(options.seed_model);
      options.shape.seed_width = model.width();

      bio::SequenceBank query = bio::read_fasta_file(
          args.get("query"), bio::SequenceKind::kProtein);
      if (args.get_flag("mask")) {
        const std::size_t masked = bio::mask_low_complexity(query);
        std::fprintf(stderr, "# masked %zu low-complexity query residues\n",
                     masked);
      }
      const service::LoadedBankSet set =
          service::load_bank_set(prefix, model, /*verify_checksums=*/true);
      std::fprintf(stderr,
                   "# loaded %s: %llu subject sequence(s) across %zu "
                   "shard(s) under %s\n",
                   prefix.c_str(),
                   static_cast<unsigned long long>(set.total_sequences),
                   set.shard_count(), model.name().c_str());

      const core::PipelineResult pipeline =
          service::run_query_over_set(query, set, options, matrix);

      // Text formats index the subject bank by the matches' (global)
      // subject ids; stitch the shards back into one bank in base order.
      bio::SequenceBank subject(set.shards.front()->bank.kind());
      for (const auto& shard : set.shards) {
        for (const bio::SequenceView sequence : shard->bank) {
          subject.add(sequence);
        }
      }
      if (output_binary) {
        const std::vector<std::uint8_t> bytes =
            core::encode_matches(pipeline.matches);
        std::fwrite(bytes.data(), 1, bytes.size(), stdout);
      } else if (format == "tabular") {
        std::ostringstream out;
        core::write_tabular(out, pipeline.matches, query, subject);
        std::fputs(out.str().c_str(), stdout);
      } else {
        print_pairwise(pipeline.matches, query, subject);
      }
      std::fprintf(stderr, "# prebuilt-index search: %zu match(es); "
                   "step1 %.3f s, step2 %s: %.3f s\n",
                   pipeline.matches.size(), pipeline.times.step1_index,
                   core::backend_name(options.backend).c_str(),
                   pipeline.times.step2_ungapped);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "psc_search: %s\n", e.what());
      return 1;
    }
  }

  // Load inputs (or fall back to the demo for an arg-less run).
  const bool demo_mode = args.get("query").empty() || args.get("subject").empty();
  DemoData demo;
  bio::SequenceBank query_proteins(bio::SequenceKind::kProtein);
  bio::SequenceBank subject_proteins(bio::SequenceKind::kProtein);
  bio::Sequence query_dna, subject_dna;
  const bool query_is_dna = mode == "blastx" || mode == "tblastx";
  const bool subject_is_dna = mode == "tblastn" || mode == "tblastx";
  if (demo_mode) {
    std::fprintf(stderr, "# no --query/--subject: synthetic demo data\n");
    demo = make_demo();
    query_proteins = std::move(demo.proteins);
    subject_dna = demo.genome;
    if (query_is_dna) {
      std::fprintf(stderr, "# demo data is protein-vs-genome; use tblastn\n");
      return 1;
    }
    if (!subject_is_dna) {
      std::fprintf(stderr, "# demo data is protein-vs-genome; use tblastn\n");
      return 1;
    }
  } else {
    if (query_is_dna) {
      const auto bank =
          bio::read_fasta_file(args.get("query"), bio::SequenceKind::kDna);
      if (bank.empty()) {
        std::fprintf(stderr, "empty query FASTA\n");
        return 1;
      }
      query_dna = bio::Sequence(bank[0]);
    } else {
      query_proteins =
          bio::read_fasta_file(args.get("query"), bio::SequenceKind::kProtein);
    }
    if (subject_is_dna) {
      const auto bank =
          bio::read_fasta_file(args.get("subject"), bio::SequenceKind::kDna);
      if (bank.empty()) {
        std::fprintf(stderr, "empty subject FASTA\n");
        return 1;
      }
      subject_dna = bio::Sequence(bank[0]);
    } else {
      subject_proteins = bio::read_fasta_file(args.get("subject"),
                                              bio::SequenceKind::kProtein);
    }
  }

  if (args.get_flag("mask") && !query_is_dna) {
    const std::size_t masked = bio::mask_low_complexity(query_proteins);
    std::fprintf(stderr, "# masked %zu low-complexity query residues\n",
                 masked);
  }

  // Run the requested mode.
  core::ModeResult result;
  if (mode == "tblastn") {
    result = core::tblastn(query_proteins, subject_dna, options, matrix);
  } else if (mode == "blastp") {
    result = core::blastp(query_proteins, subject_proteins, options, matrix);
  } else if (mode == "blastx") {
    result = core::blastx(query_dna, subject_proteins, options, matrix);
  } else if (mode == "tblastx") {
    result = core::tblastx(query_dna, subject_dna, options, matrix);
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 1;
  }

  // The reporting banks: reconstruct what the pipeline actually compared.
  // (Translated sides were built inside the mode wrappers; rebuild them
  // for sequence ids/residues in the output.)
  const bio::SequenceBank bank0 =
      query_is_dna ? bio::frames_to_bank(bio::translate_six_frames(query_dna))
                   : std::move(query_proteins);
  const bio::SequenceBank bank1 =
      subject_is_dna
          ? bio::frames_to_bank(bio::translate_six_frames(subject_dna))
          : std::move(subject_proteins);

  if (output_binary) {
    const std::vector<std::uint8_t> bytes =
        core::encode_matches(result.pipeline.matches);
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  } else if (format == "tabular") {
    std::ostringstream out;
    core::write_tabular(out, result.pipeline.matches, bank0, bank1);
    std::fputs(out.str().c_str(), stdout);
  } else if (format == "gff3") {
    if (result.bank1_fragments.empty()) {
      std::fprintf(stderr, "gff3 output needs a translated subject\n");
      return 1;
    }
    std::ostringstream out;
    core::write_gff3(out, result.pipeline.matches, bank0,
                     result.bank1_fragments, subject_dna.id());
    std::fputs(out.str().c_str(), stdout);
  } else if (format == "pairwise") {
    print_pairwise(result.pipeline.matches, bank0, bank1);
  } else {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return 1;
  }

  std::fprintf(stderr, "# %s: %zu match(es); step2 %s: %.3f s\n",
               mode.c_str(), result.pipeline.matches.size(),
               core::backend_name(options.backend).c_str(),
               result.pipeline.times.step2_ungapped);
  {
    std::ostringstream step2_report;
    core::write_step2_report(step2_report, result.pipeline);
    std::fprintf(stderr, "# %s", step2_report.str().c_str());
  }
  return 0;
}
