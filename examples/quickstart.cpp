// Quickstart: the smallest end-to-end use of the library.
//
// Builds a toy protein bank and a toy "genome bank" (here: another protein
// bank sharing one diverged sequence), runs the three-step seed-based
// comparison pipeline on the simulated RASC-100 backend, and prints the
// matches with their alignments.
//
//   $ ./quickstart
#include <cstdio>
#include <span>

#include "core/pipeline.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"

int main() {
  using namespace psc;

  // --- 1. Make two banks with a planted homology --------------------------
  util::Xoshiro256 rng(2009);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);

  const bio::Sequence ancestor = sim::generate_protein("ancestor", 150, rng);
  bank0.add(bio::Sequence("query-protein", bio::SequenceKind::kProtein,
                          std::vector<std::uint8_t>(ancestor.residues())));
  bank0.add(sim::generate_protein("query-noise", 120, rng));

  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.2;  // ~80% identity homolog
  bank1.add(sim::mutate_protein(ancestor, divergence, rng));
  bank1.add(sim::generate_protein("subject-noise-1", 200, rng));
  bank1.add(sim::generate_protein("subject-noise-2", 180, rng));

  // --- 2. Configure the pipeline ------------------------------------------
  core::PipelineOptions options;
  options.backend = core::Step2Backend::kRasc;  // simulated accelerator
  options.rasc.psc.num_pes = 64;
  options.with_traceback = true;  // we want printable alignments

  // --- 3. Run --------------------------------------------------------------
  const core::PipelineResult result = core::run_pipeline(bank0, bank1, options);

  // --- 4. Report ------------------------------------------------------------
  std::printf("pipeline: %llu seed pairs scored, %llu passed threshold, "
              "%zu match(es)\n\n",
              static_cast<unsigned long long>(result.counters.step2_pairs),
              static_cast<unsigned long long>(result.counters.step2_hits),
              result.matches.size());

  for (const core::Match& match : result.matches) {
    const bio::SequenceView s0 = bank0[match.bank0_sequence];
    const bio::SequenceView s1 = bank1[match.bank1_sequence];
    std::printf("%.*s x %.*s  score=%d  bits=%.1f  E=%.2g\n",
                static_cast<int>(s0.id().size()), s0.id().data(),
                static_cast<int>(s1.id().size()), s1.id().data(),
                match.alignment.score, match.bit_score,
                match.e_value);
    const auto rows = match.alignment.render(
        {s0.data(), s0.size()}, {s1.data(), s1.size()});
    std::printf("  %s\n  %s\n  %s\n\n", rows[0].c_str(), rows[1].c_str(),
                rows[2].c_str());
  }

  std::printf("modeled accelerator time: %.3f ms (%llu cycles @ 100 MHz, "
              "utilization %.1f%%)\n",
              1e3 * result.times.step2_ungapped,
              static_cast<unsigned long long>(
                  result.operator_stats.cycles_total()),
              100.0 * result.operator_stats.utilization());
  std::printf("(dominated by the one-time %.1f s bitstream load -- real "
              "workloads amortize it; see bench/table2_overall)\n",
              rasc::PlatformConfig{}.bitstream_load_seconds);
  return 0;
}
