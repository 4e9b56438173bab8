#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include "bio/translate.hpp"
#include "core/pipeline.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"

namespace psc::core {
namespace {

struct TestData {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::Sequence genome;

  explicit TestData(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 6; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 120, rng));
    }
    sim::GenomeConfig config;
    config.length = 30000;
    config.seed = seed;
    genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[1], divergence, rng),
                    5000, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[4], divergence, rng),
                    15001, false, rng);
  }
};

HybridOptions make_options() {
  HybridOptions options;
  options.base.rasc.psc.num_pes = 64;
  options.gap.num_lanes = 8;
  options.gap.band = 12;
  options.gap.window_length = 128;
  options.gap.threshold = 40;
  return options;
}

TEST(HybridPipeline, FindsSameMatchesAsPlainPipeline) {
  const TestData data(1);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));

  PipelineOptions plain;
  plain.backend = Step2Backend::kRasc;
  plain.rasc.psc.num_pes = 64;
  const PipelineResult reference =
      run_pipeline(data.proteins, genome_bank, plain);

  const HybridResult hybrid =
      run_hybrid_pipeline(data.proteins, genome_bank, make_options());

  ASSERT_EQ(hybrid.matches.size(), reference.matches.size());
  for (std::size_t i = 0; i < hybrid.matches.size(); ++i) {
    EXPECT_EQ(hybrid.matches[i].bank0_sequence,
              reference.matches[i].bank0_sequence);
    EXPECT_EQ(hybrid.matches[i].bank1_sequence,
              reference.matches[i].bank1_sequence);
    EXPECT_EQ(hybrid.matches[i].alignment.score,
              reference.matches[i].alignment.score);
  }
}

TEST(HybridPipeline, ScreenReducesHostWork) {
  const TestData data(2);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));
  const HybridResult hybrid =
      run_hybrid_pipeline(data.proteins, genome_bank, make_options());
  // The banded screen must discard a meaningful share of step-2 hits
  // before the host sees them.
  EXPECT_LT(hybrid.screen_survivors, hybrid.counters.step2_hits);
  EXPECT_EQ(hybrid.gap_stats.pairs, hybrid.counters.step2_hits);
  EXPECT_EQ(hybrid.gap_stats.survivors, hybrid.screen_survivors);
}

TEST(HybridPipeline, TimingFieldsPopulated) {
  const TestData data(3);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));
  const HybridResult hybrid =
      run_hybrid_pipeline(data.proteins, genome_bank, make_options());
  EXPECT_GT(hybrid.step1_seconds, 0.0);
  EXPECT_GT(hybrid.psc_seconds, 0.0);
  EXPECT_GT(hybrid.gap_seconds, 0.0);
  EXPECT_GE(hybrid.overall_seconds(),
            hybrid.step1_seconds + std::max(hybrid.psc_seconds,
                                            hybrid.gap_seconds));
  // Overlapped stages: overall is less than a serial sum would be.
  EXPECT_LT(hybrid.overall_seconds(),
            hybrid.step1_seconds + hybrid.psc_seconds + hybrid.gap_seconds +
                hybrid.host_step3_seconds + 1e-9);
}

TEST(HybridPipeline, TightScreenDropsMatches) {
  const TestData data(4);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));
  HybridOptions loose = make_options();
  HybridOptions absurd = make_options();
  absurd.gap.threshold = 10000;  // nothing passes
  const HybridResult a =
      run_hybrid_pipeline(data.proteins, genome_bank, loose);
  const HybridResult b =
      run_hybrid_pipeline(data.proteins, genome_bank, absurd);
  EXPECT_FALSE(a.matches.empty());
  EXPECT_TRUE(b.matches.empty());
  EXPECT_EQ(b.screen_survivors, 0u);
}

TEST(HybridPipeline, ForcesSingleFpgaForPsc) {
  const TestData data(5);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));
  HybridOptions options = make_options();
  options.base.rasc.num_fpgas = 2;  // must be overridden internally
  const HybridResult hybrid =
      run_hybrid_pipeline(data.proteins, genome_bank, options);
  EXPECT_GT(hybrid.psc_stats.cycles_total(), 0u);
}

TEST(HybridPipeline, GapWindowFlankBeyondTheBankPaddingThrows) {
  // The 128-residue default window has a flank of 62; the gapped windows
  // are read in place, so a flank past the arena padding is refused.
  const TestData data(5);
  const bio::SequenceBank genome_bank =
      bio::frames_to_bank(bio::translate_six_frames(data.genome));
  HybridOptions options = make_options();
  const std::size_t width = options.base.shape.seed_width;
  options.gap.window_length = width + 2 * bio::SequenceBank::kPadding;
  EXPECT_NO_THROW(run_hybrid_pipeline(data.proteins, genome_bank, options));
  options.gap.window_length = width + 2 * (bio::SequenceBank::kPadding + 1);
  EXPECT_THROW(run_hybrid_pipeline(data.proteins, genome_bank, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::core
