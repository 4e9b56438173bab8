#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"

namespace psc::core {
namespace {

struct TestBanks {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::Sequence genome;

  explicit TestBanks(std::uint64_t seed, std::size_t n_proteins = 5,
                 std::size_t genome_length = 20000) {
    util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < n_proteins; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = genome_length;
    config.seed = seed;
    genome = sim::generate_genome(config);
    // Plant diverged copies of proteins 0 and 2.
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    const bio::Sequence copy0 =
        sim::mutate_protein(proteins[0], divergence, rng);
    const bio::Sequence copy2 =
        sim::mutate_protein(proteins[2], divergence, rng);
    sim::plant_gene(genome, copy0, 3000, true, rng);
    sim::plant_gene(genome, copy2, 9001, false, rng);
  }
};

TEST(Pipeline, HostSequentialFindsPlantedGenes) {
  const TestBanks banks(1);
  PipelineOptions options;
  options.backend = Step2Backend::kHostSequential;
  const PipelineResult result =
      run_pipeline_genome(banks.proteins, banks.genome, options);

  ASSERT_FALSE(result.matches.empty());
  bool found0 = false, found2 = false;
  for (const Match& match : result.matches) {
    if (match.bank0_sequence == 0) found0 = true;
    if (match.bank0_sequence == 2) found2 = true;
  }
  EXPECT_TRUE(found0);
  EXPECT_TRUE(found2);  // reverse-strand plant found via frame -1/-2/-3
  EXPECT_GT(result.counters.step2_pairs, 0u);
  EXPECT_GE(result.counters.step2_hits, result.counters.step3_extensions);
}

TEST(Pipeline, StepTimesPopulated) {
  const TestBanks banks(2);
  PipelineOptions options;
  const PipelineResult result =
      run_pipeline_genome(banks.proteins, banks.genome, options);
  EXPECT_GT(result.times.step1_index, 0.0);
  EXPECT_GT(result.times.step2_ungapped, 0.0);
  EXPECT_GT(result.times.step3_gapped, 0.0);
  EXPECT_NEAR(result.times.percent(result.times.step1_index) +
                  result.times.percent(result.times.step2_ungapped) +
                  result.times.percent(result.times.step3_gapped),
              100.0, 1e-6);
}

TEST(Pipeline, HostParallelMatchesSequential) {
  const TestBanks banks(3);
  PipelineOptions sequential;
  sequential.backend = Step2Backend::kHostSequential;
  PipelineOptions parallel;
  parallel.backend = Step2Backend::kHostParallel;
  parallel.host_threads = 3;

  const PipelineResult a =
      run_pipeline_genome(banks.proteins, banks.genome, sequential);
  const PipelineResult b =
      run_pipeline_genome(banks.proteins, banks.genome, parallel);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  EXPECT_EQ(a.counters.step2_pairs, b.counters.step2_pairs);
  EXPECT_EQ(a.counters.step2_hits, b.counters.step2_hits);
  EXPECT_EQ(a.counters.step3_extensions, b.counters.step3_extensions);
  EXPECT_EQ(b.counters.step3_eager_extensions, b.counters.step3_extensions);
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].bank0_sequence, b.matches[i].bank0_sequence);
    EXPECT_EQ(a.matches[i].alignment.score, b.matches[i].alignment.score);
  }
}

TEST(Pipeline, HostParallelWithNoHitsYieldsNothing) {
  // Nothing reaches the threshold: step 2 scores pairs but emits no
  // hit, and step 3 must finish cleanly with zero work.
  const TestBanks banks(12, 3, 10000);
  PipelineOptions options;
  options.backend = Step2Backend::kHostParallel;
  options.set_threads(4);
  options.ungapped_threshold = 1000;  // unreachable
  const PipelineResult result =
      run_pipeline_genome(banks.proteins, banks.genome, options);
  EXPECT_GT(result.counters.step2_pairs, 0u);
  EXPECT_EQ(result.counters.step2_hits, 0u);
  EXPECT_EQ(result.counters.step3_extensions, 0u);
  EXPECT_EQ(result.counters.step3_eager_extensions, 0u);
  EXPECT_TRUE(result.matches.empty());
}

TEST(Pipeline, RascBackendMatchesHostMatches) {
  const TestBanks banks(4);
  PipelineOptions host;
  host.backend = Step2Backend::kHostSequential;
  PipelineOptions rasc;
  rasc.backend = Step2Backend::kRasc;
  rasc.rasc.psc.num_pes = 32;
  rasc.rasc.psc.slot_size = 8;

  const PipelineResult a =
      run_pipeline_genome(banks.proteins, banks.genome, host);
  const PipelineResult b =
      run_pipeline_genome(banks.proteins, banks.genome, rasc);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].bank0_sequence, b.matches[i].bank0_sequence);
    EXPECT_EQ(a.matches[i].bank1_sequence, b.matches[i].bank1_sequence);
    EXPECT_EQ(a.matches[i].alignment.score, b.matches[i].alignment.score);
  }
  // Step-2 and step-3 counters agree too.
  EXPECT_EQ(a.counters.step2_pairs, b.counters.step2_pairs);
  EXPECT_EQ(a.counters.step2_hits, b.counters.step2_hits);
  EXPECT_EQ(a.counters.step3_extensions, b.counters.step3_extensions);
  EXPECT_EQ(b.counters.step3_eager_extensions, b.counters.step3_extensions);
  // RASC populates accelerator reporting.
  EXPECT_EQ(b.fpga_reports.size(), 1u);
  EXPECT_GT(b.operator_stats.cycles_total(), 0u);
  EXPECT_GT(b.times.step2_ungapped, 0.0);
}

TEST(Pipeline, RascModeledTimeIndependentOfHostWallTime) {
  const TestBanks banks(5);
  PipelineOptions options;
  options.backend = Step2Backend::kRasc;
  options.rasc.psc.num_pes = 64;
  const PipelineResult result =
      run_pipeline_genome(banks.proteins, banks.genome, options);
  // The modeled time is cycles/clock + transfers, not the simulation wall
  // time.
  const double expected =
      result.fpga_reports[0].compute_seconds +
      result.fpga_reports[0].transfer_seconds +
      result.fpga_reports[0].overhead_seconds;
  EXPECT_NEAR(result.times.step2_ungapped, expected, 1e-9);
}

TEST(Pipeline, MorePesReduceModeledStep2TimeWhenListsAreLong) {
  // More PEs only pay off when IL0 index lists exceed the array (the
  // paper's small-bank caveat, section 4.1). Fifty copies of the same
  // protein give every populated key a 50-deep IL0 list, so a 16-PE array
  // needs 4 rounds where a 64-PE array needs one.
  const TestBanks banks(6, 5, 40000);
  bio::SequenceBank dense(bio::SequenceKind::kProtein);
  for (int copy = 0; copy < 50; ++copy) {
    dense.add(bio::SequenceView("c" + std::to_string(copy),
                                bio::SequenceKind::kProtein,
                                banks.proteins.residues(0)));
  }
  PipelineOptions small;
  small.backend = Step2Backend::kRasc;
  small.rasc.psc.num_pes = 16;
  PipelineOptions large = small;
  large.rasc.psc.num_pes = 64;
  const PipelineResult a = run_pipeline_genome(dense, banks.genome, small);
  const PipelineResult b = run_pipeline_genome(dense, banks.genome, large);
  EXPECT_LT(b.operator_stats.cycles_total(), a.operator_stats.cycles_total());
  EXPECT_GT(a.operator_stats.rounds, b.operator_stats.rounds);
}

TEST(Pipeline, ThresholdControlsStep2Hits) {
  const TestBanks banks(7);
  PipelineOptions loose;
  loose.ungapped_threshold = 25;
  PipelineOptions tight;
  tight.ungapped_threshold = 45;
  const PipelineResult a =
      run_pipeline_genome(banks.proteins, banks.genome, loose);
  const PipelineResult b =
      run_pipeline_genome(banks.proteins, banks.genome, tight);
  EXPECT_GT(a.counters.step2_hits, b.counters.step2_hits);
}

TEST(Pipeline, CompositionStatsAdjustEValues) {
  const TestBanks banks(10);
  PipelineOptions plain;
  PipelineOptions adjusted;
  adjusted.composition_based_stats = true;
  const PipelineResult a =
      run_pipeline_genome(banks.proteins, banks.genome, plain);
  const PipelineResult b =
      run_pipeline_genome(banks.proteins, banks.genome, adjusted);
  ASSERT_FALSE(a.matches.empty());
  ASSERT_FALSE(b.matches.empty());
  // The planted homologies survive either statistic (borderline random
  // matches may flip across the E-value cutoff as lambda shifts).
  auto found = [](const PipelineResult& r, std::uint32_t query) {
    for (const Match& m : r.matches) {
      if (m.bank0_sequence == query) return true;
    }
    return false;
  };
  EXPECT_TRUE(found(a, 0) && found(a, 2));
  EXPECT_TRUE(found(b, 0) && found(b, 2));
  // Alignments themselves are untouched -- only the statistics (and
  // hence the E-value ranking) change.
  auto best_score = [](const PipelineResult& r) {
    int best = 0;
    for (const Match& m : r.matches) best = std::max(best, m.alignment.score);
    return best;
  };
  EXPECT_EQ(best_score(a), best_score(b));
}

TEST(Pipeline, Step3ThreadsDoNotChangeResults) {
  const TestBanks banks(11);
  PipelineOptions sequential;
  sequential.step3_threads = 1;
  PipelineOptions threaded;
  threaded.step3_threads = 4;
  const PipelineResult a =
      run_pipeline_genome(banks.proteins, banks.genome, sequential);
  const PipelineResult b =
      run_pipeline_genome(banks.proteins, banks.genome, threaded);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (std::size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].alignment.score, b.matches[i].alignment.score);
    EXPECT_EQ(a.matches[i].bank0_sequence, b.matches[i].bank0_sequence);
  }
  EXPECT_EQ(a.counters.step3_extensions, b.counters.step3_extensions);
}

TEST(Pipeline, EmptyProteinBankYieldsNothing) {
  const TestBanks banks(8, 5, 10000);
  bio::SequenceBank empty(bio::SequenceKind::kProtein);
  PipelineOptions options;
  const PipelineResult result =
      run_pipeline_genome(empty, banks.genome, options);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.counters.step2_pairs, 0u);
}

TEST(Pipeline, BankVsBankDirectUse) {
  // The public API also accepts two protein banks directly.
  util::Xoshiro256 rng(9);
  bio::SequenceBank a(bio::SequenceKind::kProtein);
  bio::SequenceBank b(bio::SequenceKind::kProtein);
  const bio::Sequence shared = sim::generate_protein("shared", 90, rng);
  a.add(bio::Sequence("q", bio::SequenceKind::kProtein,
                      std::vector<std::uint8_t>(shared.residues())));
  b.add(bio::Sequence("t", bio::SequenceKind::kProtein,
                      std::vector<std::uint8_t>(shared.residues())));
  b.add(sim::generate_protein("noise", 200, rng));

  PipelineOptions options;
  const PipelineResult result = run_pipeline(a, b, options);
  ASSERT_FALSE(result.matches.empty());
  EXPECT_EQ(result.matches[0].bank1_sequence, 0u);
}

}  // namespace
}  // namespace psc::core
