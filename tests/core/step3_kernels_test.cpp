// The bit-identity property at pipeline level: for every --step3-kernel
// and every tested worker count of the host-parallel backend, the
// pipeline output -- scores, tracebacks, E-values, and step-2/3
// counters -- is bit-identical to the scalar sequential reference.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "align/gapped_simd.hpp"
#include "core/pipeline.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"

namespace psc::core {
namespace {

struct TestBanks {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  bio::Sequence genome;

  explicit TestBanks(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < 4; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 100, rng));
    }
    sim::GenomeConfig config;
    config.length = 12000;
    config.seed = seed;
    genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    2500, true, rng);
    sim::plant_gene(genome, sim::mutate_protein(proteins[2], divergence, rng),
                    8001, false, rng);
  }
};

void expect_identical(const std::vector<Match>& a, const std::vector<Match>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bank0_sequence, b[i].bank0_sequence) << label << " #" << i;
    EXPECT_EQ(a[i].bank1_sequence, b[i].bank1_sequence) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.score, b[i].alignment.score) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.begin0, b[i].alignment.begin0) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.end0, b[i].alignment.end0) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.begin1, b[i].alignment.begin1) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.end1, b[i].alignment.end1) << label << " #" << i;
    EXPECT_EQ(a[i].alignment.ops, b[i].alignment.ops) << label << " #" << i;
    EXPECT_EQ(a[i].bit_score, b[i].bit_score) << label << " #" << i;
    EXPECT_EQ(a[i].e_value, b[i].e_value) << label << " #" << i;
  }
}

TEST(Step3Kernels, AllKernelsAndWorkersMatchScalarSequential) {
  const TestBanks banks(21);
  PipelineOptions reference;
  reference.backend = Step2Backend::kHostSequential;
  reference.step3_kernel = align::GappedKernel::kScalar;
  reference.with_traceback = true;
  const PipelineResult ref =
      run_pipeline_genome(banks.proteins, banks.genome, reference);
  ASSERT_FALSE(ref.matches.empty());
  EXPECT_EQ(ref.step3_engine, "scalar");
  EXPECT_EQ(ref.counters.step3_eager_extensions,
            ref.counters.step3_extensions);

  const std::size_t hardware = std::thread::hardware_concurrency() == 0
                                   ? 1
                                   : std::thread::hardware_concurrency();
  for (const align::GappedKernel kernel :
       {align::GappedKernel::kPortable, align::GappedKernel::kAvx2,
        align::GappedKernel::kAuto}) {
    for (const std::size_t threads :
         std::vector<std::size_t>{1, 2, 7, hardware}) {
      PipelineOptions options;
      options.backend = Step2Backend::kHostParallel;
      options.step3_kernel = kernel;
      options.with_traceback = true;
      options.host_threads = threads;
      options.step3_threads = threads;
      const PipelineResult result =
          run_pipeline_genome(banks.proteins, banks.genome, options);
      const std::string label =
          std::string("kernel=") + align::gapped_kernel_name(kernel) +
          " threads=" + std::to_string(threads);
      expect_identical(ref.matches, result.matches, label);
      EXPECT_EQ(result.counters.step2_pairs, ref.counters.step2_pairs)
          << label;
      EXPECT_EQ(result.counters.step2_hits, ref.counters.step2_hits)
          << label;
      EXPECT_EQ(result.counters.step3_extensions,
                ref.counters.step3_extensions)
          << label;
      // Steps 2 and 3 run with a barrier: every extension counted is one
      // the walk ran.
      EXPECT_EQ(result.counters.step3_eager_extensions,
                result.counters.step3_extensions)
          << label;
      // The resolved engine is reported, never the raw request.
      EXPECT_NE(result.step3_engine, "auto") << label;
      EXPECT_FALSE(result.step3_engine.empty()) << label;
      if (kernel == align::GappedKernel::kAvx2 &&
          align::gapped_avx2_available()) {
        EXPECT_EQ(result.step3_engine, "avx2") << label;
      }
    }
  }
}

TEST(Step3Kernels, CompositionStatsAndEValuePathsMatch) {
  // Composition-based statistics rescale E-values per query; the kernel
  // must not perturb a single bit of them.
  const TestBanks banks(22);
  PipelineOptions reference;
  reference.backend = Step2Backend::kHostSequential;
  reference.step3_kernel = align::GappedKernel::kScalar;
  reference.composition_based_stats = true;
  reference.with_traceback = true;
  const PipelineResult ref =
      run_pipeline_genome(banks.proteins, banks.genome, reference);

  for (const align::GappedKernel kernel :
       {align::GappedKernel::kPortable, align::GappedKernel::kAuto}) {
    PipelineOptions options = reference;
    options.backend = Step2Backend::kHostParallel;
    options.step3_kernel = kernel;
    options.host_threads = 3;
    options.step3_threads = 3;
    const PipelineResult result =
        run_pipeline_genome(banks.proteins, banks.genome, options);
    expect_identical(ref.matches, result.matches,
                     std::string("composition kernel=") +
                         align::gapped_kernel_name(kernel));
  }
}

TEST(Step3Kernels, RascHybridScreenUnchangedByKernel) {
  // The hybrid backend's banded screen runs through the gap operator;
  // its survivor set (and thus the final matches) must not depend on
  // the kernel used for the functional pass.
  const TestBanks banks(23);
  PipelineOptions reference;
  reference.backend = Step2Backend::kRasc;
  reference.step3_kernel = align::GappedKernel::kScalar;
  reference.with_traceback = true;
  const PipelineResult ref =
      run_pipeline_genome(banks.proteins, banks.genome, reference);

  PipelineOptions simd = reference;
  simd.step3_kernel = align::GappedKernel::kAuto;
  const PipelineResult result =
      run_pipeline_genome(banks.proteins, banks.genome, simd);
  expect_identical(ref.matches, result.matches, "rasc hybrid");
}

}  // namespace
}  // namespace psc::core
