// Unit tests of the benchmark's own arithmetic: the tail-percentile
// rule, span self-time subtraction, the layer-sum check, and seed
// determinism of the generated inputs and their references.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "inputs.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace psc::perfbench {
namespace {

TEST(Percentile, NearestRankCountsSamplesBeyond) {
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(nearest_rank(1, 0.5), 1u);
  EXPECT_EQ(nearest_rank(10, 0.5), 5u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(tail_supported(1000, 0.99));
  EXPECT_FALSE(tail_supported(999, 0.99));
  EXPECT_TRUE(tail_supported(20, 0.5));
  EXPECT_FALSE(tail_supported(19, 0.5));
  EXPECT_FALSE(tail_supported(0, 0.99));

  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  EXPECT_DOUBLE_EQ(tail_percentile(samples, 0.99), 990.0);
  samples.pop_back();
  EXPECT_DOUBLE_EQ(tail_percentile(samples, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.99), 990.0);
}

TEST(Percentile, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(PeakRss, ResetForgetsAnEarlierPeak) {
  {
    // 64 MiB touched, then returned to the kernel (glibc maps blocks this
    // large on their own and unmaps them on free).
    std::vector<char> block(64u << 20, 1);
    EXPECT_GE(peak_rss_mb(), 64.0);
  }
  const double before = peak_rss_mb();
  ASSERT_TRUE(reset_peak_rss());
  EXPECT_LT(peak_rss_mb(), before - 32.0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tracer;
  const auto root = tracer.record("root", 0.0, 10.0, kNoParent, 1);
  tracer.record("a", 1.0, 4.0, root, 1);
  tracer.record("b", 3.0, 6.0, root, 1);  // overlaps a: counted once
  const auto c = tracer.record("c", 7.0, 9.0, root, 1);
  tracer.record("d", 7.5, 8.0, c, 1);
  const std::vector<double> self = self_times(tracer.spans());
  ASSERT_EQ(self.size(), 5u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.5);
  EXPECT_DOUBLE_EQ(self[4], 0.5);
}

TEST(Trace, ChildrenAreClippedToTheirParent) {
  Tracer tracer;
  const auto root = tracer.record("root", 0.0, 2.0, kNoParent, 0);
  tracer.record("late", 1.5, 3.0, root, 0);
  const std::vector<Span> spans = tracer.spans();
  EXPECT_DOUBLE_EQ(spans[1].end, 2.0);
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 1.5);
}

TEST(Trace, LayerSumCheck) {
  Tracer tracer;
  const auto first = tracer.record("request", 0.0, 1.0, kNoParent, 1);
  tracer.record("net", 0.0, 0.6, first, 1);
  tracer.record("service", 0.6, 0.98, first, 1);
  const auto second = tracer.record("request", 2.0, 3.0, kNoParent, 2);
  tracer.record("net", 2.0, 3.0, second, 2);
  const LayerCheck check = check_layer_sum(tracer.spans(), 0.05);
  EXPECT_DOUBLE_EQ(check.root_seconds, 2.0);
  EXPECT_NEAR(check.attributed_seconds, 1.98, 1e-12);
  EXPECT_NEAR(check.unattributed_ratio, 0.01, 1e-12);
  EXPECT_TRUE(check.ok);
  EXPECT_FALSE(check_layer_sum(tracer.spans(), 0.005).ok);

  const auto layers = layer_self_times(tracer.spans());
  EXPECT_NEAR(layers.at("net"), 1.6, 1e-12);
  EXPECT_NEAR(layers.at("service"), 0.38, 1e-12);
}

TEST(Trace, NoRootsFailTheCheck) {
  EXPECT_FALSE(check_layer_sum({}, 0.05).ok);
}

/// Digests of everything a small workload derives from `seed`.
std::vector<std::uint64_t> derived(std::uint64_t seed) {
  const sim::PaperWorkload inputs = make_paper_inputs(seed, 0.001, 0.004);
  const bio::SequenceBank& proteins = inputs.banks[1].proteins;
  const QueryStream stream = make_window_stream(proteins, 30, 40, 0.25, seed);
  core::PipelineOptions options;
  const index::IndexTable table(inputs.genome_bank,
                                core::make_seed_model(options.seed_model));
  std::vector<std::uint64_t> out = {bank_digest(inputs.genome_bank),
                                    bank_digest(proteins)};
  for (const Bytes& reply :
       reference_replies(stream.pool, inputs.genome_bank, table, options, 2)) {
    out.push_back(bytes_digest(reply));
  }
  out.push_back(bytes_digest(
      reference_batch(proteins, inputs.genome_bank, table, options, 2)));
  return out;
}

TEST(Seed, SameSeedGivesIdenticalInputsAndReferences) {
  EXPECT_EQ(derived(7), derived(7));
}

TEST(Seed, DifferentSeedGivesDifferentInputs) {
  const std::vector<std::uint64_t> a = derived(7);
  const std::vector<std::uint64_t> b = derived(8);
  EXPECT_NE(a[0], b[0]);
  EXPECT_NE(a[1], b[1]);
  EXPECT_NE(a.back(), b.back());
}

TEST(Seed, TakeResiduesCutsTheLastSequence) {
  const sim::PaperWorkload inputs = make_paper_inputs(3, 0.001, 0.004);
  const bio::SequenceBank& proteins = inputs.banks[3].proteins;
  const std::size_t budget = proteins[0].size() + proteins[1].size() / 2;
  const bio::SequenceBank taken = take_residues(proteins, budget);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken.total_residues(), budget);
  EXPECT_EQ(taken[0].residues(), proteins[0].residues());
  EXPECT_THROW(take_residues(proteins, proteins.total_residues() + 1),
               std::invalid_argument);
}

TEST(Seed, SlicedBatchReferenceEqualsOneRun) {
  const sim::PaperWorkload inputs = make_paper_inputs(3, 0.001, 0.004);
  const bio::SequenceBank& proteins = inputs.banks[1].proteins;
  core::PipelineOptions options;
  const index::IndexTable table(inputs.genome_bank,
                                core::make_seed_model(options.seed_model));
  const core::PipelineResult whole = core::run_pipeline_with_index(
      proteins, inputs.genome_bank, table, reference_options(options));
  EXPECT_FALSE(whole.matches.empty());
  EXPECT_EQ(core::encode_matches(whole.matches),
            reference_batch(proteins, inputs.genome_bank, table, options, 3));
}

}  // namespace
}  // namespace psc::perfbench
