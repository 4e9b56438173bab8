#include "core/step3_gapped.hpp"

#include <gtest/gtest.h>

#include "core/result_codec.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"

namespace psc::core {
namespace {

struct TestBanks {
  bio::SequenceBank bank0{bio::SequenceKind::kProtein};
  bio::SequenceBank bank1{bio::SequenceKind::kProtein};
  PipelineOptions options;

  explicit TestBanks(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    const bio::Sequence ancestor = sim::generate_protein("anc", 120, rng);
    bank0.add(bio::Sequence("q", bio::SequenceKind::kProtein,
                            std::vector<std::uint8_t>(ancestor.residues())));
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.2;
    bank1.add(sim::mutate_protein(ancestor, divergence, rng));
    bank1.add(sim::generate_protein("noise", 200, rng));
  }
};

TEST(Step3, ExtendsSeedIntoSignificantMatch) {
  const TestBanks banks(1);
  // A seed hit in the middle of the homologous pair.
  std::vector<align::SeedPairHit> hits = {
      align::SeedPairHit{{0, 50}, {0, 50}, 40}};
  const Step3Result result =
      run_step3(banks.bank0, banks.bank1, hits,
                bio::SubstitutionMatrix::blosum62(), banks.options);
  ASSERT_EQ(result.matches.size(), 1u);
  const Match& match = result.matches[0];
  EXPECT_EQ(match.bank0_sequence, 0u);
  EXPECT_EQ(match.bank1_sequence, 0u);
  EXPECT_LE(match.e_value, banks.options.e_value_cutoff);
  EXPECT_GT(match.alignment.end0 - match.alignment.begin0, 50u);
}

TEST(Step3, EmptyHitsEmptyResult) {
  const TestBanks banks(2);
  const Step3Result result =
      run_step3(banks.bank0, banks.bank1, {},
                bio::SubstitutionMatrix::blosum62(), banks.options);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.extensions, 0u);
}

TEST(Step3, RedundantSeedsCollapseToOneMatch) {
  const TestBanks banks(3);
  // Several seeds inside the same homologous region.
  std::vector<align::SeedPairHit> hits;
  for (std::uint32_t off = 30; off <= 80; off += 10) {
    hits.push_back(align::SeedPairHit{{0, off}, {0, off}, 40});
  }
  const Step3Result result =
      run_step3(banks.bank0, banks.bank1, hits,
                bio::SubstitutionMatrix::blosum62(), banks.options);
  EXPECT_EQ(result.matches.size(), 1u);
  // Coverage suppression means far fewer extensions than seeds.
  EXPECT_LT(result.extensions, hits.size());
}

TEST(Step3, WeakSeedsProduceNoMatches) {
  const TestBanks banks(4);
  // Seed between the query and the unrelated sequence.
  std::vector<align::SeedPairHit> hits = {
      align::SeedPairHit{{0, 50}, {1, 50}, 20}};
  const Step3Result result =
      run_step3(banks.bank0, banks.bank1, hits,
                bio::SubstitutionMatrix::blosum62(), banks.options);
  EXPECT_TRUE(result.matches.empty());
  EXPECT_EQ(result.extensions, 1u);
}

TEST(Step3, TracebackRequestedProducesOps) {
  TestBanks banks(5);
  banks.options.with_traceback = true;
  std::vector<align::SeedPairHit> hits = {
      align::SeedPairHit{{0, 50}, {0, 50}, 40}};
  const Step3Result result =
      run_step3(banks.bank0, banks.bank1, hits,
                bio::SubstitutionMatrix::blosum62(), banks.options);
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_FALSE(result.matches[0].alignment.ops.empty());
}

TEST(Step3, MatchesSortedByEValue) {
  util::Xoshiro256 rng(6);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  const bio::Sequence a = sim::generate_protein("a", 150, rng);
  bank0.add(bio::Sequence("q", bio::SequenceKind::kProtein,
                          std::vector<std::uint8_t>(a.residues())));
  // Full copy (strong) and half copy (weaker).
  bank1.add(bio::Sequence("full", bio::SequenceKind::kProtein,
                          std::vector<std::uint8_t>(a.residues())));
  bio::Sequence half = sim::generate_protein("half", 150, rng);
  for (std::size_t k = 0; k < 60; ++k) {
    half.mutable_residues()[k] = a[k];
  }
  bank1.add(std::move(half));

  PipelineOptions options;
  std::vector<align::SeedPairHit> hits = {
      align::SeedPairHit{{0, 70}, {0, 70}, 40},
      align::SeedPairHit{{0, 30}, {1, 30}, 40}};
  const Step3Result result = run_step3(
      bank0, bank1, hits, bio::SubstitutionMatrix::blosum62(), options);
  ASSERT_EQ(result.matches.size(), 2u);
  EXPECT_LE(result.matches[0].e_value, result.matches[1].e_value);
  EXPECT_EQ(result.matches[0].bank1_sequence, 0u);
}

TEST(Step3, ParallelMatchesSequential) {
  util::Xoshiro256 rng(77);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  // Several homologous pairs so multiple groups exist.
  std::vector<align::SeedPairHit> hits;
  for (std::uint32_t p = 0; p < 6; ++p) {
    const bio::Sequence ancestor =
        sim::generate_protein("anc" + std::to_string(p), 100, rng);
    bank0.add(bio::Sequence("q" + std::to_string(p),
                            bio::SequenceKind::kProtein,
                            std::vector<std::uint8_t>(ancestor.residues())));
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.2;
    divergence.indel_rate = 0.0;
    bank1.add(sim::mutate_protein(ancestor, divergence, rng));
    for (std::uint32_t off = 20; off <= 60; off += 20) {
      hits.push_back(align::SeedPairHit{{p, off}, {p, off}, 40});
    }
  }

  PipelineOptions sequential;
  sequential.step3_threads = 1;
  const Step3Result a = run_step3(bank0, bank1, hits,
                                  bio::SubstitutionMatrix::blosum62(),
                                  sequential);
  // 0 is hardware concurrency, as for host_threads -- not sequential.
  for (const std::size_t threads : {0u, 2u, 4u}) {
    PipelineOptions parallel;
    parallel.step3_threads = threads;
    const Step3Result b = run_step3(bank0, bank1, hits,
                                    bio::SubstitutionMatrix::blosum62(),
                                    parallel);
    EXPECT_EQ(a.extensions, b.extensions) << threads;
    ASSERT_EQ(a.matches.size(), b.matches.size()) << threads;
    for (std::size_t i = 0; i < a.matches.size(); ++i) {
      EXPECT_EQ(a.matches[i].bank0_sequence, b.matches[i].bank0_sequence);
      EXPECT_EQ(a.matches[i].alignment.score, b.matches[i].alignment.score);
      EXPECT_DOUBLE_EQ(a.matches[i].e_value, b.matches[i].e_value);
    }
  }
}

TEST(Step3, LargeHitSetsOrderTheSameInAnyInputOrderAndThreadCount) {
  // Enough hits for the parallel ordering (buckets of bank-0 sequences
  // sorted on the executor): the result must equal the serial sort's,
  // whatever order step 2 delivered the hits in.
  util::Xoshiro256 rng(91);
  bio::SequenceBank bank0(bio::SequenceKind::kProtein);
  bio::SequenceBank bank1(bio::SequenceKind::kProtein);
  constexpr std::uint32_t kPairs = 8;
  constexpr std::uint32_t kLength = 150;
  sim::MutationConfig divergence;
  divergence.substitution_rate = 0.25;
  divergence.indel_rate = 0.0;
  for (std::uint32_t p = 0; p < kPairs; ++p) {
    const bio::Sequence ancestor =
        sim::generate_protein("anc" + std::to_string(p), kLength, rng);
    bank0.add(ancestor);
    bank1.add(sim::mutate_protein(ancestor, divergence, rng));
  }
  std::vector<align::SeedPairHit> hits;
  while (hits.size() < 20000) {
    const auto seq0 = static_cast<std::uint32_t>(rng.bounded(kPairs));
    const auto seq1 = rng.chance(0.7)
                          ? seq0
                          : static_cast<std::uint32_t>(rng.bounded(kPairs));
    const auto offset0 = static_cast<std::uint32_t>(rng.bounded(kLength - 4));
    const auto offset1 = static_cast<std::uint32_t>(rng.bounded(kLength - 4));
    // Few distinct scores, so the offsets break many ties.
    const int score = 38 + static_cast<int>(rng.bounded(4));
    hits.push_back(
        align::SeedPairHit{{seq0, offset0}, {seq1, offset1}, score});
  }
  const auto& matrix = bio::SubstitutionMatrix::blosum62();
  PipelineOptions sequential;
  sequential.step3_threads = 1;
  const Step3Result reference =
      run_step3(bank0, bank1, hits, matrix, sequential);
  ASSERT_FALSE(reference.matches.empty());

  std::vector<align::SeedPairHit> reversed(hits.rbegin(), hits.rend());
  for (const std::size_t threads : {2u, 4u}) {
    PipelineOptions parallel;
    parallel.step3_threads = threads;
    for (const auto* input : {&hits, &reversed}) {
      const Step3Result result =
          run_step3(bank0, bank1, *input, matrix, parallel);
      EXPECT_EQ(result.extensions, reference.extensions) << threads;
      EXPECT_EQ(encode_matches(result.matches),
                encode_matches(reference.matches))
          << threads;
    }
  }
}

TEST(FinalizeMatches, RemovesOverlappingDuplicates) {
  std::vector<Match> matches(2);
  matches[0].bank0_sequence = matches[1].bank0_sequence = 1;
  matches[0].bank1_sequence = matches[1].bank1_sequence = 2;
  matches[0].alignment.begin0 = 10;
  matches[0].alignment.end0 = 60;
  matches[0].alignment.begin1 = 10;
  matches[0].alignment.end1 = 60;
  matches[0].alignment.score = 100;
  matches[0].e_value = 1e-10;
  matches[1].alignment.begin0 = 20;
  matches[1].alignment.end0 = 55;
  matches[1].alignment.begin1 = 20;
  matches[1].alignment.end1 = 55;
  matches[1].alignment.score = 50;
  matches[1].e_value = 1e-5;
  finalize_matches(matches);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].alignment.score, 100);
}

TEST(FinalizeMatches, KeepsDistinctRegions) {
  std::vector<Match> matches(2);
  matches[0].bank0_sequence = matches[1].bank0_sequence = 1;
  matches[0].bank1_sequence = matches[1].bank1_sequence = 2;
  matches[0].alignment.begin0 = 0;
  matches[0].alignment.end0 = 40;
  matches[0].alignment.begin1 = 0;
  matches[0].alignment.end1 = 40;
  matches[1].alignment.begin0 = 100;
  matches[1].alignment.end0 = 140;
  matches[1].alignment.begin1 = 100;
  matches[1].alignment.end1 = 140;
  finalize_matches(matches);
  EXPECT_EQ(matches.size(), 2u);
}

TEST(FinalizeMatches, DifferentSequencePairsNeverMerge) {
  std::vector<Match> matches(2);
  matches[0].bank0_sequence = 1;
  matches[1].bank0_sequence = 2;
  matches[0].bank1_sequence = matches[1].bank1_sequence = 3;
  for (auto& m : matches) {
    m.alignment.begin0 = 0;
    m.alignment.end0 = 40;
    m.alignment.begin1 = 0;
    m.alignment.end1 = 40;
  }
  finalize_matches(matches);
  EXPECT_EQ(matches.size(), 2u);
}

}  // namespace
}  // namespace psc::core
