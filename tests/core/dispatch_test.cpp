#include "core/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/step1_index.hpp"
#include "core/step2_host.hpp"
#include "sim/protein_generator.hpp"

namespace psc::core {
namespace {

struct TestBanks {
  bio::SequenceBank bank0{bio::SequenceKind::kProtein};
  bio::SequenceBank bank1{bio::SequenceKind::kProtein};
  PipelineOptions options;
  Step1Result step1;

  explicit TestBanks(std::uint64_t seed)
      : step1{index::SeedModel::subset_w4(),
              index::IndexTable(bio::SequenceBank(bio::SequenceKind::kProtein),
                                index::SeedModel::subset_w4()),
              index::IndexTable(bio::SequenceBank(bio::SequenceKind::kProtein),
                                index::SeedModel::subset_w4()),
              0} {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 5; ++i) {
      bank0.add(sim::generate_protein("a" + std::to_string(i), 120, rng));
    }
    for (int i = 0; i < 8; ++i) {
      bank1.add(sim::generate_protein("b" + std::to_string(i), 150, rng));
    }
    // Shared region so hits exist.
    const auto target = bank1.mutable_residues(2);
    for (std::size_t k = 0; k < 40; ++k) target[30 + k] = bank0[1][20 + k];
    step1 = run_step1(bank0, bank1, options);
  }

  DispatchConfig make_config(double fraction) const {
    DispatchConfig config;
    config.host_fraction = fraction;
    config.host_threads = 2;
    config.shape = options.shape;
    config.threshold = 30;
    config.rasc.psc.num_pes = 32;
    config.rasc.psc.window_length = options.shape.length();
    config.rasc.psc.threshold = 30;
    config.rasc.shape = options.shape;
    return config;
  }
};

TEST(Dispatch, AllOnAcceleratorMatchesHostReference) {
  const TestBanks banks(1);
  const HostStep2Result reference = run_step2_host(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1,
      bio::SubstitutionMatrix::blosum62(), banks.options.shape, 30);
  const DispatchResult dispatched = run_step2_dispatch(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1,
      bio::SubstitutionMatrix::blosum62(), banks.make_config(0.0));
  EXPECT_EQ(dispatched.hits.size(), reference.hits.size());
  EXPECT_EQ(dispatched.host_pairs, 0u);
  EXPECT_DOUBLE_EQ(dispatched.host_seconds, 0.0);
  EXPECT_GT(dispatched.accel_seconds, 0.0);
}

TEST(Dispatch, AllOnHost) {
  const TestBanks banks(2);
  const DispatchResult dispatched = run_step2_dispatch(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1,
      bio::SubstitutionMatrix::blosum62(), banks.make_config(1.0));
  EXPECT_EQ(dispatched.accel_pairs, 0u);
  EXPECT_DOUBLE_EQ(dispatched.accel_seconds, 0.0);
  EXPECT_GT(dispatched.host_seconds, 0.0);
  EXPECT_FALSE(dispatched.hits.empty());
}

std::vector<align::SeedPairHit> sorted(std::vector<align::SeedPairHit> hits) {
  std::sort(hits.begin(), hits.end(), [](const align::SeedPairHit& a,
                                         const align::SeedPairHit& b) {
    return std::tuple(a.bank0.sequence, a.bank0.offset, a.bank1.sequence,
                      a.bank1.offset, a.score) <
           std::tuple(b.bank0.sequence, b.bank0.offset, b.bank1.sequence,
                      b.bank1.offset, b.score);
  });
  return hits;
}

TEST(Dispatch, HitSetsIdenticalAcrossFractions) {
  const TestBanks banks(3);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const DispatchResult reference = run_step2_dispatch(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1, m,
      banks.make_config(0.0));
  for (const double fraction : {0.25, 0.5, 0.75}) {
    const DispatchResult result = run_step2_dispatch(
        banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1, m,
        banks.make_config(fraction));
    // Hit order is unspecified; the sets must match.
    EXPECT_EQ(sorted(result.hits), sorted(reference.hits)) << fraction;
    EXPECT_EQ(result.pairs, reference.pairs);
  }
}

TEST(Dispatch, FractionControlsSplit) {
  const TestBanks banks(4);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const DispatchResult quarter = run_step2_dispatch(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1, m,
      banks.make_config(0.25));
  const DispatchResult three_quarters = run_step2_dispatch(
      banks.bank0, banks.step1.table0, banks.bank1, banks.step1.table1, m,
      banks.make_config(0.75));
  EXPECT_LT(quarter.host_pairs, three_quarters.host_pairs);
  EXPECT_GT(quarter.accel_pairs, three_quarters.accel_pairs);
  // The target is an upper bound on the host share by construction.
  EXPECT_LE(static_cast<double>(quarter.host_pairs),
            0.25 * static_cast<double>(quarter.pairs) + 1.0);
}

TEST(Dispatch, CombinedIsMax) {
  DispatchResult result;
  result.host_seconds = 2.0;
  result.accel_seconds = 3.0;
  EXPECT_DOUBLE_EQ(result.combined_seconds(), 3.0);
  result.host_seconds = 5.0;
  EXPECT_DOUBLE_EQ(result.combined_seconds(), 5.0);
}

TEST(Dispatch, InvalidFractionThrows) {
  const TestBanks banks(5);
  EXPECT_THROW(
      run_step2_dispatch(banks.bank0, banks.step1.table0, banks.bank1,
                         banks.step1.table1,
                         bio::SubstitutionMatrix::blosum62(),
                         banks.make_config(-0.1)),
      std::invalid_argument);
  EXPECT_THROW(
      run_step2_dispatch(banks.bank0, banks.step1.table0, banks.bank1,
                         banks.step1.table1,
                         bio::SubstitutionMatrix::blosum62(),
                         banks.make_config(1.5)),
      std::invalid_argument);
}

}  // namespace
}  // namespace psc::core
