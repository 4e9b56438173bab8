// Cross-module invariant: all three step-2 backends (host sequential,
// host parallel, simulated RASC with 1 or 2 FPGAs, batch or cycle-exact
// engine) produce exactly the same set of seed-pair hits on the same
// indexed banks -- the property that makes the accelerator a drop-in
// replacement for the critical section.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/step2_host.hpp"
#include "rasc/rasc_backend.hpp"
#include "sim/workload.hpp"

namespace psc {
namespace {

struct Fixture {
  bio::SequenceBank bank0;
  bio::SequenceBank bank1;
  index::SeedModel model = index::SeedModel::subset_w4();
  index::WindowShape shape{4, 14};  // window 32

  Fixture() {
    sim::ScaledWorkloadConfig config;
    config.scale = 0.0003;
    config.seed = 2024;
    sim::PaperWorkload workload = sim::build_paper_workload(config);
    bank0 = std::move(workload.banks[1].proteins);
    bank1 = std::move(workload.genome_bank);
  }
};

using HitKey = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                          std::uint32_t, int>;

std::vector<HitKey> keys_of(const std::vector<align::SeedPairHit>& hits) {
  std::vector<HitKey> keys;
  keys.reserve(hits.size());
  for (const auto& hit : hits) {
    keys.emplace_back(hit.bank0.sequence, hit.bank0.offset,
                      hit.bank1.sequence, hit.bank1.offset, hit.score);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BackendEquivalence, AllBackendsProduceIdenticalHitSets) {
  const Fixture fixture;
  const index::IndexTable t0(fixture.bank0, fixture.model);
  const index::IndexTable t1(fixture.bank1, fixture.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const int threshold = 30;

  const core::HostStep2Result host_seq = core::run_step2_host(
      fixture.bank0, t0, fixture.bank1, t1, m, fixture.shape, threshold);
  ASSERT_FALSE(host_seq.hits.empty())
      << "fixture produced no hits; equivalence test would be vacuous";
  const auto expected = keys_of(host_seq.hits);

  const core::HostStep2Result host_par = core::run_step2_host_parallel(
      fixture.bank0, t0, fixture.bank1, t1, m, fixture.shape, threshold, 3);
  EXPECT_EQ(keys_of(host_par.hits), expected);

  rasc::RascStep2Config rasc_config;
  rasc_config.psc.num_pes = 48;
  rasc_config.psc.slot_size = 8;
  rasc_config.psc.window_length = fixture.shape.length();
  rasc_config.psc.threshold = threshold;
  rasc_config.shape = fixture.shape;

  for (const std::size_t fpgas : {1u, 2u}) {
    rasc_config.num_fpgas = fpgas;
    const rasc::RascStep2Result accel = rasc::run_rasc_step2(
        fixture.bank0, t0, fixture.bank1, t1, m, rasc_config);
    EXPECT_EQ(keys_of(accel.hits), expected) << fpgas << " FPGA(s)";
    EXPECT_EQ(accel.stats.comparisons, host_seq.pairs);
  }
}

TEST(BackendEquivalence, CycleExactEngineAgreesOnSmallerSlice) {
  Fixture fixture;
  // Restrict to a few proteins to keep the per-cycle engine quick.
  bio::SequenceBank small0(bio::SequenceKind::kProtein);
  for (std::size_t i = 0; i < std::min<std::size_t>(3, fixture.bank0.size());
       ++i) {
    small0.add(fixture.bank0[i]);
  }
  bio::SequenceBank small1(bio::SequenceKind::kProtein);
  for (std::size_t i = 0; i < std::min<std::size_t>(60, fixture.bank1.size());
       ++i) {
    small1.add(fixture.bank1[i]);
  }
  const index::IndexTable t0(small0, fixture.model);
  const index::IndexTable t1(small1, fixture.model);
  const auto& m = bio::SubstitutionMatrix::blosum62();

  const core::HostStep2Result host = core::run_step2_host(
      small0, t0, small1, t1, m, fixture.shape, 28);

  rasc::RascStep2Config config;
  config.psc.num_pes = 16;
  config.psc.window_length = fixture.shape.length();
  config.psc.threshold = 28;
  config.shape = fixture.shape;
  config.cycle_exact = true;
  const rasc::RascStep2Result accel =
      rasc::run_rasc_step2(small0, t0, small1, t1, m, config);
  EXPECT_EQ(keys_of(accel.hits), keys_of(host.hits));
}

}  // namespace
}  // namespace psc
