// The swap-minimizing batch scheduler, three layers deep:
//  - pick_next_group as a pure function against hand-computed oracles,
//  - the scheduling invariant (per-request reply bytes identical to
//    FIFO across arrival orders) at the service level,
//  - the board-swap counters against a scripted oracle with the RASC
//    backend live, plus the stats codec's v2/v3/v4 negotiation.
#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bio/translate.hpp"
#include "core/result_codec.hpp"
#include "index/index_table.hpp"
#include "service/search_service.hpp"
#include "sim/genome_generator.hpp"
#include "sim/mutation.hpp"
#include "sim/protein_generator.hpp"
#include "store/bank_store.hpp"
#include "store/index_store.hpp"
#include "support/temp_dir.hpp"
#include "util/rng.hpp"

namespace psc::service {
namespace {

GroupView group(std::uint64_t bank, std::uint64_t seq, std::uint64_t work,
                std::uint64_t waited = 0) {
  return GroupView{bank, seq, work, waited};
}

TEST(BoardScheduler, FifoAlwaysPicksGloballyOldest) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/2, /*seq=*/5, /*work=*/1000),
      group(/*bank=*/1, /*seq=*/3, /*work=*/10),
      group(/*bank=*/2, /*seq=*/8, /*work=*/1000),
  };
  // Bank 2 is on the board and heavy; FIFO ignores both signals.
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/2, SchedulerPolicy::kFifo,
                      /*starvation_rounds=*/4);
  EXPECT_EQ(pick.index, 1u);
  EXPECT_FALSE(pick.reordered);
  EXPECT_FALSE(pick.starvation_promotion);
  EXPECT_TRUE(pick.bank_switch);  // board holds 2, pick targets 1
}

TEST(BoardScheduler, AffinityServesOnBoardBankBeforeOlderGroups) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/1, /*seq=*/0, /*work=*/500),  // older, off-board
      group(/*bank=*/2, /*seq=*/4, /*work=*/10),   // on-board
  };
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/2, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/4);
  EXPECT_EQ(pick.index, 1u);
  EXPECT_TRUE(pick.reordered);  // passed over the seq-0 group
  EXPECT_FALSE(pick.bank_switch);
  EXPECT_FALSE(pick.starvation_promotion);
}

TEST(BoardScheduler, AffinityPicksOldestWithinTheOnBoardBank) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/2, /*seq=*/9, /*work=*/1000),
      group(/*bank=*/2, /*seq=*/4, /*work=*/1),
      group(/*bank=*/1, /*seq=*/7, /*work=*/50),
  };
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/2, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/0);
  // Within the resident bank, age wins over work.
  EXPECT_EQ(pick.index, 1u);
}

TEST(BoardScheduler, AffinitySwapsToHeaviestBankWhenBoardDrained) {
  // Board holds bank 9, which has no queued work: the swap goes to the
  // bank with the most summed residues (bank 3: 60+50 > bank 1: 100).
  const std::vector<GroupView> groups = {
      group(/*bank=*/1, /*seq=*/0, /*work=*/100),
      group(/*bank=*/3, /*seq=*/2, /*work=*/60),
      group(/*bank=*/3, /*seq=*/5, /*work=*/50),
  };
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/9, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/8);
  EXPECT_EQ(pick.index, 1u);  // oldest group of bank 3
  EXPECT_TRUE(pick.bank_switch);
  EXPECT_TRUE(pick.reordered);
}

TEST(BoardScheduler, AffinityWorkTieBreaksTowardOldestBank) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/7, /*seq=*/3, /*work=*/100),
      group(/*bank=*/4, /*seq=*/1, /*work=*/100),
  };
  // Equal work: the bank holding the older group wins, and with an
  // empty board (key 0) the pick is still deterministic.
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/0, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/4);
  EXPECT_EQ(pick.index, 1u);
  EXPECT_FALSE(pick.reordered);
}

TEST(BoardScheduler, StarvationPromotionOutranksAffinity) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/2, /*seq=*/10, /*work=*/900),          // on-board
      group(/*bank=*/1, /*seq=*/0, /*work=*/1, /*waited=*/4),
      group(/*bank=*/5, /*seq=*/1, /*work=*/1, /*waited=*/5),
  };
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/2, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/4);
  // Both starving groups outrank the resident bank; the *oldest*
  // starving group wins so the guard cannot starve its own clients.
  EXPECT_EQ(pick.index, 1u);
  EXPECT_TRUE(pick.starvation_promotion);
  EXPECT_TRUE(pick.bank_switch);
}

TEST(BoardScheduler, ZeroStarvationRoundsDisablesTheGuard) {
  const std::vector<GroupView> groups = {
      group(/*bank=*/2, /*seq=*/10, /*work=*/900),
      group(/*bank=*/1, /*seq=*/0, /*work=*/1, /*waited=*/1000),
  };
  const PickResult pick =
      pick_next_group(groups, /*board_bank=*/2, SchedulerPolicy::kAffinity,
                      /*starvation_rounds=*/0);
  EXPECT_EQ(pick.index, 0u);  // affinity rules; no promotion possible
  EXPECT_FALSE(pick.starvation_promotion);
}

TEST(BoardScheduler, StarvationGuardBoundsWaitRounds) {
  // Adversarial stream: the on-board bank (A=2) receives a fresh heavy
  // group every round; one bank-B group arrived first and would starve
  // forever under pure affinity. Simulate the worker's aging exactly:
  // every group not picked in a round ages by one.
  constexpr std::uint64_t kGuard = 4;
  GroupView victim = group(/*bank=*/3, /*seq=*/0, /*work=*/1);
  std::uint64_t rounds = 0;
  bool served = false;
  for (std::uint64_t seq = 1; seq <= kGuard + 2; ++seq) {
    std::vector<GroupView> groups = {
        group(/*bank=*/2, /*seq=*/seq, /*work=*/1'000'000), victim};
    const PickResult pick = pick_next_group(
        groups, /*board_bank=*/2, SchedulerPolicy::kAffinity, kGuard);
    ++rounds;
    if (pick.index == 1) {
      EXPECT_TRUE(pick.starvation_promotion);
      served = true;
      break;
    }
    ++victim.rounds_waited;
  }
  ASSERT_TRUE(served);
  // Waits exactly kGuard rounds before the promotion fires on the next.
  EXPECT_EQ(rounds, kGuard + 1);
}

TEST(BoardScheduler, EmptyPendingSetThrows) {
  EXPECT_THROW(pick_next_group({}, 0, SchedulerPolicy::kFifo, 0),
               std::invalid_argument);
  EXPECT_THROW(pick_next_group({}, 0, SchedulerPolicy::kAffinity, 4),
               std::invalid_argument);
}

TEST(BoardScheduler, AffinityKeyNeverReturnsTheEmptySentinel) {
  EXPECT_NE(bank_affinity_key(""), 0u);
  EXPECT_NE(bank_affinity_key("bank_a|subset-w4"), 0u);
  EXPECT_EQ(bank_affinity_key("x"), bank_affinity_key("x"));
  EXPECT_NE(bank_affinity_key("bank_a"), bank_affinity_key("bank_b"));
}

TEST(BoardScheduler, PolicyNamesRoundTrip) {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;
  EXPECT_TRUE(parse_scheduler_policy("affinity", policy));
  EXPECT_EQ(policy, SchedulerPolicy::kAffinity);
  EXPECT_TRUE(parse_scheduler_policy("fifo", policy));
  EXPECT_EQ(policy, SchedulerPolicy::kFifo);
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kAffinity), "affinity");
  EXPECT_STREQ(scheduler_policy_name(SchedulerPolicy::kFifo), "fifo");
  SchedulerPolicy untouched = SchedulerPolicy::kAffinity;
  EXPECT_FALSE(parse_scheduler_policy("lifo", untouched));
  EXPECT_EQ(untouched, SchedulerPolicy::kAffinity);
}

// ---------------------------------------------------------------------------
// Service-level properties.

/// A saved reference bank the service can load (mirrors the fixture in
/// search_service_test.cpp, smaller).
struct SavedBank {
  bio::SequenceBank proteins{bio::SequenceKind::kProtein};
  std::string prefix;

  SavedBank(std::uint64_t seed, const std::string& name) {
    util::Xoshiro256 rng(seed);
    for (int i = 0; i < 3; ++i) {
      proteins.add(sim::generate_protein("p" + std::to_string(i), 80, rng));
    }
    sim::GenomeConfig config;
    config.length = 9000;
    config.seed = seed;
    bio::Sequence genome = sim::generate_genome(config);
    sim::MutationConfig divergence;
    divergence.substitution_rate = 0.15;
    divergence.indel_rate = 0.0;
    sim::plant_gene(genome, sim::mutate_protein(proteins[0], divergence, rng),
                    2000, true, rng);
    const bio::SequenceBank genome_bank =
        bio::frames_to_bank(bio::translate_six_frames(genome));

    prefix = psc::test::temp_dir() + "/" + name;
    const index::SeedModel model = index::SeedModel::subset_w4();
    store::save_bank(prefix + ".pscbank", genome_bank);
    store::save_index(prefix + ".pscidx", index::IndexTable(genome_bank, model),
                      model);
  }

  ~SavedBank() {
    std::remove((prefix + ".pscbank").c_str());
    std::remove((prefix + ".pscidx").c_str());
  }

  bio::SequenceBank query(std::size_t i) const {
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    bank.add(proteins[i]);
    return bank;
  }
};

/// Runs `arrivals` (indices into `banks`) as one batch under `policy`
/// and returns the per-request encoded match bytes, in arrival order.
std::vector<std::vector<std::uint8_t>> run_stream(
    SchedulerPolicy policy, const std::vector<const SavedBank*>& banks,
    const std::vector<std::size_t>& arrivals) {
  ServiceConfig config;
  config.scheduler = policy;
  config.max_drain_per_round = 2;  // several scheduling rounds per stream
  config.starvation_rounds = 2;
  SearchService service(config);

  std::vector<ServiceRequest> stream;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    ServiceRequest request;
    request.query = banks[arrivals[i]]->query(i % 3);
    request.bank_prefix = banks[arrivals[i]]->prefix;
    request.options = service.default_query_options();
    stream.push_back(std::move(request));
  }
  auto futures = service.submit_batch(std::move(stream));

  std::vector<std::vector<std::uint8_t>> replies;
  for (auto& future : futures) {
    std::vector<std::uint8_t> bytes;
    core::append_matches(bytes, future.get().matches);
    replies.push_back(std::move(bytes));
  }
  return replies;
}

TEST(BoardScheduler, MixedBankStreamsByteIdenticalToFifoAcrossOrders) {
  const SavedBank a(21, "sched_prop_a");
  const SavedBank b(22, "sched_prop_b");
  const SavedBank c(23, "sched_prop_c");
  const std::vector<const SavedBank*> banks = {&a, &b, &c};

  // Interleaved (the residency-adversarial order), runs-of-one-bank, and
  // a back-loaded order that makes affinity reorder across the stream.
  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2, 0, 1, 2},
      {0, 0, 1, 1, 2, 2},
      {2, 1, 0, 2, 0, 2},
  };
  for (const auto& arrivals : orders) {
    const auto fifo = run_stream(SchedulerPolicy::kFifo, banks, arrivals);
    const auto affinity =
        run_stream(SchedulerPolicy::kAffinity, banks, arrivals);
    ASSERT_EQ(fifo.size(), affinity.size());
    for (std::size_t i = 0; i < fifo.size(); ++i) {
      EXPECT_EQ(fifo[i], affinity[i])
          << "request " << i << " diverged under affinity scheduling";
    }
  }
}

TEST(BoardScheduler, BoardSwapCountersMatchScriptedOracle) {
  // Sequential submissions (each .get() before the next submit) pin the
  // service order to the script A,B,A,A,B regardless of policy, so the
  // board cache must walk exactly: A cold-upload, B swap, A swap,
  // A skip, B swap -> 1 bitstream, 4 uploads, 3 swaps, 1 skip.
  const SavedBank a(24, "sched_oracle_a");
  const SavedBank b(25, "sched_oracle_b");

  ServiceConfig config;
  config.options.backend = core::Step2Backend::kRasc;
  config.scheduler = SchedulerPolicy::kAffinity;
  SearchService service(config);

  const SavedBank* script[] = {&a, &b, &a, &a, &b};
  for (const SavedBank* bank : script) {
    service.submit(bank->query(0), bank->prefix).get();
  }

  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.board_bitstream_loads, 1u);
  EXPECT_EQ(stats.board_bank_uploads, 4u);
  EXPECT_EQ(stats.board_swaps, 3u);
  EXPECT_EQ(stats.bank_uploads_skipped, 1u);
  EXPECT_GT(stats.board_upload_seconds, 0.0);
  EXPECT_GT(stats.board_upload_seconds_saved, 0.0);
  EXPECT_GT(stats.accel_modeled_seconds, 0.0);
  EXPECT_EQ(stats.scheduler_rounds, 5u);
  EXPECT_EQ(stats.scheduler_policy, "affinity");
}

TEST(BoardScheduler, HostBackendLeavesBoardCountersAtZero) {
  const SavedBank a(26, "sched_host_a");
  SearchService service;  // default host backend
  service.submit(a.query(0), a.prefix).get();
  const ServiceStats stats = service.snapshot();
  EXPECT_EQ(stats.board_bank_uploads, 0u);
  EXPECT_EQ(stats.board_swaps, 0u);
  EXPECT_DOUBLE_EQ(stats.accel_modeled_seconds, 0.0);
  EXPECT_EQ(stats.scheduler_rounds, 1u);
}

// ---------------------------------------------------------------------------
// Stats codec: v4 fields and cross-version negotiation.

ServiceStats v4_sample() {
  ServiceStats stats;
  stats.queries_submitted = 9;
  stats.queries_completed = 8;
  stats.batches = 4;
  stats.board_bitstream_loads = 2;
  stats.board_bank_uploads = 6;
  stats.board_swaps = 3;
  stats.bank_uploads_skipped = 11;
  stats.board_upload_seconds = 1.25;
  stats.board_upload_seconds_saved = 4.5;
  stats.accel_modeled_seconds = 7.75;
  stats.scheduler_rounds = 14;
  stats.scheduler_reorders = 5;
  stats.starvation_promotions = 1;
  stats.bank_switches = 4;
  stats.scheduler_policy = "affinity";
  ReplicaStats replica;
  replica.endpoint = "host:7001";
  replica.up = true;
  replica.requests = 3;
  stats.replicas.push_back(replica);
  return stats;
}

TEST(ServiceCodec, V4RoundTripsBoardAndSchedulerFields) {
  const ServiceStats stats = v4_sample();
  const ServiceStats decoded =
      decode_service_stats(encode_service_stats(stats));
  EXPECT_EQ(decoded.board_bitstream_loads, 2u);
  EXPECT_EQ(decoded.board_bank_uploads, 6u);
  EXPECT_EQ(decoded.board_swaps, 3u);
  EXPECT_EQ(decoded.bank_uploads_skipped, 11u);
  EXPECT_DOUBLE_EQ(decoded.board_upload_seconds, 1.25);
  EXPECT_DOUBLE_EQ(decoded.board_upload_seconds_saved, 4.5);
  EXPECT_DOUBLE_EQ(decoded.accel_modeled_seconds, 7.75);
  EXPECT_EQ(decoded.scheduler_rounds, 14u);
  EXPECT_EQ(decoded.scheduler_reorders, 5u);
  EXPECT_EQ(decoded.starvation_promotions, 1u);
  EXPECT_EQ(decoded.bank_switches, 4u);
  EXPECT_EQ(decoded.scheduler_policy, "affinity");
  ASSERT_EQ(decoded.replicas.size(), 1u);
  EXPECT_EQ(decoded.replicas[0].endpoint, "host:7001");
}

TEST(ServiceCodec, EncodesLegacyVersionsForOldClients) {
  const ServiceStats stats = v4_sample();
  // v3: replica table present, board/scheduler fields omitted. The
  // decoder (which understands every supported vintage) must read the
  // frame cleanly and leave the v4 fields defaulted.
  const ServiceStats v3 =
      decode_service_stats(encode_service_stats(stats, 3));
  EXPECT_EQ(v3.queries_submitted, 9u);
  ASSERT_EQ(v3.replicas.size(), 1u);
  EXPECT_EQ(v3.board_bank_uploads, 0u);
  EXPECT_TRUE(v3.scheduler_policy.empty());

  // v2: no replica table either.
  const ServiceStats v2 =
      decode_service_stats(encode_service_stats(stats, 2));
  EXPECT_EQ(v2.queries_submitted, 9u);
  EXPECT_TRUE(v2.replicas.empty());
  EXPECT_EQ(v2.board_swaps, 0u);

  // A v3 frame is shorter than v4, v2 shorter than v3 -- the version
  // byte really gates the payload.
  EXPECT_LT(encode_service_stats(stats, 2).size(),
            encode_service_stats(stats, 3).size());
  EXPECT_LT(encode_service_stats(stats, 3).size(),
            encode_service_stats(stats).size());
}

TEST(ServiceCodec, RejectsUnsupportedVersionsAndTrailingBytes) {
  const ServiceStats stats = v4_sample();
  EXPECT_THROW(encode_service_stats(stats, 1), core::CodecError);
  EXPECT_THROW(encode_service_stats(stats, 7), core::CodecError);

  std::vector<std::uint8_t> bytes = encode_service_stats(stats);
  bytes.push_back(0);
  EXPECT_THROW(decode_service_stats(bytes), core::CodecError);
  bytes.pop_back();
  bytes[0] = 0x7f;  // version skew
  EXPECT_THROW(decode_service_stats(bytes), core::CodecError);
}

}  // namespace
}  // namespace psc::service
