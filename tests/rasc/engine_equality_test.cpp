// Equality properties of the RASC batch engine and driver:
//
//  * PscOperator::run_key (scores through the align kernels) returns the
//    records of run_key_cycle_exact (which steps every PE) and the same
//    modeled counters, across PE-array geometries, IL1 list lengths on
//    both sides of the SIMD cutover, around the 32-lane groups and across
//    several IL1 tiles, a matrix whose windows saturate the 8-bit screen's
//    lanes (the scalar rescore must restore every score), and a matrix
//    the screen cannot bound (the batch engine takes the blocked kernel);
//  * run_rasc_step2 with threaded = true (key chunks on the executor)
//    equals threaded = false on the hit vector, order included, on every
//    FpgaRunReport field and on the BoardCache counters;
//  * the OperatorStats of one fixed workload equal pinned values, so the
//    timing model cannot drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "align/ungapped_simd.hpp"
#include "rasc/psc_operator.hpp"
#include "rasc/rasc_backend.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::rasc {
namespace {

constexpr std::size_t kWindow = 16;
const index::WindowShape kShape{4, 6};

/// BLOSUM62 with W/W raised to `ww`.
bio::SubstitutionMatrix with_ww(int ww) {
  bio::SubstitutionMatrix m = bio::SubstitutionMatrix::blosum62();
  const bio::Residue w = bio::encode_protein('W');
  m.set_score(w, w, static_cast<bio::SubstitutionMatrix::Score>(ww));
  return m;
}

/// W/W = 150: the biased cells still fit u8, but two aligned W pairs
/// already clamp a screen lane at its ceiling (255 - 4), so the screen
/// passes those lanes on and the scalar rescore restores their scores.
const bio::SubstitutionMatrix& wide_matrix() {
  static const bio::SubstitutionMatrix matrix = with_ww(150);
  return matrix;
}

/// W/W = 300: a biased cell exceeds u8, so the screen does not apply and
/// the batch engine must take the blocked kernel.
const bio::SubstitutionMatrix& unscreenable_matrix() {
  static const bio::SubstitutionMatrix matrix = with_ww(300);
  return matrix;
}

std::vector<ResultRecord> sorted(std::vector<ResultRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const ResultRecord& a, const ResultRecord& b) {
              return std::tie(a.il0_index, a.il1_index) <
                     std::tie(b.il0_index, b.il1_index);
            });
  return records;
}

void expect_stats_equal(const OperatorStats& a, const OperatorStats& b) {
  EXPECT_EQ(a.cycles_load, b.cycles_load);
  EXPECT_EQ(a.cycles_compute, b.cycles_compute);
  EXPECT_EQ(a.cycles_stall, b.cycles_stall);
  EXPECT_EQ(a.cycles_drain, b.cycles_drain);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.pe_ticks_busy, b.pe_ticks_busy);
  EXPECT_EQ(a.pe_ticks_total, b.pe_ticks_total);
}

TEST(BatchEngineEquality, RecordsEqualCycleExactEngine) {
  util::Xoshiro256 rng(2024);
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 16000, rng));
  // A tryptophan-rich stretch: windows from it saturate screen lanes.
  std::string w_rich;
  for (int i = 0; i < 120; ++i) w_rich += i % 3 == 0 ? "WA" : "W";
  bank.add(bio::Sequence::protein_from_letters("w-rich", w_rich));
  const std::size_t max_il1 = 1040;  // > 4 tiles of IL1
  index::WindowBatch il1_all(kWindow);
  for (std::uint32_t j = 0; j < max_il1; ++j) {
    // Every 5th IL1 window comes from the W-rich stretch.
    if (j % 5 == 2) {
      il1_all.append(bank, index::Occurrence{1, 10 + (7 * j) % 100}, kShape);
    } else {
      il1_all.append(bank, index::Occurrence{0, 40 + 13 * j}, kShape);
    }
  }

  ASSERT_EQ(align::resolve_ungapped_kernel(align::UngappedKernel::kAuto,
                                            wide_matrix(), 14),
            align::UngappedKernel::kSimd);
  ASSERT_EQ(align::resolve_ungapped_kernel(align::UngappedKernel::kAuto,
                                            unscreenable_matrix(), 14),
            align::UngappedKernel::kBlocked);
  bool stalled = false;
  bool saturated = false;  // a screened record scored past the 8-bit ceiling
  for (const bio::SubstitutionMatrix* matrix :
       {&bio::SubstitutionMatrix::blosum62(), &wide_matrix(),
        &unscreenable_matrix()}) {
    for (const std::size_t pes : {1, 7, 64, 192}) {
      // One full round plus a partial one.
      const std::size_t k0 = pes + 3;
      index::WindowBatch il0(kWindow);
      for (std::uint32_t i = 0; i < k0; ++i) {
        if (i % 4 == 1) {
          il0.append(bank, index::Occurrence{1, 20 + (3 * i) % 90}, kShape);
        } else {
          il0.append(bank, index::Occurrence{0, 47 + 11 * i}, kShape);
        }
      }
      for (const std::size_t slot_size : {1, 8}) {
        for (const std::size_t k1 :
             {std::size_t{1}, align::kSimdMinBatch - 1, align::kSimdMinBatch,
              align::kSimdMinBatch + 1, std::size_t{31}, std::size_t{32},
              std::size_t{33}, std::size_t{65}, max_il1}) {
          SCOPED_TRACE(matrix->name() + " pes=" + std::to_string(pes) +
                       " slot=" + std::to_string(slot_size) +
                       " il1=" + std::to_string(k1));
          const index::WindowSpan il1 = il1_all.subspan(0, k1);
          PscConfig config;
          config.num_pes = pes;
          config.slot_size = slot_size;
          config.window_length = kWindow;
          config.threshold = 14;  // low: many hits per completion tick
          config.fifo_depth = 2;
          PscOperator batch(config, *matrix);
          PscOperator exact(config, *matrix);
          std::vector<ResultRecord> batch_records, exact_records;
          batch.run_key(il0, il1, batch_records);
          exact.run_key_cycle_exact(il0, il1, exact_records);

          EXPECT_EQ(sorted(batch_records), sorted(exact_records));
          if (matrix == &wide_matrix() && k1 >= align::kSimdMinBatch) {
            for (const ResultRecord& record : batch_records) {
              saturated = saturated || record.score > 255 - 4;
            }
          }
          // Batch records come in the array's completion order: round,
          // then IL1 window, then IL0 window.
          EXPECT_TRUE(std::is_sorted(
              batch_records.begin(), batch_records.end(),
              [pes](const ResultRecord& a, const ResultRecord& b) {
                return std::make_tuple(a.il0_index / pes, a.il1_index,
                                       a.il0_index) <
                       std::make_tuple(b.il0_index / pes, b.il1_index,
                                       b.il0_index);
              }));
          // Counters the closed-form model shares with the cycle-exact
          // engine (stall and drain differ by cascade-traversal latency).
          const OperatorStats& b = batch.stats();
          const OperatorStats& e = exact.stats();
          EXPECT_EQ(b.cycles_load, e.cycles_load);
          EXPECT_EQ(b.cycles_compute, e.cycles_compute);
          EXPECT_EQ(b.comparisons, e.comparisons);
          EXPECT_EQ(b.hits, e.hits);
          EXPECT_EQ(b.rounds, e.rounds);
          EXPECT_EQ(b.pe_ticks_busy, e.pe_ticks_busy);
          EXPECT_EQ(b.pe_ticks_total, e.pe_ticks_total);
          stalled = stalled || b.cycles_stall > 0;
        }
      }
    }
  }
  EXPECT_TRUE(stalled) << "no configuration exercised the stall model";
  EXPECT_TRUE(saturated) << "no configuration saturated a screen lane";
}

/// Random proteins plus one motif repeated with random spacers, so one
/// seed key has a deep list on both sides: > 1000 IL1 windows (several
/// tiles) against 70 IL0 windows (several rounds on small arrays).
struct Banks {
  bio::SequenceBank bank0{bio::SequenceKind::kProtein};
  bio::SequenceBank bank1{bio::SequenceKind::kProtein};

  explicit Banks(std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    auto motif_run = [&rng](const std::string& id, std::size_t repeats) {
      std::string letters;
      const std::string alphabet = "ACDEFGHIKLMNPQRSTVWY";
      for (std::size_t r = 0; r < repeats; ++r) {
        letters += "MKVL";
        for (int k = 0; k < 3; ++k) letters += alphabet[rng.bounded(20)];
      }
      return bio::Sequence::protein_from_letters(id, letters);
    };
    for (int i = 0; i < 5; ++i) {
      bank0.add(sim::generate_protein("q" + std::to_string(i), 150, rng));
    }
    bank0.add(motif_run("q-motif", 70));
    for (int i = 0; i < 12; ++i) {
      bank1.add(sim::generate_protein("s" + std::to_string(i), 400, rng));
    }
    bank1.add(motif_run("s-motif", 1100));
  }
};

RascStep2Config backend_config(std::size_t pes, std::size_t fpgas) {
  RascStep2Config config;
  config.psc.num_pes = pes;
  config.psc.slot_size = 8;
  config.psc.window_length = kWindow;
  config.psc.threshold = 36;
  config.psc.fifo_depth = 2;
  config.shape = kShape;
  config.num_fpgas = fpgas;
  return config;
}

void expect_reports_equal(const FpgaRunReport& a, const FpgaRunReport& b) {
  expect_stats_equal(a.stats, b.stats);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
  EXPECT_EQ(a.overhead_seconds, b.overhead_seconds);
  EXPECT_EQ(a.bitstream_loads, b.bitstream_loads);
  EXPECT_EQ(a.bank_uploads, b.bank_uploads);
  EXPECT_EQ(a.board_swaps, b.board_swaps);
  EXPECT_EQ(a.bank_uploads_skipped, b.bank_uploads_skipped);
  EXPECT_EQ(a.upload_seconds, b.upload_seconds);
  EXPECT_EQ(a.upload_seconds_saved, b.upload_seconds_saved);
}

void expect_board_stats_equal(const BoardCacheStats& a,
                              const BoardCacheStats& b) {
  EXPECT_EQ(a.bitstream_loads, b.bitstream_loads);
  EXPECT_EQ(a.bank_uploads, b.bank_uploads);
  EXPECT_EQ(a.board_swaps, b.board_swaps);
  EXPECT_EQ(a.uploads_skipped, b.uploads_skipped);
  EXPECT_EQ(a.upload_seconds, b.upload_seconds);
  EXPECT_EQ(a.upload_seconds_saved, b.upload_seconds_saved);
}

TEST(BatchEngineEquality, ThreadedDriverEqualsSequential) {
  const Banks banks(31);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t0(banks.bank0, model);
  const index::IndexTable t1(banks.bank1, model);

  for (const bio::SubstitutionMatrix* matrix :
       {&bio::SubstitutionMatrix::blosum62(), &wide_matrix(),
        &unscreenable_matrix()}) {
    for (const std::size_t pes : {7, 192}) {
      for (const std::size_t fpgas : {1, 2}) {
        for (const bool with_board : {false, true}) {
          SCOPED_TRACE(matrix->name() + " pes=" + std::to_string(pes) +
                       " fpgas=" + std::to_string(fpgas) +
                       " board=" + std::to_string(with_board));
          BoardCache threaded_board(2);
          BoardCache sequential_board(2);
          RascStep2Config threaded = backend_config(pes, fpgas);
          RascStep2Config sequential = threaded;
          threaded.threaded = true;
          sequential.threaded = false;
          if (with_board) {
            threaded.board = &threaded_board;
            sequential.board = &sequential_board;
            threaded.bank_image_id = sequential.bank_image_id = 0x5EED;
          }
          // Twice: with a board the repeat run takes the resident image.
          for (int run = 0; run < 2; ++run) {
            const RascStep2Result a = run_rasc_step2(
                banks.bank0, t0, banks.bank1, t1, *matrix, threaded);
            const RascStep2Result b = run_rasc_step2(
                banks.bank0, t0, banks.bank1, t1, *matrix, sequential);
            ASSERT_FALSE(a.hits.empty());
            EXPECT_EQ(a.hits, b.hits);
            ASSERT_EQ(a.fpgas.size(), b.fpgas.size());
            for (std::size_t f = 0; f < a.fpgas.size(); ++f) {
              expect_reports_equal(a.fpgas[f], b.fpgas[f]);
            }
            expect_stats_equal(a.stats, b.stats);
            EXPECT_EQ(a.modeled_seconds, b.modeled_seconds);
          }
          expect_board_stats_equal(threaded_board.stats(),
                                   sequential_board.stats());
        }
      }
    }
  }
}

TEST(BatchEngineEquality, OperatorStatsMatchPinnedModel) {
  // Counters of this workload under the closed-form timing model, as the
  // per-PE scalar batch engine produced them; any drift in the model or
  // in the scores shows here.
  const Banks banks(31);
  const index::SeedModel model = index::SeedModel::subset_w4();
  const index::IndexTable t0(banks.bank0, model);
  const index::IndexTable t1(banks.bank1, model);
  const RascStep2Result result =
      run_rasc_step2(banks.bank0, t0, banks.bank1, t1,
                     bio::SubstitutionMatrix::blosum62(), backend_config(64, 2));
  ASSERT_EQ(result.fpgas.size(), 2u);
  const OperatorStats pinned[2] = {
      {/*cycles_load=*/5522, /*cycles_compute=*/46066, /*cycles_stall=*/29774,
       /*cycles_drain=*/104, /*comparisons=*/77876, /*hits=*/51564,
       /*rounds=*/174, /*keys=*/173, /*pe_ticks_busy=*/77876,
       /*pe_ticks_total=*/179392},
      {/*cycles_load=*/6624, /*cycles_compute=*/45408, /*cycles_stall=*/0,
       /*cycles_drain=*/231, /*comparisons=*/8574, /*hits=*/7828,
       /*rounds=*/208, /*keys=*/208, /*pe_ticks_busy=*/8574,
       /*pe_ticks_total=*/175808},
  };
  for (std::size_t f = 0; f < 2; ++f) {
    SCOPED_TRACE("fpga " + std::to_string(f));
    expect_stats_equal(result.fpgas[f].stats, pinned[f]);
  }
}

}  // namespace
}  // namespace psc::rasc
