// Property tests for the vectorized step-2 kernel layer: the
// residue-indexed substitution rows, the striped window transpose, and
// bit-for-bit equivalence of the scalar, blocked, and SIMD kernels across
// random (and asymmetric) matrices, out-of-alphabet codes, X-padding,
// boundary flanks, all-negative and saturation-adjacent configurations.
#include "align/ungapped_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "align/ungapped.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::align {
namespace {

/// Runs every kernel implementation over (one, batch) and asserts the
/// scores agree bit-for-bit with the scalar reference.
void expect_all_kernels_agree(const index::WindowBatch& one,
                              const index::WindowBatch& batch,
                              const bio::SubstitutionMatrix& m,
                              const char* label) {
  std::vector<int> scalar, blocked, portable, dispatched;
  ungapped_score_one_vs_many(one.window(0), batch, m, scalar);
  ungapped_score_one_vs_many_blocked(one.window(0), batch, m, blocked);

  const SubstitutionRows rows(m);
  index::StripedWindows striped;
  striped.assign(batch);
  ungapped_score_rows_vs_striped_portable(one.window(0), rows, striped,
                                          portable);
  ungapped_score_rows_vs_striped(one.window(0), rows, striped, dispatched);

  EXPECT_EQ(scalar, blocked) << label;
  EXPECT_EQ(scalar, portable) << label;
  EXPECT_EQ(scalar, dispatched) << label;
  if (ungapped_avx2_available()) {
    std::vector<int> avx2;
    ungapped_score_rows_vs_striped_avx2(one.window(0), rows, striped, avx2);
    EXPECT_EQ(scalar, avx2) << label;
  }
}

TEST(SubstitutionRows, RowsMatchMatrixForEveryCode) {
  // An asymmetric matrix, so a transposed table would fail.
  bio::SubstitutionMatrix m = bio::SubstitutionMatrix::blosum62();
  m.set_score(0, 1, 9);
  m.set_score(1, 0, -7);
  const SubstitutionRows rows(m);
  for (std::size_t a = 0; a < SubstitutionRows::kRows; ++a) {
    const std::int8_t* row = rows.row(static_cast<std::uint8_t>(a));
    for (std::size_t c = 0; c < SubstitutionRows::kStride; ++c) {
      EXPECT_EQ(row[c], m.score(static_cast<bio::Residue>(a),
                                static_cast<bio::Residue>(c)))
          << "a=" << a << " c=" << c;
    }
  }
  EXPECT_EQ(rows.row(0)[1], 9);
  EXPECT_EQ(rows.row(1)[0], -7);
}

TEST(SubstitutionRows, PaddingClampsToX) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const SubstitutionRows rows(m);
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    const std::int8_t* row = rows.row(static_cast<std::uint8_t>(a));
    for (std::size_t c = bio::kProteinAlphabetSize;
         c < SubstitutionRows::kStride; ++c) {
      EXPECT_EQ(row[c], m.score(static_cast<bio::Residue>(a), bio::kUnknownX));
    }
  }
  // Every code past the alphabet reads exactly the X row.
  const std::int8_t* x_row = rows.row(bio::kUnknownX);
  for (std::size_t a = bio::kProteinAlphabetSize; a < SubstitutionRows::kRows;
       ++a) {
    EXPECT_TRUE(std::equal(x_row, x_row + SubstitutionRows::kStride,
                           rows.row(static_cast<std::uint8_t>(a))))
        << "a=" << a;
  }
}

TEST(SubstitutionRows, RepresentabilityBounds) {
  EXPECT_TRUE(
      SubstitutionRows::representable(bio::SubstitutionMatrix::blosum62()));
  const auto extremes = bio::SubstitutionMatrix::identity(127, -128);
  EXPECT_TRUE(SubstitutionRows::representable(extremes));
  const SubstitutionRows rows(extremes);
  EXPECT_EQ(rows.row(3)[3], 127);
  EXPECT_EQ(rows.row(3)[4], -128);
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(SubstitutionRows::representable(wide));
  EXPECT_THROW(SubstitutionRows{wide}, std::invalid_argument);
  wide.set_score(0, 0, 1);
  wide.set_score(2, 5, -129);
  EXPECT_FALSE(SubstitutionRows::representable(wide));
}

TEST(StripedWindows, TransposesAndPadsWithX) {
  util::Xoshiro256 rng(11);
  const index::WindowShape shape{4, 3};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("p", 80, rng));
  index::WindowBatch batch(shape.length());
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.append(bank, index::Occurrence{0, 3 + 7 * i}, shape);
  }
  index::StripedWindows striped;
  striped.assign(batch);
  EXPECT_EQ(striped.size(), batch.size());
  EXPECT_EQ(striped.window_length(), batch.window_length());
  EXPECT_EQ(striped.padded_size() % index::StripedWindows::kLaneWidth, 0u);
  EXPECT_GE(striped.padded_size(), striped.size());
  for (std::size_t k = 0; k < striped.window_length(); ++k) {
    const std::uint8_t* position = striped.position(k);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(position[i], batch.window(i)[k]) << "k=" << k << " i=" << i;
    }
    for (std::size_t i = batch.size(); i < striped.padded_size(); ++i) {
      EXPECT_EQ(position[i], bio::kUnknownX);
    }
  }
}

TEST(StripedWindows, WholeBlocksAndTailsTransposeExactly) {
  // Counts around the 16-lane groups and lengths around the 16-position
  // blocks: whole 16 x 16 blocks, tail positions and X-padded tail lanes.
  util::Xoshiro256 rng(17);
  for (const std::size_t length : {1, 7, 16, 40, 64}) {
    for (const std::size_t count : {1, 15, 16, 17, 33, 48}) {
      bio::SequenceBank bank(bio::SequenceKind::kProtein);
      index::WindowBatch batch(length);
      for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::uint8_t> residues(length);
        for (auto& r : residues) r = static_cast<std::uint8_t>(rng.bounded(32));
        bank.add(bio::Sequence("s", bio::SequenceKind::kProtein, residues));
        batch.append(bank, index::Occurrence{static_cast<std::uint32_t>(i), 0},
                     index::WindowShape{length, 0});
      }
      index::StripedWindows striped;
      striped.assign(batch);
      ASSERT_EQ(striped.padded_size(), (count + 15) / 16 * 16);
      for (std::size_t k = 0; k < length; ++k) {
        const std::uint8_t* position = striped.position(k);
        for (std::size_t i = 0; i < striped.padded_size(); ++i) {
          const std::uint8_t expected =
              i < count ? batch.window(i)[k] : bio::kUnknownX;
          ASSERT_EQ(position[i], expected)
              << "len=" << length << " n=" << count << " k=" << k
              << " i=" << i;
        }
      }
    }
  }
}

TEST(UngappedSimd, EmptyBatchYieldsNoScores) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  index::WindowBatch batch(8);
  index::StripedWindows striped;
  striped.assign(batch);
  const SubstitutionRows rows(m);
  const std::vector<std::uint8_t> window0(8, 0);
  std::vector<int> scores{1, 2, 3};
  ungapped_score_rows_vs_striped(window0, rows, striped, scores);
  EXPECT_TRUE(scores.empty());
}

TEST(UngappedSimd, LengthMismatchThrows) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  index::WindowBatch batch(8);
  index::StripedWindows striped;
  striped.assign(batch);
  const SubstitutionRows rows(m);
  const std::vector<std::uint8_t> window0(10, 0);
  std::vector<int> scores;
  EXPECT_THROW(ungapped_score_rows_vs_striped(window0, rows, striped, scores),
               std::invalid_argument);
  EXPECT_THROW(ungapped_score_rows_vs_striped_portable(window0, rows, striped,
                                                       scores),
               std::invalid_argument);
}

TEST(UngappedSimd, RandomWindowsWithBoundaryFlanksAgree) {
  // Occurrences near both sequence ends produce X-padded flanks; batch
  // sizes straddle the 16-lane groups so padded lanes are exercised.
  util::Xoshiro256 rng(21);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t flank = 2 + rng.bounded(30);
    const index::WindowShape shape{4, flank};
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    const std::size_t seq_len = shape.length() + 40;
    bank.add(sim::generate_protein("p", seq_len, rng));
    const std::size_t count = 1 + rng.bounded(40);
    index::WindowBatch batch(shape.length());
    for (std::size_t i = 0; i < count; ++i) {
      // Offsets 0 and end-of-sequence force maximal X padding.
      const std::uint32_t offset =
          i % 3 == 0 ? 0
                     : static_cast<std::uint32_t>(rng.bounded(seq_len - 1));
      batch.append(bank, index::Occurrence{0, offset}, shape);
    }
    index::WindowBatch one(shape.length());
    one.append(bank, index::Occurrence{0, static_cast<std::uint32_t>(
                                              rng.bounded(seq_len - 1))},
               shape);
    expect_all_kernels_agree(one, batch, m, "boundary flanks");
  }
}

TEST(UngappedSimd, AllNegativeWindowsScoreZero) {
  // Tryptophan vs glycine scores -2 under BLOSUM62 at every position: the
  // running maximum never leaves zero in any lane.
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const index::WindowShape shape{4, 6};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("w", std::string(64, 'W')));
  bank.add(bio::Sequence::protein_from_letters("g", std::string(64, 'G')));
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, 20}, shape);
  index::WindowBatch batch(shape.length());
  for (std::uint32_t i = 0; i < 19; ++i) {
    batch.append(bank, index::Occurrence{1, 10 + i}, shape);
  }
  expect_all_kernels_agree(one, batch, m, "all negative");

  const SubstitutionRows rows(m);
  index::StripedWindows striped;
  striped.assign(batch);
  std::vector<int> scores;
  ungapped_score_rows_vs_striped(one.window(0), rows, striped, scores);
  for (const int s : scores) EXPECT_EQ(s, 0);
}

TEST(UngappedSimd, SaturationAdjacentScoresStayExact) {
  // match=+100 over a 300-residue identical window peaks at 30000 --
  // within 10% of int16 saturation; all kernels must still agree exactly.
  const bio::SubstitutionMatrix m = bio::SubstitutionMatrix::identity(100, -100);
  const std::size_t len = 300;
  ASSERT_TRUE(simd_kernel_applicable(m, len));
  const index::WindowShape shape{4, (len - 4) / 2};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  util::Xoshiro256 rng(5);
  bank.add(sim::generate_protein("p", 2 * len, rng));
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, len}, shape);
  index::WindowBatch batch(shape.length());
  batch.append(bank, index::Occurrence{0, len}, shape);  // identical: peak
  for (std::uint32_t i = 0; i < 17; ++i) {
    batch.append(bank, index::Occurrence{0, 30 + 11 * i}, shape);
  }
  expect_all_kernels_agree(one, batch, m, "saturation adjacent");

  const SubstitutionRows rows(m);
  index::StripedWindows striped;
  striped.assign(batch);
  std::vector<int> scores;
  ungapped_score_rows_vs_striped(one.window(0), rows, striped, scores);
  EXPECT_EQ(scores[0], 100 * static_cast<int>(len));
}

/// A matrix with every cell drawn uniformly from the full int8 range; not
/// symmetric, so a kernel that reads the table transposed fails.
bio::SubstitutionMatrix random_int8_matrix(util::Xoshiro256& rng) {
  bio::SubstitutionMatrix m;
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    for (std::size_t b = 0; b < bio::kProteinAlphabetSize; ++b) {
      m.set_score(static_cast<bio::Residue>(a), static_cast<bio::Residue>(b),
                  static_cast<bio::SubstitutionMatrix::Score>(
                      static_cast<int>(rng.bounded(256)) - 128));
    }
  }
  return m;
}

TEST(UngappedSimd, RowsKernelsEqualScalarOnRandomMatrices) {
  // IL0 windows draw any 8-bit code (codes >= 24 must read the X row);
  // IL1 windows draw every code a striped lane can carry (< 32), so the
  // padding columns are read too. List sizes straddle the 16-lane groups.
  util::Xoshiro256 rng(97);
  bio::SubstitutionMatrix asymmetric = bio::SubstitutionMatrix::blosum62();
  asymmetric.set_score(bio::encode_protein('W'), bio::encode_protein('A'), 40);
  asymmetric.set_score(bio::encode_protein('A'), bio::encode_protein('W'), -40);
  std::vector<bio::SubstitutionMatrix> matrices = {asymmetric};
  for (int i = 0; i < 3; ++i) matrices.push_back(random_int8_matrix(rng));

  for (const auto& m : matrices) {
    for (const std::size_t length : {std::size_t{1}, std::size_t{7},
                                     std::size_t{64}}) {
      ASSERT_TRUE(simd_kernel_applicable(m, length));
      for (const std::size_t count : {1, 15, 16, 17, 33}) {
        bio::SequenceBank bank(bio::SequenceKind::kProtein);
        index::WindowBatch batch(length);
        const index::WindowShape shape{length, 0};
        for (std::size_t i = 0; i < count; ++i) {
          std::vector<std::uint8_t> residues(length);
          for (auto& r : residues) {
            r = static_cast<std::uint8_t>(
                rng.bounded(SubstitutionRows::kStride));
          }
          bank.add(bio::Sequence("s", bio::SequenceKind::kProtein, residues));
          batch.append(bank,
                       index::Occurrence{static_cast<std::uint32_t>(i), 0},
                       shape);
        }
        std::vector<std::uint8_t> window0(length);
        for (auto& r : window0) r = static_cast<std::uint8_t>(rng.bounded(256));
        window0[0] = 255;  // always one out-of-alphabet code

        std::vector<int> scalar, portable, dispatched;
        ungapped_score_one_vs_many(window0, batch, m, scalar);
        const SubstitutionRows rows(m);
        index::StripedWindows striped;
        striped.assign(batch);
        ungapped_score_rows_vs_striped_portable(window0, rows, striped,
                                                portable);
        ungapped_score_rows_vs_striped(window0, rows, striped, dispatched);
        EXPECT_EQ(scalar, portable) << "len=" << length << " n=" << count;
        EXPECT_EQ(scalar, dispatched) << "len=" << length << " n=" << count;
        if (ungapped_avx2_available()) {
          std::vector<int> avx2;
          ungapped_score_rows_vs_striped_avx2(window0, rows, striped, avx2);
          EXPECT_EQ(scalar, avx2) << "len=" << length << " n=" << count;
        }
      }
    }
  }
}

TEST(UngappedSimd, ApplicabilityGuardsSaturationAndRowRange) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_TRUE(simd_kernel_applicable(blosum, 64));
  // 64-residue windows under BLOSUM62 peak at 704 << 32767.
  EXPECT_FALSE(simd_kernel_applicable(
      bio::SubstitutionMatrix::identity(120, -120), 300));  // 36000 > 32767
  bio::SubstitutionMatrix wide = bio::SubstitutionMatrix::identity(1, -1);
  wide.set_score(0, 0, 200);
  EXPECT_FALSE(simd_kernel_applicable(wide, 4));
}

TEST(UngappedSimd, KernelResolutionAndNames) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kAuto, blosum, 64),
            UngappedKernel::kSimd);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kScalar, blosum, 64),
            UngappedKernel::kScalar);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kBlocked, blosum, 64),
            UngappedKernel::kBlocked);
  const bio::SubstitutionMatrix hot = bio::SubstitutionMatrix::identity(120, -120);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kSimd, hot, 300),
            UngappedKernel::kBlocked);

  for (const UngappedKernel kernel :
       {UngappedKernel::kAuto, UngappedKernel::kScalar, UngappedKernel::kBlocked,
        UngappedKernel::kSimd}) {
    const auto parsed = parse_ungapped_kernel(ungapped_kernel_name(kernel));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(parse_ungapped_kernel("fpga").has_value());
}

TEST(CpuFeatures, TierIsConsistentWithFeatures) {
  const SimdTier tier = best_simd_tier();
  EXPECT_STRNE(simd_tier_name(tier), "unknown");
  if (ungapped_avx2_available()) {
    EXPECT_EQ(tier, SimdTier::kAvx2);
  } else {
    EXPECT_NE(tier, SimdTier::kAvx2);
  }
}

}  // namespace
}  // namespace psc::align
