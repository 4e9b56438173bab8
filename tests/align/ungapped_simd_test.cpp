// Property tests for the vectorized step-2 layer: the biased
// residue-indexed substitution rows, the striped window transpose, and
// the 8-bit screen + scalar rescore, which must report exactly the
// scalar kernel's hits and scores across random (and asymmetric)
// matrices, thresholds, window lengths and batch sizes around the lane
// groups of every tier, out-of-alphabet codes, X-padding, boundary
// flanks, all-negative windows and lanes forced to saturate.
#include "align/ungapped_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "align/ungapped.hpp"
#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::align {

// Readable gtest failure output for hit vectors.
void PrintTo(const WindowScore& hit, std::ostream* out) {
  *out << "{" << hit.window << ", " << hit.score << "}";
}

namespace {

std::vector<WindowScore> scalar_hits(const std::vector<int>& scores,
                                     int threshold) {
  std::vector<WindowScore> hits;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] >= threshold) {
      hits.push_back(WindowScore{static_cast<std::uint32_t>(i), scores[i]});
    }
  }
  return hits;
}

/// True when every residue of `window0` and `batch` is an encoder code.
bool all_encoded(std::span<const std::uint8_t> window0,
                 const index::WindowBatch& batch) {
  const auto encoded = [](std::span<const std::uint8_t> w) {
    return std::all_of(w.begin(), w.end(), [](std::uint8_t r) {
      return r < bio::kProteinAlphabetSize;
    });
  };
  if (!encoded(window0)) return false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!encoded(batch.window(i))) return false;
  }
  return true;
}

/// Screens `window0` against `batch` on every tier and asserts the
/// screen's candidates are exactly the scalar hits, scored
/// min(exact, ceiling), and that screen + rescore reproduces the scalar
/// hits and scores. On encoder codes (the blocked kernel indexes the
/// matrix without clamping other codes to X) it also asserts the blocked
/// kernel's scores equal the scalar kernel's and the hit finder reports
/// the scalar hits on every kernel. Returns how many hits scored past the
/// ceiling.
int expect_screen_matches_scalar(std::span<const std::uint8_t> window0,
                                 const index::WindowBatch& batch,
                                 const bio::SubstitutionMatrix& m,
                                 int threshold, const std::string& label) {
  std::vector<int> scalar;
  ungapped_score_one_vs_many(window0, batch, m, scalar);
  const bool encoded = all_encoded(window0, batch);
  if (encoded) {
    std::vector<int> blocked;
    ungapped_score_one_vs_many_blocked(window0, batch, m, blocked);
    EXPECT_EQ(scalar, blocked) << label << " (blocked)";
  }

  const SubstitutionRows rows(m);
  const std::vector<WindowScore> expected = scalar_hits(scalar, threshold);
  std::vector<WindowScore> expected_screen =
      scalar_hits(scalar, std::max(threshold, 0));
  int saturated = 0;
  for (WindowScore& hit : expected_screen) {
    if (hit.score > rows.ceiling()) ++saturated;
    hit.score = std::min(hit.score, rows.ceiling());
  }

  index::StripedWindows striped;
  striped.assign(batch);
  std::vector<WindowScore> candidates;
  ungapped_screen_rows_vs_striped_portable(window0, rows, striped, threshold,
                                           candidates);
  EXPECT_EQ(candidates, expected_screen) << label << " (portable screen)";
  if (ungapped_avx2_available()) {
    ungapped_screen_rows_vs_striped_avx2(window0, rows, striped, threshold,
                                         candidates);
    EXPECT_EQ(candidates, expected_screen) << label << " (avx2 screen)";
  }
  if (ungapped_avx512_available()) {
    ungapped_screen_rows_vs_striped_avx512(window0, rows, striped, threshold,
                                           candidates);
    EXPECT_EQ(candidates, expected_screen) << label << " (avx512 screen)";
  }
  ungapped_screen_rows_vs_striped(window0, rows, striped, threshold,
                                  candidates);
  EXPECT_EQ(candidates, expected_screen) << label << " (dispatched screen)";

  std::vector<WindowScore> hits{{7, 7}};  // replaced, not appended to
  ungapped_hits_rows_vs_striped(window0, rows, striped, batch, m, threshold,
                                hits);
  EXPECT_EQ(hits, expected) << label << " (screen + rescore)";

  if (!encoded) return saturated;
  for (const UngappedKernel kernel :
       {UngappedKernel::kScalar, UngappedKernel::kBlocked,
        UngappedKernel::kSimd}) {
    UngappedHitFinder finder(kernel, m, threshold);
    finder.assign(batch);
    hits.assign({{7, 7}});
    finder.hits(window0, hits);
    EXPECT_EQ(hits, expected)
        << label << " (finder, " << ungapped_kernel_name(finder.kernel())
        << ")";
  }
  return saturated;
}

/// A batch of `count` windows of `length` random codes below `code_bound`.
index::WindowBatch random_batch(std::size_t count, std::size_t length,
                                std::uint64_t code_bound,
                                util::Xoshiro256& rng,
                                bio::SequenceBank& bank) {
  // The whole bank first: adding to it moves the arena the windows view.
  const std::size_t first = bank.size();
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::uint8_t> residues(length);
    for (auto& r : residues) r = static_cast<std::uint8_t>(rng.bounded(code_bound));
    bank.add(bio::Sequence("s", bio::SequenceKind::kProtein, residues));
  }
  index::WindowBatch batch(length);
  for (std::size_t i = first; i < bank.size(); ++i) {
    batch.append(bank, index::Occurrence{static_cast<std::uint32_t>(i), 0},
                 index::WindowShape{length, 0});
  }
  return batch;
}

TEST(SubstitutionRows, RowsMatchMatrixForEveryCode) {
  // An asymmetric matrix, so a transposed table would fail.
  bio::SubstitutionMatrix m = bio::SubstitutionMatrix::blosum62();
  m.set_score(0, 1, 9);
  m.set_score(1, 0, -7);
  const SubstitutionRows rows(m);
  ASSERT_EQ(rows.bias(), 7);
  EXPECT_EQ(rows.ceiling(), 255 - 7);
  for (std::size_t a = 0; a < SubstitutionRows::kRows; ++a) {
    const std::uint8_t* row = rows.row(static_cast<std::uint8_t>(a));
    for (std::size_t c = 0; c < SubstitutionRows::kStride; ++c) {
      EXPECT_EQ(row[c], m.score(static_cast<bio::Residue>(a),
                                static_cast<bio::Residue>(c)) +
                            rows.bias())
          << "a=" << a << " c=" << c;
    }
  }
  EXPECT_EQ(rows.row(0)[1], 9 + 7);
  EXPECT_EQ(rows.row(1)[0], 0);
}

TEST(SubstitutionRows, PaddingClampsToX) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const SubstitutionRows rows(m);
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    const std::uint8_t* row = rows.row(static_cast<std::uint8_t>(a));
    for (std::size_t c = bio::kProteinAlphabetSize;
         c < SubstitutionRows::kStride; ++c) {
      EXPECT_EQ(row[c], m.score(static_cast<bio::Residue>(a), bio::kUnknownX) +
                            rows.bias());
    }
  }
  // Every code past the alphabet reads exactly the X row.
  const std::uint8_t* x_row = rows.row(bio::kUnknownX);
  for (std::size_t a = bio::kProteinAlphabetSize; a < SubstitutionRows::kRows;
       ++a) {
    EXPECT_TRUE(std::equal(x_row, x_row + SubstitutionRows::kStride,
                           rows.row(static_cast<std::uint8_t>(a))))
        << "a=" << a;
  }
}

TEST(SubstitutionRows, RepresentabilityBounds) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_TRUE(SubstitutionRows::representable(blosum));
  EXPECT_EQ(SubstitutionRows::bias_for(blosum), 4);
  // A span of exactly 255 score units fits: -128 -> 0, 127 -> 255.
  const auto extremes = bio::SubstitutionMatrix::identity(127, -128);
  EXPECT_TRUE(SubstitutionRows::representable(extremes));
  const SubstitutionRows rows(extremes);
  EXPECT_EQ(rows.row(3)[3], 255);
  EXPECT_EQ(rows.row(3)[4], 0);
  EXPECT_EQ(rows.ceiling(), 127);
  // An all-positive matrix needs no bias.
  const auto positive = bio::SubstitutionMatrix::identity(5, 1);
  EXPECT_EQ(SubstitutionRows::bias_for(positive), 0);
  EXPECT_EQ(SubstitutionRows(positive).ceiling(), 255);
  // One unit more than 255 does not fit, whichever end grows.
  const auto wide_top = bio::SubstitutionMatrix::identity(128, -128);
  EXPECT_FALSE(SubstitutionRows::representable(wide_top));
  EXPECT_THROW(SubstitutionRows{wide_top}, std::invalid_argument);
  EXPECT_FALSE(SubstitutionRows::representable(
      bio::SubstitutionMatrix::identity(127, -129)));
  EXPECT_FALSE(SubstitutionRows::representable(
      bio::SubstitutionMatrix::identity(256, 1)));
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
  // Counts around the 16-lane transpose blocks and the 32-lane groups
  // (including groups whose second block is all padding), lengths around
  // the 16-position blocks: whole blocks, tail positions and X-padded
  // tail lanes.
  util::Xoshiro256 rng(17);
  for (const std::size_t length : {1, 7, 16, 40, 64}) {
    for (const std::size_t count : {1, 15, 16, 17, 31, 32, 33, 48, 64, 65}) {
      bio::SequenceBank bank(bio::SequenceKind::kProtein);
      const index::WindowBatch batch =
          random_batch(count, length, 32, rng, bank);
      index::StripedWindows striped;
      striped.assign(batch);
      ASSERT_EQ(striped.padded_size(), (count + 31) / 32 * 32);
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

TEST(UngappedSimd, EmptyBatchYieldsNoCandidates) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  index::WindowBatch batch(8);
  index::StripedWindows striped;
  striped.assign(batch);
  const SubstitutionRows rows(m);
  const std::vector<std::uint8_t> window0(8, 0);
  std::vector<WindowScore> hits{{1, 2}, {3, 4}};
  ungapped_hits_rows_vs_striped(window0, rows, striped, batch, m, 0, hits);
  EXPECT_TRUE(hits.empty());
  std::vector<WindowScore> candidates{{1, 2}};
  ungapped_screen_rows_vs_striped_portable(window0, rows, striped, 0,
                                           candidates);
  EXPECT_TRUE(candidates.empty());
}

TEST(UngappedSimd, RejectsLengthMismatchAndUnboundedThreshold) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  index::WindowBatch batch(8);
  index::StripedWindows striped;
  striped.assign(batch);
  const SubstitutionRows rows(m);
  std::vector<WindowScore> out;
  const std::vector<std::uint8_t> window0(10, 0);
  EXPECT_THROW(
      ungapped_hits_rows_vs_striped(window0, rows, striped, batch, m, 38, out),
      std::invalid_argument);
  EXPECT_THROW(
      ungapped_screen_rows_vs_striped_portable(window0, rows, striped, 38, out),
      std::invalid_argument);
  // A threshold past the ceiling could miss a clamped lane's hit.
  const std::vector<std::uint8_t> window8(8, 0);
  EXPECT_NO_THROW(ungapped_screen_rows_vs_striped(window8, rows, striped,
                                                  rows.ceiling(), out));
  EXPECT_THROW(ungapped_screen_rows_vs_striped(window8, rows, striped,
                                               rows.ceiling() + 1, out),
               std::invalid_argument);
  EXPECT_THROW(ungapped_screen_rows_vs_striped_portable(
                   window8, rows, striped, rows.ceiling() + 1, out),
               std::invalid_argument);
  if (ungapped_avx2_available()) {
    EXPECT_THROW(ungapped_screen_rows_vs_striped_avx2(window0, rows, striped,
                                                      38, out),
                 std::invalid_argument);
    EXPECT_THROW(ungapped_screen_rows_vs_striped_avx2(
                     window8, rows, striped, rows.ceiling() + 1, out),
                 std::invalid_argument);
  }
  if (ungapped_avx512_available()) {
    EXPECT_THROW(ungapped_screen_rows_vs_striped_avx512(window0, rows, striped,
                                                        38, out),
                 std::invalid_argument);
    EXPECT_THROW(ungapped_screen_rows_vs_striped_avx512(
                     window8, rows, striped, rows.ceiling() + 1, out),
                 std::invalid_argument);
  }
}

TEST(UngappedSimd, RandomWindowsWithBoundaryFlanksAgree) {
  // Occurrences near both sequence ends produce X-padded flanks; batch
  // sizes straddle the 32-lane groups so padded lanes are exercised.
  util::Xoshiro256 rng(21);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t flank = 2 + rng.bounded(30);
    const index::WindowShape shape{4, flank};
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    const std::size_t seq_len = shape.length() + 40;
    bank.add(sim::generate_protein("p", seq_len, rng));
    const std::size_t count = 1 + rng.bounded(80);
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
    for (const int threshold : {0, 12, 25}) {
      expect_screen_matches_scalar(one.window(0), batch, m, threshold,
                                   "boundary flanks t=" +
                                       std::to_string(threshold));
    }
  }
}

TEST(UngappedSimd, EveryLaneGroupMixAgreesAtItsBoundaries) {
  // Padded strides 32..192 cover every mix of the AVX-512 tier's loop:
  // 128-lane passes, a 64-lane zmm remainder and a 32-lane ymm tail (and
  // the AVX2 tier's 64-lane passes and 32-lane tail). In each, the last
  // real lane sits on a group boundary: the last lane of the stride
  // (count == stride) or the first lane of the final 32-lane group, with
  // 31 padding lanes after it. Copies of the IL0 window in both boundary
  // lanes, and in every seventh lane, saturate, so lanes forced to the
  // ceiling sit exactly where the emit masks are cut.
  util::Xoshiro256 rng(29);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const std::size_t length = 64;
  std::vector<std::uint8_t> window0(length);
  for (auto& r : window0) {
    r = static_cast<std::uint8_t>(rng.bounded(bio::kProteinAlphabetSize));
  }
  for (const std::size_t stride : {32, 64, 96, 128, 160, 192}) {
    for (const std::size_t count : {stride, stride - 31}) {
      bio::SequenceBank bank(bio::SequenceKind::kProtein);
      for (std::size_t i = 0; i < count; ++i) {
        const bool copy = i % 7 == 0 || i + 1 == count || i % 32 == 31;
        std::vector<std::uint8_t> residues = window0;
        if (!copy) {
          for (auto& r : residues) {
            r = static_cast<std::uint8_t>(
                rng.bounded(bio::kProteinAlphabetSize));
          }
        }
        bank.add(bio::Sequence("s", bio::SequenceKind::kProtein, residues));
      }
      index::WindowBatch batch(length);
      for (std::uint32_t i = 0; i < count; ++i) {
        batch.append(bank, index::Occurrence{i, 0},
                     index::WindowShape{length, 0});
      }
      index::StripedWindows striped;
      striped.assign(batch);
      ASSERT_EQ(striped.padded_size(), stride);
      const std::string label =
          "stride=" + std::to_string(stride) + " n=" + std::to_string(count);
      // Threshold 0 passes every real lane, so a padding lane that leaks
      // past a group's mask cut shows too.
      for (const int threshold : {0, 38}) {
        EXPECT_GT(
            expect_screen_matches_scalar(window0, batch, m, threshold, label),
            0)
            << label << " t=" << threshold;
      }

      // The last real lane saturated and was reported at the ceiling.
      const SubstitutionRows rows(m);
      std::vector<WindowScore> candidates;
      ungapped_screen_rows_vs_striped(window0, rows, striped, 38, candidates);
      ASSERT_FALSE(candidates.empty()) << label;
      EXPECT_EQ(candidates.back(),
                (WindowScore{static_cast<std::uint32_t>(count - 1),
                             rows.ceiling()}))
          << label;
    }
  }
}

TEST(UngappedSimd, AllNegativeWindowsPassNothing) {
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
  for (std::uint32_t i = 0; i < 35; ++i) {
    batch.append(bank, index::Occurrence{1, 10 + i}, shape);
  }
  // Threshold 1 passes nothing; threshold 0 passes every real window at
  // score 0 (and none of the padding lanes).
  expect_screen_matches_scalar(one.window(0), batch, m, 1, "all negative");
  expect_screen_matches_scalar(one.window(0), batch, m, 0, "all negative t=0");

  const SubstitutionRows rows(m);
  index::StripedWindows striped;
  striped.assign(batch);
  std::vector<WindowScore> hits;
  ungapped_hits_rows_vs_striped(one.window(0), rows, striped, batch, m, 0,
                                hits);
  ASSERT_EQ(hits.size(), batch.size());
  for (const WindowScore& hit : hits) EXPECT_EQ(hit.score, 0);
}

TEST(UngappedSimd, SaturatedLanesAreRescoredExactly) {
  // Poly-W against poly-W scores +11 per position under BLOSUM62: a
  // 64-residue window peaks at 704, far past the 8-bit ceiling (251), so
  // the screen clamps those lanes, flags them and the rescore restores
  // the exact score. The same holds for a 300-residue window at +100 per
  // identical position (30000).
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  {
    const index::WindowShape shape{4, 30};
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    bank.add(bio::Sequence::protein_from_letters("w", std::string(200, 'W')));
    util::Xoshiro256 rng(3);
    bank.add(sim::generate_protein("p", 400, rng));
    index::WindowBatch one(shape.length());
    one.append(bank, index::Occurrence{0, 100}, shape);
    index::WindowBatch batch(shape.length());
    for (std::uint32_t i = 0; i < 70; ++i) {
      // Whole and partial poly-W windows among random ones.
      if (i % 3 == 0) {
        batch.append(bank, index::Occurrence{0, 2 * i}, shape);
      } else {
        batch.append(bank, index::Occurrence{1, 5 * i}, shape);
      }
    }
    for (const int threshold : {25, 38, 50}) {
      EXPECT_GT(expect_screen_matches_scalar(
                    one.window(0), batch, blosum, threshold,
                    "poly-W t=" + std::to_string(threshold)),
                0);
    }
  }
  {
    const bio::SubstitutionMatrix m =
        bio::SubstitutionMatrix::identity(100, -100);
    const std::size_t len = 300;
    ASSERT_TRUE(simd_kernel_applicable(m, 38));
    // Whole 300-residue stretches as windows: the flank a seed window
    // would need is wider than the bank's padding.
    const index::WindowShape shape{len, 0};
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    util::Xoshiro256 rng(5);
    bank.add(sim::generate_protein("p", 2 * len, rng));
    index::WindowBatch one(shape.length());
    one.append(bank, index::Occurrence{0, 152}, shape);
    index::WindowBatch batch(shape.length());
    batch.append(bank, index::Occurrence{0, 152}, shape);  // identical: peak
    for (std::uint32_t i = 0; i < 17; ++i) {
      batch.append(bank, index::Occurrence{0, 30 + 11 * i}, shape);
    }
    EXPECT_GT(expect_screen_matches_scalar(one.window(0), batch, m, 38,
                                           "identity 100"),
              0);
    const SubstitutionRows rows(m);
    index::StripedWindows striped;
    striped.assign(batch);
    std::vector<WindowScore> hits;
    ungapped_hits_rows_vs_striped(one.window(0), rows, striped, batch, m, 38,
                                  hits);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front().window, 0u);
    EXPECT_EQ(hits.front().score, 100 * static_cast<int>(len));
  }
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

/// A BLOSUM-like matrix: cells in [-4, 11], diagonal positive.
bio::SubstitutionMatrix random_blosum_like_matrix(util::Xoshiro256& rng) {
  bio::SubstitutionMatrix m;
  for (std::size_t a = 0; a < bio::kProteinAlphabetSize; ++a) {
    for (std::size_t b = 0; b < bio::kProteinAlphabetSize; ++b) {
      const int score = a == b ? 4 + static_cast<int>(rng.bounded(8))
                               : static_cast<int>(rng.bounded(8)) - 4;
      m.set_score(static_cast<bio::Residue>(a), static_cast<bio::Residue>(b),
                  static_cast<bio::SubstitutionMatrix::Score>(score));
    }
  }
  return m;
}

TEST(UngappedSimd, ScreenPlusRescoreEqualsScalarOnRandomMatrices) {
  // The property: for random matrices, thresholds {25, 38, 50} and window
  // lengths around the 32-lane groups, the screen's candidates are
  // exactly the scalar hits (scored min(exact, ceiling)) and screen +
  // rescore reports exactly the scalar hits and scores, on the portable
  // and AVX2 tiers. In one pass IL0 windows draw any 8-bit code (codes
  // >= 24 must read the X row) and IL1 windows every code a striped lane
  // can carry (< 32), so the padding columns are read too; in the other
  // both draw encoder codes only, so the blocked kernel and the hit finder
  // are checked as well. Every fourth IL1 window copies the IL0 window, so
  // lanes saturate under the int8 matrices.
  util::Xoshiro256 rng(97);
  bio::SubstitutionMatrix asymmetric = bio::SubstitutionMatrix::blosum62();
  asymmetric.set_score(bio::encode_protein('W'), bio::encode_protein('A'), 40);
  asymmetric.set_score(bio::encode_protein('A'), bio::encode_protein('W'), -40);
  std::vector<bio::SubstitutionMatrix> matrices = {asymmetric};
  for (int i = 0; i < 3; ++i) matrices.push_back(random_int8_matrix(rng));
  for (int i = 0; i < 2; ++i) matrices.push_back(random_blosum_like_matrix(rng));

  int saturated = 0;
  std::size_t hits = 0;
  for (std::size_t mi = 0; mi < matrices.size(); ++mi) {
    const bio::SubstitutionMatrix& m = matrices[mi];
    for (const int threshold : {25, 38, 50}) {
      ASSERT_TRUE(simd_kernel_applicable(m, threshold));
      for (const std::size_t length : {1, 7, 31, 32, 33, 64}) {
        for (const std::size_t count : {1, 17, 32, 33, 64, 100}) {
          for (const bool encoded : {false, true}) {
            const std::uint64_t bound0 =
                encoded ? bio::kProteinAlphabetSize : 256;
            const std::uint64_t bound1 =
                encoded ? bio::kProteinAlphabetSize : SubstitutionRows::kStride;
            bio::SequenceBank bank(bio::SequenceKind::kProtein);
            std::vector<std::uint8_t> window0(length);
            for (auto& r : window0) {
              r = static_cast<std::uint8_t>(rng.bounded(bound0));
            }
            if (!encoded) window0[0] = 255;  // one out-of-alphabet code
            for (std::size_t i = 0; i < count; ++i) {
              std::vector<std::uint8_t> residues(length);
              for (std::size_t k = 0; k < length; ++k) {
                residues[k] =
                    i % 4 == 3
                        ? std::min<std::uint8_t>(window0[k], bio::kUnknownX)
                        : static_cast<std::uint8_t>(rng.bounded(bound1));
              }
              bank.add(
                  bio::Sequence("s", bio::SequenceKind::kProtein, residues));
            }
            // Windows only once the bank is whole: adding moves the arena.
            index::WindowBatch batch(length);
            for (std::uint32_t i = 0; i < count; ++i) {
              batch.append(bank, index::Occurrence{i, 0},
                           index::WindowShape{length, 0});
            }
            std::vector<int> scalar;
            ungapped_score_one_vs_many(window0, batch, m, scalar);
            hits += scalar_hits(scalar, threshold).size();
            saturated += expect_screen_matches_scalar(
                window0, batch, m, threshold,
                "matrix " + std::to_string(mi) + " t=" +
                    std::to_string(threshold) + " len=" +
                    std::to_string(length) + " n=" + std::to_string(count) +
                    (encoded ? " encoded" : " raw"));
          }
        }
      }
    }
  }
  // The sweep really exercised both sides of the screen and saturation.
  EXPECT_GT(hits, 100u);
  EXPECT_GT(saturated, 10);
}

TEST(UngappedSimd, ApplicabilityGuardsRowRangeAndCeiling) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  // BLOSUM62: bias 4, so thresholds up to 251 can be screened.
  EXPECT_TRUE(simd_kernel_applicable(blosum, 38));
  EXPECT_TRUE(simd_kernel_applicable(blosum, 251));
  EXPECT_FALSE(simd_kernel_applicable(blosum, 252));
  EXPECT_TRUE(simd_kernel_applicable(blosum, -5));
  // The window length no longer matters: saturation is screened, then
  // rescored.
  const auto hot = bio::SubstitutionMatrix::identity(120, -120);
  EXPECT_TRUE(simd_kernel_applicable(hot, 135));
  EXPECT_FALSE(simd_kernel_applicable(hot, 136));
  // Biased cells past u8.
  EXPECT_FALSE(simd_kernel_applicable(
      bio::SubstitutionMatrix::identity(200, -100), 1));
}

TEST(UngappedSimd, KernelResolutionAndNames) {
  const auto& blosum = bio::SubstitutionMatrix::blosum62();
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kAuto, blosum, 38),
            UngappedKernel::kSimd);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kScalar, blosum, 38),
            UngappedKernel::kScalar);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kBlocked, blosum, 38),
            UngappedKernel::kBlocked);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kSimd, blosum, 300),
            UngappedKernel::kBlocked);
  const auto wide = bio::SubstitutionMatrix::identity(200, -100);
  EXPECT_EQ(resolve_ungapped_kernel(UngappedKernel::kAuto, wide, 38),
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
  if (ungapped_avx512_available()) {
    EXPECT_EQ(tier, SimdTier::kAvx512);
    EXPECT_STREQ(simd_tier_name(tier), "avx512");
  } else if (ungapped_avx2_available()) {
    EXPECT_EQ(tier, SimdTier::kAvx2);
  } else {
    EXPECT_NE(tier, SimdTier::kAvx2);
    EXPECT_NE(tier, SimdTier::kAvx512);
  }
}

}  // namespace
}  // namespace psc::align
