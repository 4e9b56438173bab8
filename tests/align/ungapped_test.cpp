#include "align/ungapped.hpp"

#include <gtest/gtest.h>

#include "sim/protein_generator.hpp"
#include "util/rng.hpp"

namespace psc::align {
namespace {

std::vector<std::uint8_t> encode(const char* letters) {
  std::vector<std::uint8_t> out;
  for (const char* p = letters; *p; ++p) out.push_back(bio::encode_protein(*p));
  return out;
}

TEST(UngappedWindowScore, IdenticalWindowsSumDiagonal) {
  const auto s = encode("MKVLAR");
  const auto& m = bio::SubstitutionMatrix::blosum62();
  int expected = 0;
  for (const auto r : s) expected += m.score(r, r);
  EXPECT_EQ(ungapped_window_score(s, s, m), expected);
}

TEST(UngappedWindowScore, EmptyWindowsScoreZero) {
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(ungapped_window_score(empty, empty,
                                  bio::SubstitutionMatrix::blosum62()),
            0);
}

TEST(UngappedWindowScore, AllMismatchScoresZero) {
  // 1D Smith-Waterman never goes below zero.
  const auto a = encode("WWWWWW");
  const auto b = encode("GGGGGG");
  EXPECT_EQ(ungapped_window_score(a, b, bio::SubstitutionMatrix::blosum62()),
            0);
}

TEST(UngappedWindowScore, FindsBestInternalSegment) {
  const bio::SubstitutionMatrix m = bio::SubstitutionMatrix::identity(2, -5);
  // match, mismatch, match match match, mismatch -> best run = 3 matches.
  const auto a = encode("ARNDCQ");
  const auto b = encode("AWNDCW");
  EXPECT_EQ(ungapped_window_score(a, b, m), 6);
}

TEST(UngappedWindowScore, SegmentCanSpanSmallDips) {
  const bio::SubstitutionMatrix m = bio::SubstitutionMatrix::identity(3, -1);
  // match mismatch match: 3 - 1 + 3 = 5 beats either single match.
  const auto a = encode("AWA");
  const auto b = encode("AGA");
  EXPECT_EQ(ungapped_window_score(a, b, m), 5);
}

TEST(UngappedWindowScore, UsesShorterLength) {
  const auto a = encode("MKVLAR");
  const auto b = encode("MKV");
  const auto& m = bio::SubstitutionMatrix::blosum62();
  int expected = 0;
  for (std::size_t i = 0; i < 3; ++i) expected += m.score(a[i], a[i]);
  EXPECT_EQ(ungapped_window_score(a, b, m), expected);
}

TEST(UngappedWindowScore, PaddingXCannotHelp) {
  // Appending X padding to both windows never raises the score.
  const auto a = encode("MKVLAR");
  const auto b = encode("MKVWAR");
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const int base = ungapped_window_score(a, b, m);
  auto ax = a;
  auto bx = b;
  for (int i = 0; i < 10; ++i) {
    ax.push_back(bio::kUnknownX);
    bx.push_back(bio::kUnknownX);
  }
  EXPECT_EQ(ungapped_window_score(ax, bx, m), base);
}

TEST(UngappedOneVsMany, MatchesScalarKernel) {
  util::Xoshiro256 rng(5);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const index::WindowShape shape{4, 6};

  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("a", 60, rng));
  bank.add(sim::generate_protein("b", 60, rng));

  index::WindowBatch batch(shape.length());
  for (std::uint32_t pos = 0; pos + shape.seed_width < 50; pos += 7) {
    batch.append(bank, index::Occurrence{1, pos}, shape);
  }
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, 20}, shape);

  std::vector<int> scores;
  ungapped_score_one_vs_many(one.window(0), batch, m, scores);
  ASSERT_EQ(scores.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(scores[i], ungapped_window_score(one.window(0), batch.window(i), m));
  }
}

TEST(UngappedOneVsMany, LengthMismatchThrows) {
  index::WindowBatch batch(8);
  std::vector<std::uint8_t> window(10, 0);
  std::vector<int> scores;
  EXPECT_THROW(ungapped_score_one_vs_many(
                   window, batch, bio::SubstitutionMatrix::blosum62(), scores),
               std::invalid_argument);
}

TEST(UngappedBlocked, MatchesScalarOnAllBatchSizes) {
  // Batch sizes straddling the 4-wide block: remainder handling matters.
  util::Xoshiro256 rng(8);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const index::WindowShape shape{4, 6};
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(sim::generate_protein("pool", 600, rng));
  index::WindowBatch one(shape.length());
  one.append(bank, index::Occurrence{0, 100}, shape);

  for (const std::size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 17u}) {
    index::WindowBatch batch(shape.length());
    for (std::uint32_t i = 0; i < count; ++i) {
      batch.append(bank, index::Occurrence{0, 10 + 9 * i}, shape);
    }
    std::vector<int> scalar, blocked;
    ungapped_score_one_vs_many(one.window(0), batch, m, scalar);
    ungapped_score_one_vs_many_blocked(one.window(0), batch, m, blocked);
    EXPECT_EQ(scalar, blocked) << "batch size " << count;
  }
}

TEST(UngappedBlocked, LengthMismatchThrows) {
  index::WindowBatch batch(8);
  std::vector<std::uint8_t> window(10, 0);
  std::vector<int> scores;
  EXPECT_THROW(
      ungapped_score_one_vs_many_blocked(
          window, batch, bio::SubstitutionMatrix::blosum62(), scores),
      std::invalid_argument);
}

TEST(UngappedBlocked, RandomizedEquivalenceSweep) {
  util::Xoshiro256 rng(9);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t len = 8 + 2 * rng.bounded(48);  // even: flanks split
    index::WindowBatch batch(len);
    bio::SequenceBank bank(bio::SequenceKind::kProtein);
    bank.add(sim::generate_protein("p", len + 400, rng));
    const std::size_t count = 1 + rng.bounded(12);
    const index::WindowShape shape{4, (len - 4) / 2};
    for (std::uint32_t i = 0; i < count; ++i) {
      batch.append(
          bank,
          index::Occurrence{0, static_cast<std::uint32_t>(rng.bounded(300))},
          shape);
    }
    index::WindowBatch one(len);
    one.append(bank, index::Occurrence{0, 200}, shape);
    std::vector<int> scalar, blocked;
    ungapped_score_one_vs_many(one.window(0), batch, m, scalar);
    ungapped_score_one_vs_many_blocked(one.window(0), batch, m, blocked);
    EXPECT_EQ(scalar, blocked);
  }
}

/// Property sweep: the kernel equals a brute-force best-contiguous-segment
/// search over random windows for several window lengths.
class UngappedProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UngappedProperty, EqualsBruteForceSegmentMax) {
  const std::size_t length = GetParam();
  util::Xoshiro256 rng(1000 + length);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::uint8_t> a(length);
    std::vector<std::uint8_t> b(length);
    for (auto& r : a) r = static_cast<std::uint8_t>(rng.bounded(20));
    for (auto& r : b) r = static_cast<std::uint8_t>(rng.bounded(20));

    int brute = 0;
    for (std::size_t lo = 0; lo < length; ++lo) {
      int sum = 0;
      for (std::size_t hi = lo; hi < length; ++hi) {
        sum += m.score(a[hi], b[hi]);
        brute = std::max(brute, sum);
      }
    }
    EXPECT_EQ(ungapped_window_score(a, b, m), brute);
  }
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, UngappedProperty,
                         ::testing::Values(1, 2, 7, 16, 33, 64, 101));

}  // namespace
}  // namespace psc::align
