#include "index/neighborhood.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace psc::index {
namespace {

bio::SequenceBank one_protein(const char* letters) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("p", letters));
  return bank;
}

TEST(WindowShape, LengthFormula) {
  EXPECT_EQ((WindowShape{4, 30}).length(), 64u);
  EXPECT_EQ((WindowShape{3, 0}).length(), 3u);
  EXPECT_EQ((WindowShape{1, 5}).length(), 11u);
}

TEST(WindowBatch, CentersSeedInWindow) {
  const auto bank = one_protein("ARNDCQEGHILKMFPSTWYV");
  const WindowShape shape{4, 2};  // length 8
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 5}, shape);
  ASSERT_EQ(batch.size(), 1u);
  const auto window = batch.window(0);
  // Window = positions 3..10 of the sequence.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(window[i], bank[0][3 + i]);
  }
}

TEST(WindowBatch, PadsLeftBoundaryWithX) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 3};  // length 10, seed at 0 -> 3 pads left
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  const auto window = batch.window(0);
  EXPECT_EQ(window[0], bio::kUnknownX);
  EXPECT_EQ(window[1], bio::kUnknownX);
  EXPECT_EQ(window[2], bio::kUnknownX);
  EXPECT_EQ(window[3], bank[0][0]);
}

TEST(WindowBatch, PadsRightBoundaryWithX) {
  const auto bank = one_protein("MKVLARND");  // length 8
  const WindowShape shape{4, 3};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 4}, shape);  // seed 4..8, right flank past end
  const auto window = batch.window(0);
  // Window covers sequence positions [1, 11); positions 8..10 are pads.
  EXPECT_EQ(window[9], bio::kUnknownX);
  EXPECT_EQ(window[8], bio::kUnknownX);
  EXPECT_EQ(window[7], bio::kUnknownX);
  EXPECT_EQ(window[6], bank[0][7]);
}

TEST(WindowBatch, SourceTagsPreserved) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 1};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 2}, shape);
  batch.append(bank, Occurrence{0, 3}, shape);
  EXPECT_EQ(batch.source(0).offset, 2u);
  EXPECT_EQ(batch.source(1).offset, 3u);
}

TEST(WindowBatch, ShapeMismatchThrows) {
  const auto bank = one_protein("MKVLARND");
  WindowBatch batch(10);
  EXPECT_THROW(batch.append(bank, Occurrence{0, 0}, WindowShape{4, 1}),
               std::invalid_argument);
}

TEST(WindowBatch, ClearResets) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 0};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.size(), 0u);
}

TEST(WindowBatch, WindowsPointIntoTheArena) {
  const auto bank = one_protein("MKVLARNDCQEGHILK");
  const WindowShape shape{4, 3};
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 5}, shape);
  EXPECT_EQ(batch.window(0).data(), bank.arena() + bank.start(0) + 5 - 3);
}

TEST(WindowBatch, SubspanViewsSubRange) {
  const auto bank = one_protein("MKVLARNDCQEGHILK");
  const WindowShape shape{4, 0};
  WindowBatch all(shape.length());
  for (std::uint32_t p = 0; p < 4; ++p) {
    all.append(bank, Occurrence{0, 4 * p}, shape);
  }
  const WindowSpan tile = all.subspan(1, 2);
  ASSERT_EQ(tile.size(), 2u);
  EXPECT_EQ(tile.window_length(), all.window_length());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(tile.source(i).offset, all.source(1 + i).offset);
    EXPECT_EQ(tile.window(i).data(), all.window(1 + i).data());
  }
  EXPECT_EQ(all.subspan(4, 0).size(), 0u);
  EXPECT_THROW(all.subspan(3, 2), std::out_of_range);
  EXPECT_THROW(tile.subspan(1, 2), std::out_of_range);
}

TEST(WindowBatch, FlankAboveThePaddingThrows) {
  const auto bank = one_protein("MKVLARNDCQEGHILK");
  constexpr std::size_t kPad = bio::SequenceBank::kPadding;
  const WindowShape wide{4, kPad + 1};
  WindowBatch batch(wide.length());
  EXPECT_THROW(batch.append(bank, Occurrence{0, 0}, wide),
               std::invalid_argument);
  EXPECT_THROW(extract_windows(bank, std::vector<Occurrence>{{0, 0}}, wide,
                               batch),
               std::invalid_argument);
}

TEST(WindowBatch, WindowPastThePaddingThrows) {
  const auto bank = one_protein("MKVLARND");  // 8 residues
  const WindowShape shape{4, 3};
  WindowBatch batch(shape.length());
  // offset + W + flank may reach length + pad, not beyond.
  batch.append(bank, Occurrence{0, 8 + 64 - 7}, shape);
  EXPECT_THROW(batch.append(bank, Occurrence{0, 8 + 64 - 6}, shape),
               std::out_of_range);
  EXPECT_THROW(batch.append(bank, Occurrence{1, 0}, shape),
               std::out_of_range);
}

TEST(ExtractWindows, ExtractsAllOccurrences) {
  const auto bank = one_protein("MKVLARNDMKVLARND");
  const WindowShape shape{4, 2};
  const std::vector<Occurrence> list = {{0, 0}, {0, 8}, {0, 12}};
  WindowBatch batch(shape.length());
  extract_windows(bank, list, shape, batch);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch.window(i).size(), shape.length());
    EXPECT_EQ(batch.source(i), list[i]);
  }
}

TEST(ExtractWindows, IdenticalContextsGiveIdenticalWindows) {
  const auto bank = one_protein("AAMKVLAANDAAMKVLAAND");
  const WindowShape shape{4, 2};
  const std::vector<Occurrence> list = {{0, 2}, {0, 12}};
  WindowBatch batch(shape.length());
  extract_windows(bank, list, shape, batch);
  const auto w0 = batch.window(0);
  const auto w1 = batch.window(1);
  EXPECT_TRUE(std::equal(w0.begin(), w0.end(), w1.begin()));
}

TEST(ExtractWindows, TinySequenceIsAllPadsAroundSeed) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters("tiny", "MKVL"));
  const WindowShape shape{4, 5};  // length 14, sequence only 4 residues
  WindowBatch batch(shape.length());
  batch.append(bank, Occurrence{0, 0}, shape);
  const auto window = batch.window(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(window[i], bio::kUnknownX);
  for (std::size_t i = 9; i < 14; ++i) EXPECT_EQ(window[i], bio::kUnknownX);
  EXPECT_EQ(window[5], bank[0][0]);
  EXPECT_EQ(window[8], bank[0][3]);
}

/// The oracle: the clamp-and-fill copy WindowBatch::append made before
/// windows were read in place. Window positions inside the sequence are
/// copied in one piece, X fills what falls off either end, and a window
/// wholly past the end is all X.
std::vector<std::uint8_t> clamp_and_fill(bio::SequenceView seq,
                                         std::uint32_t offset,
                                         const WindowShape& shape) {
  const auto length = static_cast<std::int64_t>(shape.length());
  const std::int64_t begin = static_cast<std::int64_t>(offset) -
                             static_cast<std::int64_t>(shape.flank);
  const std::int64_t lo = std::clamp<std::int64_t>(-begin, 0, length);
  const std::int64_t hi = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(seq.size()) - begin, lo, length);
  std::vector<std::uint8_t> window(shape.length());
  std::uint8_t* dst = window.data();
  std::fill(dst, dst + lo, bio::kUnknownX);
  if (hi > lo) {
    std::memcpy(dst + lo, seq.data() + (begin + lo),
                static_cast<std::size_t>(hi - lo));
  }
  std::fill(dst + hi, dst + length, bio::kUnknownX);
  return window;
}

/// extract_windows and append must both equal the clamp-and-fill oracle,
/// byte for byte, with sources in list order.
void expect_matches_reference(const bio::SequenceBank& bank,
                              const std::vector<Occurrence>& list,
                              const WindowShape& shape, const char* label) {
  WindowBatch extracted(shape.length());
  extract_windows(bank, list, shape, extracted);
  WindowBatch appended(shape.length());
  for (const Occurrence& occ : list) appended.append(bank, occ, shape);
  ASSERT_EQ(extracted.size(), list.size()) << label;
  ASSERT_EQ(appended.size(), list.size()) << label;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto expected =
        clamp_and_fill(bank[list[i].sequence], list[i].offset, shape);
    const auto window = extracted.window(i);
    EXPECT_TRUE(std::equal(window.begin(), window.end(), expected.begin(),
                           expected.end()))
        << label << " window " << i;
    EXPECT_TRUE(std::ranges::equal(appended.window(i), window))
        << label << " window " << i;
    EXPECT_EQ(extracted.source(i).sequence, list[i].sequence) << label;
    EXPECT_EQ(extracted.source(i).offset, list[i].offset) << label;
  }
}

TEST(ExtractWindows, SeedAtOffsetZeroMatchesReference) {
  const auto bank = one_protein("MKVLARNDCQEGHILKMFPSTWYV");
  expect_matches_reference(bank, {{0, 0}}, WindowShape{4, 3}, "offset 0");
}

TEST(ExtractWindows, SeedOnLastResidueMatchesReference) {
  const auto bank = one_protein("MKVLARNDCQEGHILKMFPSTWYV");  // 24 residues
  expect_matches_reference(bank, {{0, 23}}, WindowShape{4, 3}, "last");
  expect_matches_reference(bank, {{0, 23}}, WindowShape{1, 5}, "last w=1");
}

TEST(ExtractWindows, SequenceShorterThanWindowMatchesReference) {
  const auto bank = one_protein("MKVLAR");  // 6 residues, window 14
  expect_matches_reference(bank, {{0, 0}, {0, 2}, {0, 5}}, WindowShape{4, 5},
                           "short sequence");
}

TEST(ExtractWindows, FlankWiderThanSequenceOnBothSidesMatchesReference) {
  // Flank 10 > sequence length 5: every window pads on both ends.
  const auto bank = one_protein("MKVLA");
  expect_matches_reference(bank, {{0, 0}, {0, 1}, {0, 3}, {0, 4}},
                           WindowShape{2, 10}, "wide flank");
}

TEST(ExtractWindows, OffsetPastSequenceEndMatchesReference) {
  // Offsets at and beyond the end, including a whole window past it.
  const auto bank = one_protein("MKVLARND");  // 8 residues
  expect_matches_reference(bank, {{0, 8}, {0, 10}, {0, 11}, {0, 40}},
                           WindowShape{4, 3}, "past end");
}

TEST(ExtractWindows, InteriorWindowsMatchReference) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters(
      "a", "MKVLARNDCQEGHILKMFPSTWYVMKVLARNDCQEGHILKMFPSTWYV"));
  bank.add(
      bio::Sequence::protein_from_letters("b", "WYVSTPFMKLIHGEQCDNRALVKM"));
  const WindowShape shape{4, 6};  // length 16
  std::vector<Occurrence> list;
  for (std::uint32_t offset = 6; offset + 10 <= 48; offset += 5) {
    list.push_back({0, offset});
  }
  list.push_back({1, 6});
  list.push_back({1, 14});
  expect_matches_reference(bank, list, shape, "interior");
}

TEST(ExtractWindows, EmptyListClearsBatch) {
  const auto bank = one_protein("MKVLARND");
  const WindowShape shape{4, 2};
  WindowBatch batch(shape.length());
  extract_windows(bank, std::vector<Occurrence>{{0, 3}}, shape, batch);
  extract_windows(bank, {}, shape, batch);
  EXPECT_TRUE(batch.empty());
}

TEST(ExtractWindows, ShapeMismatchThrows) {
  const auto bank = one_protein("MKVLARND");
  WindowBatch batch(9);
  EXPECT_THROW(extract_windows(bank, std::vector<Occurrence>{{0, 3}},
                               WindowShape{4, 2}, batch),
               std::invalid_argument);
}

/// A bank whose arena has every kind of edge: a first and a last
/// sequence, an empty sequence between two others, and a sequence
/// shorter than the seed's flanks.
bio::SequenceBank edge_bank() {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  bank.add(bio::Sequence::protein_from_letters(
      "first", "MKVLARNDCQEGHILKMFPSTWYVMKVLARNDCQEGHILKMFPSTWYV"));
  bank.add(bio::Sequence::protein_from_letters("before-empty", "ARNDCQEGHI"));
  bank.add(bio::Sequence::protein_from_letters("empty", ""));
  bank.add(bio::Sequence::protein_from_letters("after-empty", "WYVSTPFMKL"));
  bank.add(bio::Sequence::protein_from_letters("short", "MKVLA"));
  bank.add(bio::Sequence::protein_from_letters(
      "last", "LKMFPSTWYVMKVLARNDCQEGHILKMFPSTWYVARND"));
  return bank;
}

/// Every word start of every sequence of `bank`.
std::vector<Occurrence> every_word(const bio::SequenceBank& bank,
                                   std::size_t seed_width) {
  std::vector<Occurrence> list;
  for (std::uint32_t s = 0; s < bank.size(); ++s) {
    for (std::uint32_t o = 0; o + seed_width <= bank.length(s); ++o) {
      list.push_back({s, o});
    }
  }
  return list;
}

TEST(ExtractWindows, ArenaEdgesMatchClampAndFill) {
  // Windows at the first and last residue of the first and last
  // sequence and on both sides of the empty one, up to flank = pad.
  const auto bank = edge_bank();
  for (const std::size_t flank : {0, 1, 30, 60, 62, 63, 64}) {
    const WindowShape shape{4, flank};
    const std::vector<Occurrence> list = {
        {0, 0},  {0, 44}, {1, 0}, {1, 6},  {3, 0},
        {3, 6},  {4, 0},  {4, 1}, {5, 0},  {5, 34}};
    expect_matches_reference(bank, list, shape, "edges");
  }
}

TEST(ExtractWindows, EveryWordOfEveryShapeMatchesClampAndFill) {
  const auto bank = edge_bank();
  for (const std::size_t width : {1, 3, 4}) {
    for (const std::size_t flank : {0, 7, 30, 64}) {
      expect_matches_reference(bank, every_word(bank, width),
                               WindowShape{width, flank}, "every word");
    }
  }
}

TEST(ExtractWindows, ArenaPadsEverySequenceWithX) {
  const auto bank = edge_bank();
  constexpr std::size_t kPad = bio::SequenceBank::kPadding;
  const std::uint8_t* arena = bank.arena();
  EXPECT_EQ(bank.start(0), kPad);
  for (std::size_t s = 0; s < bank.size(); ++s) {
    for (std::size_t k = 1; k <= kPad; ++k) {
      EXPECT_EQ(arena[bank.start(s) - k], bio::kUnknownX) << s;
      EXPECT_EQ(arena[bank.start(s) + bank.length(s) + k - 1], bio::kUnknownX)
          << s;
    }
    EXPECT_TRUE(std::ranges::equal(
        std::span(arena + bank.start(s), bank.length(s)), bank.residues(s)));
  }
  EXPECT_EQ(bank.length(2), 0u);
  EXPECT_EQ(bank.start(3), bank.start(2) + kPad);
}

}  // namespace
}  // namespace psc::index
