#include "index/neighborhood.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  EXPECT_EQ(batch.flat().size(), 0u);
}

TEST(WindowBatch, AssignCopiesSubRange) {
  const auto bank = one_protein("MKVLARNDCQEGHILK");
  const WindowShape shape{4, 0};
  WindowBatch all(shape.length());
  for (std::uint32_t p = 0; p < 4; ++p) {
    all.append(bank, Occurrence{0, 4 * p}, shape);
  }
  WindowBatch tile(shape.length());
  tile.append(bank, Occurrence{0, 1}, shape);  // replaced, not appended to
  tile.assign(all, 1, 2);
  ASSERT_EQ(tile.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(tile.source(i).offset, all.source(1 + i).offset);
    EXPECT_TRUE(std::equal(tile.window(i).begin(), tile.window(i).end(),
                           all.window(1 + i).begin()));
  }
  EXPECT_THROW(tile.assign(all, 3, 2), std::out_of_range);
  WindowBatch other_length(shape.length() + 1);
  EXPECT_THROW(other_length.assign(all, 0, 1), std::invalid_argument);
}

TEST(ExtractWindows, ExtractsAllOccurrences) {
  const auto bank = one_protein("MKVLARNDMKVLARND");
  const WindowShape shape{4, 2};
  const std::vector<Occurrence> list = {{0, 0}, {0, 8}, {0, 12}};
  WindowBatch batch(shape.length());
  extract_windows(bank, list, shape, batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.flat().size(), 3u * shape.length());
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

/// Per-residue definition of a window: position i reads sequence residue
/// offset - flank + i, or X where that falls outside the sequence.
std::vector<std::uint8_t> reference_window(const bio::Sequence& seq,
                                           std::uint32_t offset,
                                           const WindowShape& shape) {
  std::vector<std::uint8_t> window(shape.length(), bio::kUnknownX);
  const std::int64_t begin = static_cast<std::int64_t>(offset) -
                             static_cast<std::int64_t>(shape.flank);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const std::int64_t p = begin + static_cast<std::int64_t>(i);
    if (p >= 0 && p < static_cast<std::int64_t>(seq.size())) {
      window[i] = seq[static_cast<std::size_t>(p)];
    }
  }
  return window;
}

/// extract_windows and append must both equal the per-residue reference,
/// window by window, with sources in list order.
void expect_matches_reference(const bio::SequenceBank& bank,
                              const std::vector<Occurrence>& list,
                              const WindowShape& shape, const char* label) {
  WindowBatch extracted(shape.length());
  extract_windows(bank, list, shape, extracted);
  WindowBatch appended(shape.length());
  for (const Occurrence& occ : list) appended.append(bank, occ, shape);
  ASSERT_EQ(extracted.size(), list.size()) << label;
  ASSERT_EQ(extracted.flat().size(), list.size() * shape.length()) << label;
  EXPECT_EQ(extracted.flat(), appended.flat()) << label;
  for (std::size_t i = 0; i < list.size(); ++i) {
    const auto expected =
        reference_window(bank[list[i].sequence], list[i].offset, shape);
    const auto window = extracted.window(i);
    EXPECT_TRUE(std::equal(window.begin(), window.end(), expected.begin(),
                           expected.end()))
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
  EXPECT_TRUE(batch.flat().empty());
}

TEST(ExtractWindows, ShapeMismatchThrows) {
  const auto bank = one_protein("MKVLARND");
  WindowBatch batch(9);
  EXPECT_THROW(extract_windows(bank, std::vector<Occurrence>{{0, 3}},
                               WindowShape{4, 2}, batch),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::index
