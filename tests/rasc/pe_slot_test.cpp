#include "rasc/pe_slot.hpp"

#include <gtest/gtest.h>

#include "align/ungapped.hpp"

namespace psc::rasc {
namespace {

std::vector<std::uint8_t> encode(const std::string& letters) {
  std::vector<std::uint8_t> out;
  for (const char c : letters) out.push_back(bio::encode_protein(c));
  return out;
}

/// Streams one whole IL1 window through the slot, cycle by cycle.
void stream_window(PeSlot& slot, const std::vector<std::uint8_t>& il1,
                   std::uint32_t il1_index,
                   std::vector<ResultRecord>& passing) {
  for (const std::uint8_t r : il1) slot.compute_cycle(r, il1_index, passing);
}

TEST(PeSlot, LoadsWindowsSequentially) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PeSlot slot(0, 2, 4, m, 0);
  EXPECT_TRUE(slot.has_free_pe());
  const auto w1 = encode("MKVL");
  const auto w2 = encode("ARND");
  for (const auto r : w1) slot.load_residue(r, 10);
  EXPECT_EQ(slot.loaded_pes(), 1u);
  for (const auto r : w2) slot.load_residue(r, 11);
  EXPECT_EQ(slot.loaded_pes(), 2u);
  EXPECT_FALSE(slot.has_free_pe());
  EXPECT_EQ(slot.pe(0).il0_index(), 10u);
  EXPECT_EQ(slot.pe(1).il0_index(), 11u);
}

TEST(PeSlot, LoadIntoFullSlotThrows) {
  PeSlot slot(0, 1, 2, bio::SubstitutionMatrix::blosum62(), 0);
  const auto w = encode("MK");
  for (const auto r : w) slot.load_residue(r, 0);
  EXPECT_THROW(slot.load_residue(0, 1), std::logic_error);
}

TEST(PeSlot, WholeWindowScoresAllLoadedPes) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PeSlot slot(0, 3, 4, m, 0);  // threshold 0: everything passes
  const auto w1 = encode("MKVL");
  const auto w2 = encode("ARND");
  for (const auto r : w1) slot.load_residue(r, 0);
  for (const auto r : w2) slot.load_residue(r, 1);

  const auto il1 = encode("MKVL");
  std::vector<ResultRecord> passing;
  stream_window(slot, il1, 99, passing);
  ASSERT_EQ(passing.size(), 2u);  // third PE not loaded
  EXPECT_EQ(passing[0].il0_index, 0u);
  EXPECT_EQ(passing[0].il1_index, 99u);
  EXPECT_EQ(passing[0].score, align::ungapped_window_score(w1, il1, m));
  EXPECT_EQ(passing[1].il0_index, 1u);
  EXPECT_EQ(passing[1].score, align::ungapped_window_score(w2, il1, m));
}

TEST(PeSlot, ThresholdFiltersResults) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PeSlot slot(0, 2, 4, m, 15);
  const auto good = encode("MKVL");
  const auto bad = encode("GGGG");
  for (const auto r : good) slot.load_residue(r, 0);
  for (const auto r : bad) slot.load_residue(r, 1);

  const auto il1 = encode("MKVL");  // self-score 18; G-vs-MKVL ~ 0
  std::vector<ResultRecord> passing;
  stream_window(slot, il1, 0, passing);
  ASSERT_EQ(passing.size(), 1u);
  EXPECT_EQ(passing[0].il0_index, 0u);
  EXPECT_GE(passing[0].score, 15);
}

TEST(PeSlot, ComputeCycleEmitsAtWindowBoundary) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  PeSlot slot(0, 1, 4, m, 0);
  const auto w = encode("MKVL");
  for (const auto r : w) slot.load_residue(r, 0);

  const auto il1 = encode("MKVL");
  std::vector<ResultRecord> passing;
  for (std::size_t k = 0; k < 3; ++k) {
    slot.compute_cycle(il1[k], 0, passing);
    EXPECT_TRUE(passing.empty());
  }
  slot.compute_cycle(il1[3], 0, passing);
  ASSERT_EQ(passing.size(), 1u);
  EXPECT_EQ(passing[0].score, align::ungapped_window_score(w, il1, m));
}

TEST(PeSlot, ResetClearsLoadState) {
  PeSlot slot(0, 2, 2, bio::SubstitutionMatrix::blosum62(), 0);
  const auto w = encode("MK");
  for (const auto r : w) slot.load_residue(r, 0);
  slot.reset();
  EXPECT_EQ(slot.loaded_pes(), 0u);
  EXPECT_TRUE(slot.has_free_pe());
  for (const auto r : w) slot.load_residue(r, 5);
  EXPECT_EQ(slot.pe(0).il0_index(), 5u);
}

TEST(PeSlot, ZeroPesThrows) {
  EXPECT_THROW(PeSlot(0, 0, 4, bio::SubstitutionMatrix::blosum62(), 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace psc::rasc
