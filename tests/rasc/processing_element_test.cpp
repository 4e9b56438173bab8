#include "rasc/processing_element.hpp"

#include <gtest/gtest.h>

#include "align/ungapped.hpp"
#include "util/rng.hpp"

namespace psc::rasc {
namespace {

std::vector<std::uint8_t> encode(const std::string& letters) {
  std::vector<std::uint8_t> out;
  for (const char c : letters) out.push_back(bio::encode_protein(c));
  return out;
}

void load(ProcessingElement& pe, const std::vector<std::uint8_t>& window,
          std::uint32_t index = 0) {
  for (const std::uint8_t r : window) pe.load_residue(r, index);
}

/// Streams one whole IL1 window through the PE, cycle by cycle, and
/// returns the score it emits on the last cycle.
int score_window(ProcessingElement& pe, const std::vector<std::uint8_t>& il1) {
  std::optional<int> result;
  for (std::size_t k = 0; k < il1.size(); ++k) {
    EXPECT_FALSE(result.has_value()) << "emitted before the last cycle";
    result = pe.compute_cycle(il1[k]);
  }
  EXPECT_TRUE(result.has_value());
  return result.value_or(-1);
}

TEST(ProcessingElement, LoadsInWindowLengthSteps) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  ProcessingElement pe(4, m);
  EXPECT_FALSE(pe.loaded());
  const auto window = encode("MKVL");
  pe.load_residue(window[0], 3);
  pe.load_residue(window[1], 3);
  EXPECT_FALSE(pe.loaded());
  pe.load_residue(window[2], 3);
  pe.load_residue(window[3], 3);
  EXPECT_TRUE(pe.loaded());
  EXPECT_EQ(pe.il0_index(), 3u);
}

TEST(ProcessingElement, OverloadThrows) {
  ProcessingElement pe(2, bio::SubstitutionMatrix::blosum62());
  load(pe, encode("MK"));
  EXPECT_THROW(pe.load_residue(0, 0), std::logic_error);
}

TEST(ProcessingElement, ComputeBeforeLoadThrows) {
  ProcessingElement pe(2, bio::SubstitutionMatrix::blosum62());
  EXPECT_THROW(pe.compute_cycle(0), std::logic_error);
}

TEST(ProcessingElement, CycleByCycleEqualsScalarKernel) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const auto a = encode("MKVLARND");
  const auto b = encode("MKVWARND");
  ProcessingElement pe(a.size(), m);
  load(pe, a);

  std::optional<int> result;
  for (std::size_t k = 0; k < b.size(); ++k) {
    result = pe.compute_cycle(b[k]);
    if (k + 1 < b.size()) EXPECT_FALSE(result.has_value());
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, align::ungapped_window_score(a, b, m));
}

TEST(ProcessingElement, WholeWindowOfCyclesEqualsScalarKernel) {
  util::Xoshiro256 rng(12);
  const auto& m = bio::SubstitutionMatrix::blosum62();
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> a(32), b(32);
    for (auto& r : a) r = static_cast<std::uint8_t>(rng.bounded(20));
    for (auto& r : b) r = static_cast<std::uint8_t>(rng.bounded(20));
    ProcessingElement pe(32, m);
    load(pe, a);
    EXPECT_EQ(score_window(pe, b), align::ungapped_window_score(a, b, m));
  }
}

TEST(ProcessingElement, ShiftRegisterFeedbackAllowsReuse) {
  // The same stored IL0 window must score several IL1 windows in a row
  // (feedback loop of Figure 2).
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const auto stored = encode("MKVLARND");
  ProcessingElement pe(stored.size(), m);
  load(pe, stored);
  for (const char* il1 : {"MKVLARND", "WWWWWWWW", "MKVLWRND"}) {
    const auto b = encode(il1);
    EXPECT_EQ(score_window(pe, b), align::ungapped_window_score(stored, b, m))
        << il1;
  }
}

TEST(ProcessingElement, ResetAllowsNewWindow) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  ProcessingElement pe(4, m);
  load(pe, encode("MKVL"), 1);
  pe.reset();
  EXPECT_FALSE(pe.loaded());
  load(pe, encode("WWWW"), 2);
  EXPECT_EQ(pe.il0_index(), 2u);
  const auto b = encode("WWWW");
  EXPECT_EQ(score_window(pe, b),
            align::ungapped_window_score(encode("WWWW"), b, m));
}

TEST(ProcessingElement, ZeroWindowLengthThrows) {
  EXPECT_THROW(ProcessingElement(0, bio::SubstitutionMatrix::blosum62()),
               std::invalid_argument);
}

TEST(ProcessingElement, ScoreIsClampedNonNegative) {
  const auto& m = bio::SubstitutionMatrix::blosum62();
  const auto a = encode("GGGG");
  const auto b = encode("WWWW");
  ProcessingElement pe(4, m);
  load(pe, a);
  EXPECT_EQ(score_window(pe, b), 0);
}

}  // namespace
}  // namespace psc::rasc
