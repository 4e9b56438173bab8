#include "bio/sequence.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace psc::bio {
namespace {

TEST(Sequence, ProteinFromLettersRoundTrips) {
  const Sequence seq = Sequence::protein_from_letters("p1", "MKVLA");
  EXPECT_EQ(seq.id(), "p1");
  EXPECT_EQ(seq.kind(), SequenceKind::kProtein);
  EXPECT_EQ(seq.size(), 5u);
  EXPECT_EQ(seq.to_letters(), "MKVLA");
}

TEST(Sequence, DnaFromLettersRoundTrips) {
  const Sequence seq = Sequence::dna_from_letters("d1", "ACGTACGT");
  EXPECT_EQ(seq.kind(), SequenceKind::kDna);
  EXPECT_EQ(seq.to_letters(), "ACGTACGT");
}

TEST(Sequence, EmptySequence) {
  const Sequence seq = Sequence::protein_from_letters("empty", "");
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.to_letters(), "");
}

TEST(Sequence, SubsequenceExtractsRange) {
  const Sequence seq = Sequence::protein_from_letters("p", "ARNDCQ");
  const Sequence sub = seq.subsequence(2, 3);
  EXPECT_EQ(sub.to_letters(), "NDC");
  EXPECT_EQ(sub.kind(), SequenceKind::kProtein);
}

TEST(Sequence, SubsequenceClampsAtEnd) {
  const Sequence seq = Sequence::protein_from_letters("p", "ARND");
  EXPECT_EQ(seq.subsequence(2, 100).to_letters(), "ND");
}

TEST(Sequence, SubsequenceOutOfRangeThrows) {
  const Sequence seq = Sequence::protein_from_letters("p", "AR");
  EXPECT_THROW(seq.subsequence(3, 1), std::out_of_range);
}

TEST(SequenceBank, TracksTotals) {
  SequenceBank bank(SequenceKind::kProtein);
  EXPECT_TRUE(bank.empty());
  bank.add(Sequence::protein_from_letters("a", "ARN"));
  bank.add(Sequence::protein_from_letters("b", "ARNDCQE"));
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank.total_residues(), 10u);
  EXPECT_EQ(bank.max_length(), 7u);
}

TEST(SequenceBank, AddReturnsIndex) {
  SequenceBank bank(SequenceKind::kProtein);
  EXPECT_EQ(bank.add(Sequence::protein_from_letters("a", "M")), 0u);
  EXPECT_EQ(bank.add(Sequence::protein_from_letters("b", "M")), 1u);
  EXPECT_EQ(bank[1].id(), "b");
}

TEST(SequenceBank, KindMismatchThrows) {
  SequenceBank bank(SequenceKind::kProtein);
  EXPECT_THROW(bank.add(Sequence::dna_from_letters("d", "ACGT")),
               std::invalid_argument);
}

TEST(SequenceBank, IterationVisitsAll) {
  SequenceBank bank(SequenceKind::kDna);
  bank.add(Sequence::dna_from_letters("a", "AC"));
  bank.add(Sequence::dna_from_letters("b", "GT"));
  std::size_t count = 0;
  for (const Sequence& seq : bank) {
    EXPECT_FALSE(seq.empty());
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(SequenceBank, MembersAreViewsOfOneArena) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("a", "ARN"));
  bank.add(Sequence::protein_from_letters("b", ""));
  bank.add(Sequence::protein_from_letters("c", "MKVL"));
  EXPECT_EQ(bank.id(0), "a");
  EXPECT_EQ(bank.id(1), "b");
  EXPECT_EQ(bank[2].id(), "c");
  EXPECT_EQ(bank[2].to_letters(), "MKVL");
  EXPECT_TRUE(bank[1].empty());
  EXPECT_EQ(bank.length(2), 4u);
  // Every sequence sits kPadding X residues after the previous one ends.
  EXPECT_EQ(bank.start(0), SequenceBank::kPadding);
  EXPECT_EQ(bank.start(1), bank.start(0) + 3 + SequenceBank::kPadding);
  EXPECT_EQ(bank.start(2), bank.start(1) + SequenceBank::kPadding);
  EXPECT_EQ(bank.residues(2).data(), bank.arena() + bank.start(2));
  EXPECT_EQ(bank.arena()[bank.start(2) - 1], kUnknownX);
  EXPECT_EQ(bank.arena()[bank.start(2) + 4 + SequenceBank::kPadding - 1],
            kUnknownX);
}

TEST(SequenceBank, DnaIsPaddedWithN) {
  SequenceBank bank(SequenceKind::kDna);
  bank.add(Sequence::dna_from_letters("d", "ACGT"));
  EXPECT_EQ(bank.arena()[0], kNucleotideN);
  EXPECT_EQ(bank.arena()[bank.start(0) + 4], kNucleotideN);
}

TEST(SequenceBank, ViewsConvertToOwningSequences) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("a", "ARND"));
  const Sequence copy = bank[0];
  EXPECT_EQ(copy.id(), "a");
  EXPECT_EQ(copy.to_letters(), "ARND");
  EXPECT_NE(copy.data(), bank[0].data());
  EXPECT_EQ(copy.residues(), bank[0].residues());
  EXPECT_EQ(bank[0].subsequence(1, 2).to_letters(), "RN");
}

TEST(SequenceBank, AddingAViewOfItselfSurvivesGrowth) {
  // Each add may move the arena and the ids the view points into.
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("seed-with-a-long-id", "MKVLARND"));
  for (int i = 0; i < 200; ++i) bank.add(bank[bank.size() - 1]);
  EXPECT_EQ(bank.size(), 201u);
  EXPECT_EQ(bank.id(200), "seed-with-a-long-id");
  EXPECT_EQ(bank[200].to_letters(), "MKVLARND");
  EXPECT_EQ(bank.total_residues(), 201u * 8);
}

TEST(SequenceBank, ReserveKeepsTheArenaInPlace) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.reserve(3, 12);
  bank.add(Sequence::protein_from_letters("a", "ARND"));
  const std::uint8_t* arena = bank.arena();
  bank.add(Sequence::protein_from_letters("b", "ARND"));
  bank.add(Sequence::protein_from_letters("c", "ARND"));
  EXPECT_EQ(bank.arena(), arena);
}

TEST(SequenceBank, MutableResiduesEditInPlaceAndKeepLength) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("a", "ARND"));
  bank.add(Sequence::protein_from_letters("b", "MKVL"));
  const auto residues = bank.mutable_residues(1);
  ASSERT_EQ(residues.size(), 4u);
  residues[0] = encode_protein('W');
  EXPECT_EQ(bank[1].to_letters(), "WKVL");
  EXPECT_EQ(bank[0].to_letters(), "ARND");
}

}  // namespace
}  // namespace psc::bio
