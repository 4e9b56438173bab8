#include "bio/fasta.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "support/temp_dir.hpp"

namespace psc::bio {
namespace {

TEST(Fasta, ReadsSingleRecord) {
  std::istringstream in(">prot1 description here\nMKVLA\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank[0].id(), "prot1");
  EXPECT_EQ(bank[0].to_letters(), "MKVLA");
}

TEST(Fasta, ReadsMultilineResidues) {
  std::istringstream in(">p\nMKV\nLAR\nND\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank[0].to_letters(), "MKVLARND");
}

TEST(Fasta, ReadsMultipleRecords) {
  std::istringstream in(">a\nMK\n>b\nVL\n>c\nAR\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 3u);
  EXPECT_EQ(bank[1].id(), "b");
  EXPECT_EQ(bank[2].to_letters(), "AR");
}

TEST(Fasta, SkipsBlankAndCommentLines) {
  std::istringstream in(">a\n\nMK\n;legacy comment\nVL\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank[0].to_letters(), "MKVL");
}

TEST(Fasta, HandlesWindowsLineEndings) {
  std::istringstream in(">a\r\nMK\r\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank[0].to_letters(), "MK");
}

TEST(Fasta, HandlesCrlfMultiRecordFiles) {
  std::istringstream in(">a desc\r\nMK\r\nVL\r\n\r\n>b\r\nAR\r\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[0].id(), "a");
  EXPECT_EQ(bank[0].to_letters(), "MKVL");
  EXPECT_EQ(bank[1].to_letters(), "AR");
}

TEST(Fasta, HandlesClassicMacLineEndings) {
  std::istringstream in(">a\rMK\rVL\r>b\rAR\r");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[0].to_letters(), "MKVL");
  EXPECT_EQ(bank[1].to_letters(), "AR");
}

TEST(Fasta, FinalRecordWithoutTrailingNewline) {
  std::istringstream in(">a\nMK\n>b\nVLAR");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[1].id(), "b");
  EXPECT_EQ(bank[1].to_letters(), "VLAR");
}

TEST(Fasta, FinalCrlfRecordWithoutTrailingNewline) {
  std::istringstream in(">a\r\nMK\r\n>b\r\nVLAR");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[1].to_letters(), "VLAR");
}

TEST(Fasta, HeaderOnlyFinalRecordWithoutNewline) {
  // A trailing header with no residues still creates an (empty) record.
  std::istringstream in(">a\nMK\n>empty");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[1].id(), "empty");
  EXPECT_TRUE(bank[1].empty());
}

TEST(Fasta, MixedLineEndingsWithinOneFile) {
  std::istringstream in(">a\nMK\r\nVL\r>b\r\nAR");
  const SequenceBank bank = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank[0].to_letters(), "MKVL");
  EXPECT_EQ(bank[1].to_letters(), "AR");
}

TEST(Fasta, ResidueBeforeHeaderThrows) {
  std::istringstream in("MKVLA\n>late\nAR\n");
  EXPECT_THROW(read_fasta(in, SequenceKind::kProtein), std::runtime_error);
}

TEST(Fasta, EmptyStreamGivesEmptyBank) {
  std::istringstream in("");
  EXPECT_TRUE(read_fasta(in, SequenceKind::kProtein).empty());
}

TEST(Fasta, DnaKindEncodesNucleotides) {
  std::istringstream in(">g\nACGTN\n");
  const SequenceBank bank = read_fasta(in, SequenceKind::kDna);
  ASSERT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank[0].kind(), SequenceKind::kDna);
  EXPECT_EQ(bank[0].to_letters(), "ACGTN");
}

TEST(Fasta, WriteReadRoundTrip) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("alpha", "MKVLARNDCQEGHILKMFPSTWYV"));
  bank.add(Sequence::protein_from_letters("beta", "AAAA"));

  std::ostringstream out;
  write_fasta(out, bank, 10);
  std::istringstream in(out.str());
  const SequenceBank round = read_fasta(in, SequenceKind::kProtein);
  ASSERT_EQ(round.size(), 2u);
  EXPECT_EQ(round[0].id(), "alpha");
  EXPECT_EQ(round[0].to_letters(), bank[0].to_letters());
  EXPECT_EQ(round[1].to_letters(), "AAAA");
}

TEST(Fasta, WrapsLinesAtWidth) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("p", "AAAAAAAAAAAA"));  // 12 aa
  std::ostringstream out;
  write_fasta(out, bank, 5);
  // Expect 3 residue lines: 5 + 5 + 2.
  EXPECT_EQ(out.str(), ">p\nAAAAA\nAAAAA\nAA\n");
}

TEST(Fasta, MissingFileThrows) {
  EXPECT_THROW(read_fasta_file("/nonexistent/path.fa", SequenceKind::kProtein),
               std::runtime_error);
}

TEST(Fasta, FileRoundTrip) {
  SequenceBank bank(SequenceKind::kProtein);
  bank.add(Sequence::protein_from_letters("p1", "MKVLARNDCQ"));
  bank.add(Sequence::protein_from_letters("p2", "WYVHGAST"));
  const std::string path =
      psc::test::temp_dir() + "/psc_fasta_roundtrip_test.fa";
  write_fasta_file(path, bank);
  const SequenceBank loaded = read_fasta_file(path, SequenceKind::kProtein);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id(), "p1");
  EXPECT_EQ(loaded[0].to_letters(), "MKVLARNDCQ");
  EXPECT_EQ(loaded[1].to_letters(), "WYVHGAST");
  std::remove(path.c_str());
}

TEST(Fasta, UnwritablePathThrows) {
  SequenceBank bank(SequenceKind::kProtein);
  EXPECT_THROW(write_fasta_file("/nonexistent-dir/x.fa", bank),
               std::runtime_error);
}

}  // namespace
}  // namespace psc::bio
