#include "rasc/controllers.hpp"

#include <gtest/gtest.h>

namespace psc::rasc {
namespace {

/// Windows of equal length, each a whole sequence of `bank` (which the
/// batch views, so it must outlive it).
index::WindowBatch make_batch(bio::SequenceBank& bank,
                              std::initializer_list<const char*> windows) {
  std::size_t length = 0;
  for (const char* w : windows) length = std::string(w).size();
  const std::size_t first = bank.size();
  for (const char* w : windows) {
    bank.add(bio::Sequence::protein_from_letters(
        "w" + std::to_string(bank.size()), w));
  }
  index::WindowBatch batch(length);
  for (std::size_t i = first; i < bank.size(); ++i) {
    batch.append(bank, index::Occurrence{static_cast<std::uint32_t>(i), 0},
                 index::WindowShape{length, 0});
  }
  return batch;
}

TEST(InputController, StreamsResiduesInOrder) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MKVL"});
  InputController controller(batch);
  std::string streamed;
  while (auto emission = controller.next()) {
    streamed.push_back(bio::decode_protein(emission->residue));
  }
  EXPECT_EQ(streamed, "MKVL");
  EXPECT_TRUE(controller.exhausted());
}

TEST(InputController, MarksWindowBoundaries) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MKVL", "ARND"});
  InputController controller(batch);
  std::vector<bool> completes;
  std::vector<std::uint32_t> indices;
  while (auto emission = controller.next()) {
    completes.push_back(emission->window_complete);
    indices.push_back(emission->window_index);
  }
  ASSERT_EQ(completes.size(), 8u);
  EXPECT_FALSE(completes[0]);
  EXPECT_TRUE(completes[3]);
  EXPECT_TRUE(completes[7]);
  EXPECT_EQ(indices[0], 0u);
  EXPECT_EQ(indices[4], 1u);
}

TEST(InputController, RestrictLimitsStream) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MKVL", "ARND", "CQEG"});
  InputController controller(batch);
  controller.restrict(1, 1);
  std::string streamed;
  while (auto emission = controller.next()) {
    streamed.push_back(bio::decode_protein(emission->residue));
    EXPECT_EQ(emission->window_index, 1u);
  }
  EXPECT_EQ(streamed, "ARND");
}

TEST(InputController, RewindReplaysStream) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MK"});
  // Window length 2 here; make_batch uses last window's length -- both 2.
  InputController controller(batch);
  int first_count = 0;
  while (controller.next()) ++first_count;
  controller.rewind();
  int second_count = 0;
  while (controller.next()) ++second_count;
  EXPECT_EQ(first_count, second_count);
}

TEST(InputController, RestrictPastEndThrows) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MKVL"});
  InputController controller(batch);
  EXPECT_THROW(controller.restrict(2, 1), std::out_of_range);
}

TEST(InputController, RestrictCountClampsToBatch) {
  bio::SequenceBank bank(bio::SequenceKind::kProtein);
  const auto batch = make_batch(bank, {"MKVL", "ARND"});
  InputController controller(batch);
  controller.restrict(1, 100);
  int windows = 0;
  while (auto emission = controller.next()) {
    windows += emission->window_complete ? 1 : 0;
  }
  EXPECT_EQ(windows, 1);
}

TEST(OutputController, CollectsAndTakes) {
  OutputController controller;
  controller.accept(ResultRecord{1, 2, 3});
  controller.accept(ResultRecord{4, 5, 6});
  EXPECT_EQ(controller.results().size(), 2u);
  const auto taken = controller.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[1].il1_index, 5u);
}

TEST(OutputController, ClearEmpties) {
  OutputController controller;
  controller.accept(ResultRecord{1, 2, 3});
  controller.clear();
  EXPECT_TRUE(controller.results().empty());
}

}  // namespace
}  // namespace psc::rasc
