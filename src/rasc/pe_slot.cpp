#include "rasc/pe_slot.hpp"

#include <stdexcept>

namespace psc::rasc {

PeSlot::PeSlot(std::size_t slot_index, std::size_t num_pes,
               std::size_t window_length, const bio::SubstitutionMatrix& rom,
               int threshold)
    : slot_index_(slot_index), threshold_(threshold) {
  if (num_pes == 0) throw std::invalid_argument("PeSlot: zero PEs");
  pes_.reserve(num_pes);
  for (std::size_t i = 0; i < num_pes; ++i) {
    pes_.emplace_back(window_length, rom);
  }
}

bool PeSlot::load_residue(std::uint8_t residue, std::uint32_t il0_index) {
  if (!has_free_pe()) {
    throw std::logic_error("PeSlot::load_residue: slot is full");
  }
  ProcessingElement& target = pes_[filling_];
  target.load_residue(residue, il0_index);
  if (target.loaded()) {
    ++loaded_;
    ++filling_;
    return true;
  }
  return false;
}

void PeSlot::reset() {
  for (auto& pe : pes_) pe.reset();
  loaded_ = 0;
  filling_ = 0;
}

void PeSlot::compute_cycle(std::uint8_t il1_residue, std::uint32_t il1_index,
                           std::vector<ResultRecord>& passing) {
  for (std::size_t i = 0; i < loaded_; ++i) {
    const std::optional<int> done = pes_[i].compute_cycle(il1_residue);
    if (done && *done >= threshold_) {
      passing.push_back(ResultRecord{pes_[i].il0_index(), il1_index, *done});
    }
  }
}

}  // namespace psc::rasc
