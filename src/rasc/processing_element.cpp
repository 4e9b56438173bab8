#include "rasc/processing_element.hpp"

#include <stdexcept>

namespace psc::rasc {

ProcessingElement::ProcessingElement(std::size_t window_length,
                                     const bio::SubstitutionMatrix& rom)
    : window_(window_length, 0), rom_(&rom) {
  if (window_length == 0) {
    throw std::invalid_argument("ProcessingElement: zero window length");
  }
  fill_ = 0;
}

void ProcessingElement::load_residue(std::uint8_t residue,
                                     std::uint32_t il0_index) {
  if (loaded()) {
    throw std::logic_error("ProcessingElement::load_residue: already loaded");
  }
  if (fill_ == 0) il0_index_ = il0_index;
  window_[fill_++] = residue;
  phase_ = 0;
  score_ = 0;
  max_score_ = 0;
}

void ProcessingElement::reset() {
  fill_ = 0;
  phase_ = 0;
  score_ = 0;
  max_score_ = 0;
}

std::optional<int> ProcessingElement::compute_cycle(std::uint8_t il1_residue) {
  if (!loaded()) {
    throw std::logic_error("ProcessingElement::compute_cycle: not loaded");
  }
  // Shift-register read with feedback: position `phase_` re-enters the
  // register tail, so the window is intact for the next IL1 window.
  const std::uint8_t il0_residue = window_[phase_];
  score_ += rom_->score(il0_residue, il1_residue);
  if (score_ < 0) score_ = 0;
  if (score_ > max_score_) max_score_ = score_;

  ++phase_;
  if (phase_ < window_.size()) return std::nullopt;

  const int result = max_score_;
  phase_ = 0;
  score_ = 0;
  max_score_ = 0;
  return result;
}

}  // namespace psc::rasc
