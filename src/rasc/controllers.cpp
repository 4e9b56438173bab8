#include "rasc/controllers.hpp"

#include <algorithm>
#include <stdexcept>

namespace psc::rasc {

void InputController::restrict(std::size_t first, std::size_t count) {
  if (first > batch_.size()) {
    throw std::out_of_range("InputController::restrict: first out of range");
  }
  first_ = first;
  limit_ = std::min(first + count, batch_.size());
  rewind();
}

void InputController::rewind() {
  window_ = first_;
  offset_ = 0;
}

std::optional<InputController::Emission> InputController::next() {
  const std::size_t limit = std::min(limit_, batch_.size());
  if (window_ >= limit) return std::nullopt;
  const auto span = batch_.window(window_);
  Emission out;
  out.residue = span[offset_];
  out.window_index = static_cast<std::uint32_t>(window_);
  out.window_complete = (offset_ + 1 == span.size());
  if (++offset_ == span.size()) {
    offset_ = 0;
    ++window_;
  }
  return out;
}

}  // namespace psc::rasc
