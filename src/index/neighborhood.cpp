#include "index/neighborhood.hpp"

#include <stdexcept>

namespace psc::index {

void WindowBatch::append(const bio::SequenceBank& bank, const Occurrence& occ,
                         const WindowShape& shape) {
  if (shape.length() != window_length_) {
    throw std::invalid_argument("WindowBatch::append: shape/window length mismatch");
  }
  const bio::Sequence& seq = bank[occ.sequence];
  const auto seq_len = static_cast<std::int64_t>(seq.size());
  const std::int64_t begin =
      static_cast<std::int64_t>(occ.offset) - static_cast<std::int64_t>(shape.flank);

  const std::size_t base = residues_.size();
  residues_.resize(base + window_length_, bio::kUnknownX);
  for (std::size_t i = 0; i < window_length_; ++i) {
    const std::int64_t p = begin + static_cast<std::int64_t>(i);
    if (p >= 0 && p < seq_len) {
      residues_[base + i] = seq[static_cast<std::size_t>(p)];
    }
  }
  sources_.push_back(occ);
}

void WindowBatch::assign(const WindowBatch& from, std::size_t first,
                         std::size_t count) {
  if (from.window_length_ != window_length_) {
    throw std::invalid_argument("WindowBatch::assign: window length mismatch");
  }
  if (first > from.size() || count > from.size() - first) {
    throw std::out_of_range("WindowBatch::assign: range past end of batch");
  }
  const auto begin = static_cast<std::ptrdiff_t>(first);
  const auto end = static_cast<std::ptrdiff_t>(first + count);
  const auto length = static_cast<std::ptrdiff_t>(window_length_);
  residues_.assign(from.residues_.begin() + begin * length,
                   from.residues_.begin() + end * length);
  sources_.assign(from.sources_.begin() + begin,
                  from.sources_.begin() + end);
}

void extract_windows(const bio::SequenceBank& bank,
                     std::span<const Occurrence> list,
                     const WindowShape& shape, WindowBatch& out) {
  out.clear();
  for (const Occurrence& occ : list) out.append(bank, occ, shape);
}

void StripedWindows::assign(const WindowBatch& batch) {
  window_length_ = batch.window_length();
  count_ = batch.size();
  stride_ = (count_ + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
  residues_.assign(window_length_ * stride_, bio::kUnknownX);
  const std::uint8_t* flat = batch.flat().data();
  for (std::size_t i = 0; i < count_; ++i) {
    const std::uint8_t* window = flat + i * window_length_;
    for (std::size_t k = 0; k < window_length_; ++k) {
      residues_[k * stride_ + i] = window[k];
    }
  }
}

}  // namespace psc::index
