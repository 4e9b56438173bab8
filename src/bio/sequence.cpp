#include "bio/sequence.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace psc::bio {

Sequence Sequence::protein_from_letters(std::string id,
                                        std::string_view letters) {
  std::vector<std::uint8_t> data;
  data.reserve(letters.size());
  for (char c : letters) data.push_back(encode_protein(c));
  return Sequence(std::move(id), SequenceKind::kProtein, std::move(data));
}

Sequence Sequence::dna_from_letters(std::string id, std::string_view letters) {
  std::vector<std::uint8_t> data;
  data.reserve(letters.size());
  for (char c : letters) data.push_back(encode_nucleotide(c));
  return Sequence(std::move(id), SequenceKind::kDna, std::move(data));
}

std::string SequenceView::to_letters() const {
  std::string out;
  out.reserve(residues_.size());
  for (std::uint8_t code : residues_) {
    out.push_back(kind_ == SequenceKind::kProtein
                      ? decode_protein(code)
                      : decode_nucleotide(code));
  }
  return out;
}

Sequence SequenceView::subsequence(std::size_t begin,
                                   std::size_t length) const {
  if (begin > residues_.size()) {
    throw std::out_of_range("Sequence::subsequence begin out of range");
  }
  const auto part = residues_.subspan(
      begin, std::min(length, residues_.size() - begin));
  return Sequence(std::string(id_) + ":" + std::to_string(begin), kind_,
                  std::vector<std::uint8_t>(part.begin(), part.end()));
}

namespace {

/// Appends `count` elements copied from `source`, then `pad` copies of
/// `fill`, to `into`. `source` may point into `into` itself (a bank adding
/// a view of one of its own members), which the growth can move.
template <typename T, typename Allocator>
void append_copy(std::vector<T, Allocator>& into, const T* source,
                 std::size_t count, std::size_t pad, T fill) {
  const std::less<const T*> before;
  const bool own = count > 0 && !before(source, into.data()) &&
                   before(source, into.data() + into.size());
  const std::size_t at =
      own ? static_cast<std::size_t>(source - into.data()) : 0;
  const std::size_t base = into.size();
  into.resize(base + count + pad, fill);
  std::copy_n(own ? into.data() + at : source, count, into.data() + base);
}

}  // namespace

void SequenceBank::reserve(std::size_t sequences, std::size_t residues,
                           std::size_t id_bytes) {
  arena_.reserve(arena_.size() + (arena_.empty() ? kPadding : 0) +
                 residues + sequences * kPadding);
  starts_.reserve(starts_.size() + (starts_.empty() ? 1 : 0) + sequences);
  id_chars_.reserve(id_chars_.size() + id_bytes);
  id_ends_.reserve(id_ends_.size() + sequences);
}

std::size_t SequenceBank::add(SequenceView sequence) {
  if (sequence.kind() != kind_) {
    throw std::invalid_argument("SequenceBank::add: kind mismatch");
  }
  if (arena_.empty()) {
    arena_.assign(kPadding, pad_residue());
    starts_.assign(1, kPadding);
  }
  append_copy(arena_, sequence.data(), sequence.size(), kPadding,
              pad_residue());
  starts_.push_back(arena_.size());
  append_copy(id_chars_, sequence.id().data(), sequence.id().size(), 0, '\0');
  id_ends_.push_back(id_chars_.size());
  total_residues_ += sequence.size();
  max_length_ = std::max(max_length_, sequence.size());
  return id_ends_.size() - 1;
}

}  // namespace psc::bio
