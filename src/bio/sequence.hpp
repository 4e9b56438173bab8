// Encoded biological sequences and banks of them.
//
// The paper's algorithm is bank-versus-bank: "two large sets of protein
// sequences" (section 1). SequenceBank is that set. Every residue of the
// bank lives in one padded arena, so a fixed-length window around any
// seed occurrence is a pointer into it (see SequenceBank below); the
// bank exposes the global residue counts the evaluation reports in
// (Kaa, Mnt) units.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bio/alphabet.hpp"
#include "util/mapped_allocator.hpp"

namespace psc::bio {

enum class SequenceKind : std::uint8_t { kProtein, kDna };

class Sequence;

/// A sequence's residues as a read-only span that compares by content.
class ResidueSpan : public std::span<const std::uint8_t> {
 public:
  using std::span<const std::uint8_t>::span;
  ResidueSpan(std::span<const std::uint8_t> residues)  // NOLINT
      : std::span<const std::uint8_t>(residues) {}

  friend bool operator==(ResidueSpan a, ResidueSpan b) {
    return std::ranges::equal(a, b);
  }
};

/// A non-owning view of one sequence: its id, kind and residues, valid
/// while the owner (a Sequence, or a SequenceBank until its next add)
/// stays alive and unchanged.
class SequenceView {
 public:
  SequenceView() = default;
  SequenceView(std::string_view id, SequenceKind kind, ResidueSpan residues)
      : id_(id), residues_(residues), kind_(kind) {}

  std::string_view id() const { return id_; }
  SequenceKind kind() const { return kind_; }
  std::size_t size() const { return residues_.size(); }
  bool empty() const { return residues_.empty(); }

  std::uint8_t operator[](std::size_t i) const { return residues_[i]; }
  const std::uint8_t* data() const { return residues_.data(); }
  ResidueSpan residues() const { return residues_; }

  /// Decodes back to one-letter codes.
  std::string to_letters() const;

  /// Sub-range [begin, begin+length) as a new owning sequence named
  /// "<id>:<begin>"; throws std::out_of_range when begin > size().
  Sequence subsequence(std::size_t begin, std::size_t length) const;

 private:
  std::string_view id_;
  ResidueSpan residues_;
  SequenceKind kind_ = SequenceKind::kProtein;
};

/// A single named, encoded sequence that owns its residues.
class Sequence {
 public:
  Sequence() = default;
  Sequence(std::string id, SequenceKind kind, std::vector<std::uint8_t> data)
      : id_(std::move(id)), kind_(kind), data_(std::move(data)) {}
  /// Copies a viewed sequence (e.g. a bank member) into owned storage.
  Sequence(SequenceView view)  // NOLINT(google-explicit-constructor)
      : id_(view.id()),
        kind_(view.kind()),
        data_(view.residues().begin(), view.residues().end()) {}

  /// Builds a protein sequence from one-letter codes.
  static Sequence protein_from_letters(std::string id, std::string_view letters);
  /// Builds a DNA sequence from one-letter codes.
  static Sequence dna_from_letters(std::string id, std::string_view letters);

  const std::string& id() const { return id_; }
  SequenceKind kind() const { return kind_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::uint8_t operator[](std::size_t i) const { return data_[i]; }
  const std::uint8_t* data() const { return data_.data(); }
  const std::vector<std::uint8_t>& residues() const { return data_; }
  std::vector<std::uint8_t>& mutable_residues() { return data_; }

  /// This sequence as a view (valid while it is alive and unchanged).
  SequenceView view() const { return {id_, kind_, data_}; }

  /// Decodes back to one-letter codes.
  std::string to_letters() const { return view().to_letters(); }

  /// Sub-range [begin, begin+length) as a new sequence named
  /// "<id>:<begin>"; throws std::out_of_range when begin > size().
  Sequence subsequence(std::size_t begin, std::size_t length) const {
    return view().subsequence(begin, length);
  }

 private:
  std::string id_;
  SequenceKind kind_ = SequenceKind::kProtein;
  std::vector<std::uint8_t> data_;
};

/// An ordered collection of sequences of one kind. Sequence numbers (the
/// integers the PSC operator reports in its result pairs) are indices into
/// this bank.
///
/// Layout: every residue lives in one arena, with kPadding pad residues
/// (X for proteins, N for DNA) before the first sequence, between every
/// two, and after the last:
///
///     [pad][seq 0][pad][seq 1][pad] ... [seq n-1][pad]
///
/// start(i) is the arena offset of sequence i's first residue, and ids
/// are kept apart from the residues. Any position up to kPadding residues
/// before or after a sequence reads pad, never a neighbour, so the window
/// of a seed occurrence (index/neighborhood.hpp) is
/// arena() + start(seq) + offset - flank for every flank <= kPadding:
/// no clamping and no fill.
class SequenceBank {
 public:
  /// Pad residues around every sequence: the largest window flank the
  /// bank serves in place (30 by default, up to 62 for the gap
  /// operator's 128-residue windows).
  static constexpr std::size_t kPadding = 64;

  SequenceBank() = default;
  explicit SequenceBank(SequenceKind kind) : kind_(kind) {}

  SequenceKind kind() const { return kind_; }
  std::size_t size() const { return id_ends_.size(); }
  bool empty() const { return id_ends_.empty(); }

  /// Sizes the storage for `sequences` more sequences of `residues`
  /// residues and `id_bytes` id characters in total, so the adds that
  /// follow do not reallocate.
  void reserve(std::size_t sequences, std::size_t residues,
               std::size_t id_bytes = 0);

  /// Appends a copy of a sequence; returns its index. Throws
  /// std::invalid_argument on a kind mismatch. `sequence` may view this
  /// bank itself.
  std::size_t add(SequenceView sequence);
  std::size_t add(const Sequence& sequence) { return add(sequence.view()); }

  /// Sequence i as a view (valid until the next add).
  SequenceView operator[](std::size_t i) const {
    return {id(i), kind_, residues(i)};
  }
  std::string_view id(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : id_ends_[i - 1];
    return {id_chars_.data() + begin, id_ends_[i] - begin};
  }
  ResidueSpan residues(std::size_t i) const {
    return {arena_.data() + starts_[i], length(i)};
  }
  std::size_t length(std::size_t i) const {
    return starts_[i + 1] - starts_[i] - kPadding;
  }

  /// Residues of sequence i for in-place edits that keep its length
  /// (masking, synthetic-data construction).
  std::span<std::uint8_t> mutable_residues(std::size_t i) {
    return {arena_.data() + starts_[i], length(i)};
  }

  /// The padded arena and the offset of sequence i's first residue in it.
  const std::uint8_t* arena() const { return arena_.data(); }
  std::size_t start(std::size_t i) const { return starts_[i]; }

  /// Iterates the bank's sequences as views.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = SequenceView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SequenceView;

    const_iterator() = default;
    const_iterator(const SequenceBank* bank, std::size_t i)
        : bank_(bank), i_(i) {}
    SequenceView operator*() const { return (*bank_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++i_;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const SequenceBank* bank_ = nullptr;
    std::size_t i_ = 0;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Total residues across the bank (the "amino acids" counts of the
  /// paper's data-set description).
  std::size_t total_residues() const { return total_residues_; }

  /// Length of the longest member (used to size simulator buffers).
  std::size_t max_length() const { return max_length_; }

 private:
  std::uint8_t pad_residue() const {
    return kind_ == SequenceKind::kProtein ? kUnknownX : kNucleotideN;
  }

  /// A bank's arrays grow to megabytes and are dropped whole (a replica
  /// replacing a store revision's shards), so large ones are mapped
  /// directly rather than left to fragment the heap.
  template <typename T>
  using Storage = std::vector<T, util::MappedAllocator<T>>;

  SequenceKind kind_ = SequenceKind::kProtein;
  /// The padded residues; empty until the first add.
  Storage<std::uint8_t> arena_;
  /// starts_[i] = arena offset of sequence i; starts_[size()] = the
  /// arena size, where the next sequence goes, so length(i) needs no
  /// special case. Empty until the first add.
  Storage<std::size_t> starts_;
  /// Every id back to back; id i ends at id_ends_[i]. A vector, not a
  /// string, so moving the bank never moves the characters ids view.
  Storage<char> id_chars_;
  Storage<std::size_t> id_ends_;
  std::size_t total_residues_ = 0;
  std::size_t max_length_ = 0;
};

}  // namespace psc::bio
