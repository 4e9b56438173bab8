// One processing element of the PSC operator (paper, Figure 2).
//
// A PE holds an IL0 sub-sequence in a shift register with a feedback loop
// (so the stored window can be replayed for every IL1 window), and a score
// datapath: substitution ROM -> adder -> clamp-at-zero -> running maximum.
// A comparison takes exactly window_length clock cycles; on the last cycle
// the maximum is handed to the slot's result management module.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bio/substitution_matrix.hpp"

namespace psc::rasc {

class ProcessingElement {
 public:
  /// `rom` must outlive the PE (it is the synthesized substitution ROM).
  ProcessingElement(std::size_t window_length,
                    const bio::SubstitutionMatrix& rom);

  /// Initialization phase: shifts one residue of the IL0 window in. After
  /// window_length calls the PE is loaded. `il0_index` tags the window so
  /// results can name it; it latches on the first residue.
  void load_residue(std::uint8_t residue, std::uint32_t il0_index);

  bool loaded() const { return fill_ == window_.size(); }
  std::uint32_t il0_index() const { return il0_index_; }

  /// Drops the stored window (new round).
  void reset();

  /// Computation phase: one clock cycle. Consumes one residue of the
  /// current IL1 window; the matching IL0 residue comes from the shift
  /// register (which rotates via its feedback loop). Returns the final
  /// maximum score when this cycle completes a window, otherwise nullopt.
  std::optional<int> compute_cycle(std::uint8_t il1_residue);

  std::size_t window_length() const { return window_.size(); }

 private:
  std::vector<std::uint8_t> window_;  // shift register contents
  std::size_t fill_ = 0;              // residues loaded so far
  std::size_t phase_ = 0;             // cycle position within the window
  int score_ = 0;                     // running clamped sum
  int max_score_ = 0;                 // running maximum
  std::uint32_t il0_index_ = 0;
  const bio::SubstitutionMatrix* rom_;
};

}  // namespace psc::rasc
