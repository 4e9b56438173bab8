// A slot (cluster) of processing elements with its result management
// module and result FIFO (paper, section 3.1). Slots are separated by
// register barriers; their cost is modeled as the constant pipeline-fill
// latency PscConfig::skew_cycles() rather than per-slot stream skew, so
// the batch and cycle-exact simulators agree (see rasc/psc_operator.hpp).
// Only the cycle-exact engine drives slots.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rasc/fifo.hpp"
#include "rasc/processing_element.hpp"

namespace psc::rasc {

class PeSlot {
 public:
  PeSlot(std::size_t slot_index, std::size_t num_pes,
         std::size_t window_length, const bio::SubstitutionMatrix& rom,
         int threshold);

  std::size_t slot_index() const { return slot_index_; }
  std::size_t num_pes() const { return pes_.size(); }

  /// Number of PEs currently holding an IL0 window.
  std::size_t loaded_pes() const { return loaded_; }
  bool has_free_pe() const { return loaded_ < pes_.size(); }

  /// Loads one residue into the next PE being filled. Returns true when
  /// that PE just became fully loaded.
  bool load_residue(std::uint8_t residue, std::uint32_t il0_index);

  /// Clears all PEs for a new round.
  void reset();

  /// One compute cycle: every loaded PE consumes `il1_residue`. Completed
  /// scores pass through the result manager: those >= threshold are
  /// appended to `passing` tagged with il1_index.
  void compute_cycle(std::uint8_t il1_residue, std::uint32_t il1_index,
                     std::vector<ResultRecord>& passing);

  ProcessingElement& pe(std::size_t i) { return pes_[i]; }

 private:
  std::size_t slot_index_;
  std::vector<ProcessingElement> pes_;
  std::size_t loaded_ = 0;   // PEs fully loaded
  std::size_t filling_ = 0;  // PE currently receiving residues
  int threshold_;
};

}  // namespace psc::rasc
