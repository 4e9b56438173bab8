// The PSC operator's control plane (paper, section 3.1): two input
// controllers that turn window batches into residue streams, an output
// controller that drains the FIFO cascade, and the master controller FSM
// that sequences load / compute / drain phases over as many rounds as the
// IL0 list needs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "index/neighborhood.hpp"
#include "rasc/fifo.hpp"

namespace psc::rasc {

/// Streams the residues of a window stream one per cycle, window after
/// window. Input Controller 0 feeds PE shift registers during the load
/// phase; Input Controller 1 broadcasts IL1 windows during compute.
class InputController {
 public:
  explicit InputController(index::WindowSpan batch) : batch_(batch) {}

  bool exhausted() const {
    const std::size_t limit =
        limit_ < batch_.size() ? limit_ : batch_.size();
    return window_ >= limit;
  }

  std::size_t current_window() const { return window_; }

  /// Bounds the stream to windows [first, first+count) of the batch
  /// (used by the master controller to load one round's worth of IL0).
  void restrict(std::size_t first, std::size_t count);

  /// Rewinds to the start of the (possibly restricted) stream.
  void rewind();

  /// One cycle: emits the next residue. Returns nullopt when exhausted.
  struct Emission {
    std::uint8_t residue;
    std::uint32_t window_index;  ///< batch-relative window number
    bool window_complete;        ///< true on the window's last residue
  };
  std::optional<Emission> next();

 private:
  index::WindowSpan batch_;
  std::size_t first_ = 0;
  std::size_t limit_ = static_cast<std::size_t>(-1);
  std::size_t window_ = 0;
  std::size_t offset_ = 0;
};

/// Collects records surrendered by the FIFO cascade and hands them to the
/// host-facing result port.
class OutputController {
 public:
  void accept(const ResultRecord& record) { results_.push_back(record); }
  const std::vector<ResultRecord>& results() const { return results_; }
  std::vector<ResultRecord> take() { return std::move(results_); }
  void clear() { results_.clear(); }

 private:
  std::vector<ResultRecord> results_;
};

}  // namespace psc::rasc
