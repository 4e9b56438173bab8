// The gapped-extension operator proposed in the paper's conclusion
// (section 5): "optimizing global performances implies now to consider
// ... the design of another reconfigurable operator dedicated to the
// computation of similarities including gap penalty. The RASC-100
// architecture would perfectly support this double activity since it
// allows two different designs to run concurrently on its two FPGAs."
//
// The operator is an array of independent *lanes*. Each lane is a
// systolic banded-Gotoh unit of 2B+1 cells: it loads one pair of
// fixed-length windows (M residues around the step-2 hit on each side,
// streamed on the two input ports like the PSC operator's IL ports) and
// evaluates the banded local-alignment DP one anti-diagonal per clock.
// Above-threshold scores leave through a result FIFO as in Figure 1.
// Per pair: M load cycles (both windows stream in parallel) + 2M - 1
// compute cycles, content-independent -- the same regularity argument
// that shaped the ungapped stage.
#pragma once

#include <cstdint>
#include <vector>

#include "align/banded.hpp"
#include "align/gapped_simd.hpp"
#include "index/neighborhood.hpp"
#include "rasc/fifo.hpp"

namespace psc::rasc {

struct GapOperatorConfig {
  std::size_t num_lanes = 16;       ///< parallel banded units on the FPGA
  std::size_t band = 16;            ///< band half-width B (2B+1 cells/lane)
  std::size_t window_length = 128;  ///< M residues per window
  int threshold = 45;               ///< banded score that survives
  double clock_hz = 100e6;
  /// Host kernel used for the functional pass (the modeled cycle counts
  /// are content-independent, so this only changes simulation speed).
  align::GappedKernel kernel = align::GappedKernel::kAuto;

  void validate() const;
};

struct GapOperatorStats {
  std::uint64_t cycles_load = 0;
  std::uint64_t cycles_compute = 0;
  std::uint64_t pairs = 0;
  std::uint64_t survivors = 0;
  std::uint64_t lane_ticks_busy = 0;
  std::uint64_t lane_ticks_total = 0;

  std::uint64_t cycles_total() const { return cycles_load + cycles_compute; }
  double utilization() const {
    return lane_ticks_total == 0
               ? 0.0
               : static_cast<double>(lane_ticks_busy) /
                     static_cast<double>(lane_ticks_total);
  }
};

class GapOperator {
 public:
  GapOperator(const GapOperatorConfig& config,
              const bio::SubstitutionMatrix& rom,
              const align::GapParams& gap_params);

  const GapOperatorConfig& config() const { return config_; }

  /// Scores window pair i = (batch0[i], batch1[i]) for every i; appends a
  /// ResultRecord (pair index in both fields, banded score) for each pair
  /// at or above the threshold. Pairs are spread across the lanes; cycle
  /// accounting follows the per-pair closed form above.
  void run_pairs(index::WindowSpan batch0, index::WindowSpan batch1,
                 std::vector<ResultRecord>& out);

  const GapOperatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = GapOperatorStats{}; }

  double modeled_seconds() const {
    return static_cast<double>(stats_.cycles_total()) / config_.clock_hz;
  }

 private:
  GapOperatorConfig config_;
  const bio::SubstitutionMatrix* rom_;
  align::GapParams gap_params_;
  align::GappedExtender extender_;
  GapOperatorStats stats_;
};

}  // namespace psc::rasc
