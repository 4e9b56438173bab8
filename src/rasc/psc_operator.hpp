// The Parallel Sequence Comparison operator (paper, Figure 1): the full
// PE array with input controllers, PE slots, result FIFOs, output and
// master controllers, simulated at the level of its 100 MHz clock.
//
// Two execution engines share one timing model:
//
//  * run_key_cycle_exact -- steps every component each clock cycle: PEs
//    advance their shift registers and score datapaths, result managers
//    push into the slot FIFOs, the cascade forwards and the output
//    controller pops one record per cycle. This is the reference
//    implementation of the architecture and the only engine that drives
//    ProcessingElement / PeSlot.
//
//  * run_key -- the batch engine: no PE is loaded. Each round's passing
//    pairs (loaded IL0 windows x IL1 windows) come from the host step-2
//    kernels through align::UngappedHitFinder (the striped 8-bit screen,
//    one lane per PE, with lanes that reached the 8-bit ceiling rescored
//    by the scalar reference; or the blocked kernel for short IL1 tiles
//    and configurations the screen cannot bound), which reports exactly
//    the pairs the PE datapath's max-prefix-sum passes, with their exact
//    scores. Like the PEs' substitution ROM, the matrix is laid out once
//    per operator as biased residue-indexed rows (align::SubstitutionRows)
//    and every window is read in place from the banks' arenas, so a
//    round's load phase costs modeled cycles only. IL1 is scored in
//    fixed-size tiles, each a sub-range view of the key's IL1 windows,
//    and records are emitted in the array's completion order (round,
//    then IL1 window, then IL0 window) with each IL1 window's hit count
//    fed to the closed-form timing model below. Benches use this engine; tests
//    verify its records against the cycle-exact engine.
//
// Timing model (per round with p loaded PEs, q IL1 windows, window
// length L, cascade capacity C):
//   load    : p * L + skew          (stream p windows + pipeline fill)
//   compute : q * L + skew          (stream q windows + pipeline fill)
//   stall   : incurred when a completion tick pushes the cascade past C;
//             the array pauses one cycle per overflowing record
//   drain   : one cycle per record still buffered after the last tick
// The register barriers between slots contribute the constant `skew`
// latency; they do not change streaming throughput (section 3.1 notes the
// control is independent of the number of PEs).
#pragma once

#include <cstdint>
#include <vector>

#include "align/ungapped_simd.hpp"
#include "bio/substitution_matrix.hpp"
#include "index/neighborhood.hpp"
#include "rasc/controllers.hpp"
#include "rasc/fifo.hpp"
#include "rasc/pe_slot.hpp"
#include "rasc/psc_config.hpp"

namespace psc::rasc {

/// Cycle and utilization counters accumulated across run_key calls.
struct OperatorStats {
  std::uint64_t cycles_load = 0;
  std::uint64_t cycles_compute = 0;
  std::uint64_t cycles_stall = 0;
  std::uint64_t cycles_drain = 0;
  std::uint64_t comparisons = 0;   ///< window pairs scored
  std::uint64_t hits = 0;          ///< pairs at or above threshold
  std::uint64_t rounds = 0;        ///< load/compute passes
  std::uint64_t keys = 0;          ///< run_key invocations
  /// PE occupancy: loaded PE-ticks vs. num_pes * ticks. The gap is the
  /// paper's explanation for the weak small-bank speedups ("there are not
  /// enough sub-sequences related to one specific seed to feed entirely
  /// the array", section 4.1).
  std::uint64_t pe_ticks_busy = 0;
  std::uint64_t pe_ticks_total = 0;

  std::uint64_t cycles_total() const {
    return cycles_load + cycles_compute + cycles_stall + cycles_drain;
  }
  double utilization() const {
    return pe_ticks_total == 0
               ? 0.0
               : static_cast<double>(pe_ticks_busy) /
                     static_cast<double>(pe_ticks_total);
  }

  OperatorStats& operator+=(const OperatorStats& other);
};

class PscOperator {
 public:
  PscOperator(const PscConfig& config, const bio::SubstitutionMatrix& rom);

  const PscConfig& config() const { return config_; }

  /// Batch engine: scores every IL0 x IL1 window pair for one seed key,
  /// appending above-threshold results to `out` (indices are positions in
  /// the respective batches) in the order the cycle-exact engine's slots
  /// complete them. Updates stats with modeled cycles.
  void run_key(index::WindowSpan il0, index::WindowSpan il1,
               std::vector<ResultRecord>& out);

  /// Cycle-exact engine: same contract, every component stepped per clock.
  void run_key_cycle_exact(index::WindowSpan il0, index::WindowSpan il1,
                           std::vector<ResultRecord>& out);

  const OperatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = OperatorStats{}; }

  /// Seconds implied by the accumulated cycle count at the configured
  /// clock (compute time only; transfers are the platform model's job).
  double modeled_seconds() const;

 private:
  void reset_array();
  /// Scores loaded IL0 windows [first, first + loaded) against `tile`
  /// (the IL1 sub-range [tile_first, tile_first + tile.size())) and appends the
  /// passing records to `out` ordered by IL1 window, then IL0 window.
  /// counts_[j] ends as the record count of the tile's windows <= j.
  void score_tile(index::WindowSpan il0, std::size_t first,
                  std::size_t loaded, index::WindowSpan tile,
                  std::size_t tile_first, std::vector<ResultRecord>& out);

  PscConfig config_;
  const bio::SubstitutionMatrix* rom_;
  // The array, stepped by the cycle-exact engine.
  std::vector<PeSlot> slots_;
  FifoCascade cascade_;
  OutputController output_;
  OperatorStats stats_;
  // Batch engine state: the hit finder (which holds the ROM as biased
  // residue-indexed rows when the screen applies) and scratch bounded by
  // the IL1 tile size.
  align::UngappedHitFinder finder_;
  std::vector<align::WindowScore> passed_;
  std::vector<ResultRecord> pending_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace psc::rasc
