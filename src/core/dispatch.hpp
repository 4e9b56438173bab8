// Host/FPGA work dispatch -- the paper's closing question (section 5):
// "when such processors [with 4, 8 or more cores] will be linked to
// reconfigurable resources, the question will be how to dispatch the
// overall computation between cores and FPGA to get optimal
// performances."
//
// This extension splits step 2's key space between the host's thread
// pool and the simulated accelerator: keys are weighted by their
// step-2 work (|IL0| x |IL1| pairs) and greedily assigned so the host
// receives a target fraction of the total. Both halves run concurrently
// in real deployments, so the combined time is max(host, accelerator).
#pragma once

#include <cstdint>
#include <vector>

#include "align/hit.hpp"
#include "core/options.hpp"
#include "index/index_table.hpp"

namespace psc::core {

struct DispatchConfig {
  /// Target share of step-2 pair work executed on the host (0 = all on
  /// the accelerator, 1 = all on the host).
  double host_fraction = 0.25;
  std::size_t host_threads = 0;  ///< 0 = hardware concurrency
  /// Ungapped kernel for the host half (kAuto = striped SIMD when exact).
  align::UngappedKernel kernel = align::UngappedKernel::kAuto;
  rasc::RascStep2Config rasc{};
  index::WindowShape shape{4, 30};
  int threshold = 38;
};

struct DispatchResult {
  /// Merged hits of both halves, in an unspecified order (step 3 orders
  /// them; the modeled numbers depend only on the key split).
  std::vector<align::SeedPairHit> hits;
  std::uint64_t pairs = 0;
  std::uint64_t host_pairs = 0;
  std::uint64_t accel_pairs = 0;
  double host_seconds = 0.0;      ///< measured wall clock
  double accel_seconds = 0.0;     ///< modeled accelerator time
  /// Per-FPGA reports from the accelerator half (empty when every key
  /// ran on the host): where the board-residency accounting --
  /// uploads paid, swaps, seconds saved -- surfaces to callers.
  std::vector<rasc::FpgaRunReport> fpga_reports;
  /// Combined step-2 time under concurrent execution.
  double combined_seconds() const {
    return host_seconds > accel_seconds ? host_seconds : accel_seconds;
  }
};

/// Runs step 2 with the key space split between host and accelerator.
DispatchResult run_step2_dispatch(const bio::SequenceBank& bank0,
                                  const index::IndexTable& table0,
                                  const bio::SequenceBank& bank1,
                                  const index::IndexTable& table1,
                                  const bio::SubstitutionMatrix& matrix,
                                  const DispatchConfig& config);

}  // namespace psc::core
