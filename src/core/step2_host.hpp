// Step 2 on the host: the nested-loop ungapped extension of section 2.1
//
//   for k = 1 to key_space
//     for i = 1 to len(IL0k)
//       for j = 1 to len(IL1k)
//         ungapped_extension(IL0k[i], IL1k[j])
//
// executed either sequentially (the paper's software baseline structure)
// or across a thread pool partitioned by seed key.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/hit.hpp"
#include "align/ungapped_simd.hpp"
#include "bio/substitution_matrix.hpp"
#include "core/options.hpp"
#include "index/index_table.hpp"

namespace psc::util {
class Executor;
}  // namespace psc::util

namespace psc::core {

/// Greedy contiguous partition of the whole key space into at most
/// `parts` chunks of approximately equal estimated work, where a key's
/// cost is |IL0k| * |IL1k| (the window pairs step 2 will score for it).
/// Ranges are half-open [first, last) over seed keys and cover the key
/// space exactly.
std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::size_t parts);

/// Same, over an explicit key subset (the host/FPGA dispatch path);
/// returned ranges index into `keys`.
std::vector<std::pair<std::size_t, std::size_t>> cost_aware_key_chunks(
    const index::IndexTable& table0, const index::IndexTable& table1,
    std::span<const index::SeedKey> keys, std::size_t parts);

struct HostStep2Result {
  std::vector<align::SeedPairHit> hits;
  std::uint64_t pairs = 0;  ///< window pairs scored
  std::uint64_t cells = 0;  ///< substitution cells evaluated (pairs * len)
  /// Kernel the engine actually ran (the resolution of the request
  /// against the matrix/window configuration and the host CPU).
  align::UngappedKernel kernel = align::UngappedKernel::kScalar;
};

/// Sequential engine.
HostStep2Result run_step2_host(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto);

/// Parallel engine on the shared work-stealing executor; `threads == 0`
/// uses hardware concurrency (the TaskGroup caps occupancy at `threads`
/// even when the executor is wider). Hit order is normalized (sorted)
/// so results are deterministic regardless of scheduling. `executor`
/// nullptr = util::Executor::shared().
HostStep2Result run_step2_host_parallel(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::size_t threads,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto,
    util::Executor* executor = nullptr);

/// Processes only the given seed keys (used by the host/FPGA dispatch
/// extension, which splits the key space between the two resources).
HostStep2Result run_step2_host_keys(
    const bio::SequenceBank& bank0, const index::IndexTable& table0,
    const bio::SequenceBank& bank1, const index::IndexTable& table1,
    const bio::SubstitutionMatrix& matrix, const index::WindowShape& shape,
    int threshold, std::span<const index::SeedKey> keys,
    std::size_t threads = 1,
    align::UngappedKernel kernel = align::UngappedKernel::kAuto,
    util::Executor* executor = nullptr);

}  // namespace psc::core
