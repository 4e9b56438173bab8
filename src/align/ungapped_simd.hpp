// SIMD many-vs-one ungapped kernel: one IL0 window, read through the
// residue-indexed substitution rows (align/substitution_rows.hpp), against
// 16 IL1 windows per vector iteration.
//
// The recurrence is the PE datapath's max-prefix-sum
//
//     acc  = max(0, acc + Sub(s0[k], s1[k]))
//     best = max(best, acc)
//
// carried in 16-bit saturating lanes. One vector lane plays the role of
// one processing element: where the RASC operator feeds the same IL1
// window to many PEs holding different IL0 windows, the software kernel
// transposes the duty -- one IL0 window scored against many IL1 windows
// striped across lanes (see index::StripedWindows). Saturation at +32767
// is unreachable for any realistic window (W + 2N = 64 residues at
// BLOSUM62's +11 max tops out at 704), so the SIMD tiers reproduce the
// scalar kernel bit-for-bit; simd_kernel_applicable() guards the exotic
// configurations where they could not.
//
// Three tiers, selected at runtime (align/cpu_features.hpp):
//   avx2     -- 256-bit lanes; the substitution-row lookup is two in-register
//               pshufb shuffles + blend (the 32-entry int8 row spans two
//               128-bit halves), then widen/adds/max.
//   portable -- plain C++ over fixed 16-lane arrays; the add/clamp/max
//               loops autovectorize to SSE2/NEON, the per-lane row
//               lookup stays scalar.
//   scalar   -- the reference kernels in align/ungapped.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "align/cpu_features.hpp"
#include "align/substitution_rows.hpp"
#include "index/neighborhood.hpp"

namespace psc::align {

/// Host step-2 kernel selection (--step2-kernel). kAuto resolves to the
/// fastest kernel that is exact for the matrix/window configuration.
enum class UngappedKernel {
  kAuto,
  kScalar,   ///< ungapped_score_one_vs_many
  kBlocked,  ///< ungapped_score_one_vs_many_blocked (4-way unrolled)
  kSimd,     ///< substitution rows + striped lanes (this header)
};

const char* ungapped_kernel_name(UngappedKernel kernel) noexcept;

/// Parses "auto" | "scalar" | "blocked" | "simd"; nullopt on anything else.
std::optional<UngappedKernel> parse_ungapped_kernel(
    std::string_view name) noexcept;

/// True when the SIMD tiers reproduce the scalar kernel bit-for-bit:
/// substitution cells fit int8 and the best window score cannot reach the
/// int16 saturation point.
bool simd_kernel_applicable(const bio::SubstitutionMatrix& matrix,
                            std::size_t window_length) noexcept;

/// Resolves `requested` against the matrix/window configuration: kAuto
/// picks kSimd when applicable (else kBlocked); an explicit kSimd request
/// likewise falls back to kBlocked when the SIMD path would be inexact.
UngappedKernel resolve_ungapped_kernel(UngappedKernel requested,
                                       const bio::SubstitutionMatrix& matrix,
                                       std::size_t window_length) noexcept;

/// Smallest IL1 batch for which the striped kernel is worth its setup.
/// Nothing is built per IL0 window, so the only SIMD overhead is the
/// per-key striped transpose, plus lanes wasted on X padding. The
/// bench/micro_kernels crossover sweep (whole keys of 1 and 8 IL0
/// windows) has SIMD ahead from 8 IL1 windows, half a lane group, at
/// either IL0 size; at 4 the two kernels trade places. Since the kernels
/// agree bit-for-bit, a per-batch switch at this cutover cannot change
/// any score.
inline constexpr std::size_t kSimdMinBatch =
    index::StripedWindows::kLaneWidth / 2;

/// Scores IL0 window `window0` against every window of `windows`;
/// scores[i] receives the max-prefix-sum score of window i, reading
/// position k's substitution row as rows.row(window0[k]). Dispatches to the
/// best ISA tier detected at startup. window0.size() must equal
/// windows.window_length(); IL1 residues must be < SubstitutionRows::kStride
/// (every encoded residue is).
void ungapped_score_rows_vs_striped(std::span<const std::uint8_t> window0,
                                    const SubstitutionRows& rows,
                                    const index::StripedWindows& windows,
                                    std::vector<int>& scores);

/// Portable tier, callable directly (tests, benches).
void ungapped_score_rows_vs_striped_portable(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, std::vector<int>& scores);

/// True when the AVX2 tier can run on this CPU.
bool ungapped_avx2_available() noexcept;

/// AVX2 tier; falls back to the portable tier on non-x86 builds. Must not
/// be called when ungapped_avx2_available() is false on an x86 build.
void ungapped_score_rows_vs_striped_avx2(std::span<const std::uint8_t> window0,
                                         const SubstitutionRows& rows,
                                         const index::StripedWindows& windows,
                                         std::vector<int>& scores);

}  // namespace psc::align
