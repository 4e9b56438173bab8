// SIMD many-vs-one ungapped kernel: one IL0 window, pre-expanded into a
// query score profile, against 16 IL1 windows per vector iteration.
//
// The recurrence is the PE datapath's max-prefix-sum
//
//     acc  = max(0, acc + Sub(s0[k], s1[k]))
//     best = max(best, acc)
//
// carried in 16-bit saturating lanes. One vector lane plays the role of
// one processing element: where the RASC operator feeds the same IL1
// window to many PEs holding different IL0 windows, the software kernel
// transposes the duty -- one IL0 profile scored against many IL1 windows
// striped across lanes (see index::StripedWindows). Saturation at +32767
// is unreachable for any realistic window (W + 2N = 64 residues at
// BLOSUM62's +11 max tops out at 704), so the SIMD tiers reproduce the
// scalar kernel bit-for-bit; simd_kernel_applicable() guards the exotic
// configurations where they could not.
//
// Three tiers, selected at runtime (align/cpu_features.hpp):
//   avx2     -- 256-bit lanes; the profile-row lookup is two in-register
//               pshufb shuffles + blend (the 32-entry int8 row spans two
//               128-bit halves), then widen/adds/max.
//   portable -- plain C++ over fixed 16-lane arrays; the add/clamp/max
//               loops autovectorize to SSE2/NEON, the per-lane profile
//               lookup stays scalar.
//   scalar   -- the reference kernels in align/ungapped.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "align/cpu_features.hpp"
#include "align/score_profile.hpp"
#include "index/neighborhood.hpp"

namespace psc::align {

/// Host step-2 kernel selection (--step2-kernel). kAuto resolves to the
/// fastest kernel that is exact for the matrix/window configuration.
enum class UngappedKernel {
  kAuto,
  kScalar,   ///< ungapped_score_one_vs_many
  kBlocked,  ///< ungapped_score_one_vs_many_blocked (4-way unrolled)
  kSimd,     ///< profile + striped lanes (this header)
};

const char* ungapped_kernel_name(UngappedKernel kernel) noexcept;

/// Parses "auto" | "scalar" | "blocked" | "simd"; nullopt on anything else.
std::optional<UngappedKernel> parse_ungapped_kernel(
    std::string_view name) noexcept;

/// True when the SIMD tiers reproduce the scalar kernel bit-for-bit:
/// profile cells fit int8 and the best window score cannot reach the
/// int16 saturation point.
bool simd_kernel_applicable(const bio::SubstitutionMatrix& matrix,
                            std::size_t window_length) noexcept;

/// Resolves `requested` against the matrix/window configuration: kAuto
/// picks kSimd when applicable (else kBlocked); an explicit kSimd request
/// likewise falls back to kBlocked when the SIMD path would be inexact.
UngappedKernel resolve_ungapped_kernel(UngappedKernel requested,
                                       const bio::SubstitutionMatrix& matrix,
                                       std::size_t window_length) noexcept;

/// Smallest IL1 batch for which the striped kernel is worth its setup:
/// the striped transpose and per-IL0 profile build only pay off once the
/// batch fills a couple of lane groups, and below that the blocked kernel
/// wins. Since the kernels agree bit-for-bit, a per-batch switch at this
/// cutover cannot change any score.
inline constexpr std::size_t kSimdMinBatch =
    2 * index::StripedWindows::kLaneWidth;

/// Scores `profile` against every window of `windows`; scores[i] receives
/// the max-prefix-sum score of window i. Dispatches to the best ISA tier
/// detected at startup. profile.length() must equal
/// windows.window_length().
void ungapped_score_profile_vs_striped(const ScoreProfile& profile,
                                       const index::StripedWindows& windows,
                                       std::vector<int>& scores);

/// Portable tier, callable directly (tests, benches).
void ungapped_score_profile_vs_striped_portable(
    const ScoreProfile& profile, const index::StripedWindows& windows,
    std::vector<int>& scores);

/// True when the AVX2 tier can run on this CPU.
bool ungapped_avx2_available() noexcept;

/// AVX2 tier; falls back to the portable tier on non-x86 builds. Must not
/// be called when ungapped_avx2_available() is false on an x86 build.
void ungapped_score_profile_vs_striped_avx2(
    const ScoreProfile& profile, const index::StripedWindows& windows,
    std::vector<int>& scores);

}  // namespace psc::align
