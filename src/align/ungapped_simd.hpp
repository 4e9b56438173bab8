// SIMD step-2 screen: one IL0 window, read through the biased
// residue-indexed substitution rows (align/substitution_rows.hpp), against
// 32 IL1 windows per vector iteration, followed by an exact scalar rescore
// of the few windows that pass.
//
// The recurrence is the PE datapath's max-prefix-sum
//
//     acc  = max(0, acc + Sub(s0[k], s1[k]))
//     best = max(best, acc)
//
// The paper's PE array is a screen: each PE computes a narrow score and
// the result manager forwards only pairs at or above the threshold. The
// software kernel works the same way. It carries each window in an
// unsigned saturating 8-bit lane, with every cell pre-biased by
// b = rows.bias() so it is non-negative:
//
//     acc  = subs_epu8(adds_epu8(acc, Sub(s0[k], s1[k]) + b), b)
//     best = max_epu8(best, acc)
//
// Exactness. Let C = 255 - b (rows.ceiling()). While acc + Sub + b <= 255
// the two subtractions give exactly max(0, acc + Sub), so a lane that
// never clamps carries the exact running score and its best is the exact
// window score. The first time a lane clamps, its true running score
// acc + Sub exceeds C, and the lane holds C. Since best only grows, the
// lane ends with best >= C, while its true score is > C as well. So with
// a threshold T <= C:
//   - a window whose true score is below T never clamps (its scores stay
//     below T <= C), and its exact best < T rejects it;
//   - a window whose true score reaches T either never clamped (exact
//     best >= T) or clamped (best >= C >= T): it is a candidate.
// The candidates are exactly the hits, and each candidate's 8-bit best
// is min(true score, C): a best below C is already the exact score. Only
// a candidate whose best equals C may have clamped, so the scalar
// reference ungapped_window_score rescores exactly those, and every
// reported hit and score is exact: the SIMD code screens and the scalar
// code decides where the lane could not. The rescore is therefore paid
// per saturated window (a score of C = 251 under BLOSUM62), not per hit,
// and does not grow with the hit ratio. simd_kernel_applicable is the
// screen's condition: the biased cells fit u8 and T + b <= 255.
//
// One vector lane plays the role of one processing element: where the
// RASC operator feeds the same IL1 window to many PEs holding different
// IL0 windows, the software kernel transposes the duty -- one IL0 window
// screened against many IL1 windows striped across lanes (see
// index::StripedWindows).
//
// Four tiers, selected at runtime (align/cpu_features.hpp); every vector
// tier runs the recurrence above on the same biased rows and threshold,
// so the exactness argument holds for each word for word:
//   avx512   -- 512-bit lanes (AVX-512 BW/VL/VBMI), two 64-window groups
//               per loop, then one 64-window zmm and one 32-window ymm
//               remainder; the 32-entry row is one register and the
//               lookup is a single vpermb, passing lanes come straight
//               out of an unsigned compare as a bit mask.
//   avx2     -- 256-bit lanes, two 32-window groups per loop; the
//               substitution-row lookup is two in-register pshufb
//               shuffles + blend (the 32-entry row spans two 128-bit
//               halves), then adds/subs/max on 32 u8 lanes.
//   portable -- plain C++ over fixed 32-lane u8 arrays; the add/clamp/max
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
/// fastest kernel that is exact for the matrix/threshold configuration.
enum class UngappedKernel {
  kAuto,
  kScalar,   ///< ungapped_score_one_vs_many
  kBlocked,  ///< ungapped_score_one_vs_many_blocked (4-way unrolled)
  kSimd,     ///< 8-bit striped screen + scalar rescore (this header)
};

const char* ungapped_kernel_name(UngappedKernel kernel) noexcept;

/// Parses "auto" | "scalar" | "blocked" | "simd"; nullopt on anything else.
std::optional<UngappedKernel> parse_ungapped_kernel(
    std::string_view name) noexcept;

/// True when the 8-bit screen finds every hit: the biased substitution
/// cells fit u8 and threshold + bias <= 255 (see the derivation above).
bool simd_kernel_applicable(const bio::SubstitutionMatrix& matrix,
                            int threshold) noexcept;

/// Resolves `requested` against the matrix/threshold configuration: kAuto
/// picks kSimd when applicable (else kBlocked); an explicit kSimd request
/// likewise falls back to kBlocked when the screen could miss a hit.
UngappedKernel resolve_ungapped_kernel(UngappedKernel requested,
                                       const bio::SubstitutionMatrix& matrix,
                                       int threshold) noexcept;

/// Smallest IL1 batch for which the striped screen is worth its setup.
/// Nothing is built per IL0 window, so the only SIMD overhead is the
/// per-key striped transpose (two 16-lane blocks per group), plus lanes
/// wasted on X padding. In the bench/micro_kernels crossover sweep (whole
/// keys of 1 and 8 IL0 windows, three runs on a 4-vCPU AVX2 host) the
/// screen leads from 3-4 IL1 windows when a key has 8 IL0 windows, but a
/// one-window key pays a flat ~0.4 us for it and wins only from 12 IL1
/// windows in every run (at 8 the two trade places). Since both paths
/// report the exact hits, a per-batch switch at this cutover cannot
/// change any score.
inline constexpr std::size_t kSimdMinBatch = 12;

/// One window that passed: its index in the IL1 batch and its score.
struct WindowScore {
  std::uint32_t window;
  int score;

  friend bool operator==(const WindowScore&, const WindowScore&) = default;
};

/// Step-2 scoring of IL0 window `window0` against every window of
/// `batch`: replaces `hits` with {i, score} for each window i whose exact
/// max-prefix-sum score reaches `threshold`, in ascending i. `striped`
/// must be the striped image of `batch`; `rows` and `matrix` must
/// describe the same matrix. Screens with the best ISA tier detected at
/// startup, then rescores each candidate that reached rows.ceiling() with
/// ungapped_window_score. Throws std::invalid_argument on a length
/// mismatch, or when `threshold` exceeds rows.ceiling()
/// (simd_kernel_applicable would be false).
void ungapped_hits_rows_vs_striped(std::span<const std::uint8_t> window0,
                                   const SubstitutionRows& rows,
                                   const index::StripedWindows& striped,
                                   index::WindowSpan batch,
                                   const bio::SubstitutionMatrix& matrix,
                                   int threshold,
                                   std::vector<WindowScore>& hits);

/// Step-2 hits for one resolved kernel, the single entry point of both
/// step-2 engines (core/step2_host and the RASC batch engine). It owns
/// what the kernels need: the biased rows and the IL1 batch's striped
/// image for kSimd, the score buffer for kScalar / kBlocked. assign()
/// stages an IL1 batch; hits() then reports, for one IL0 window, exactly
/// the windows of that batch at or above the threshold with their exact
/// scores, whichever kernel runs. Batches shorter than kSimdMinBatch take
/// the blocked kernel under kSimd, so the choice never changes a hit.
class UngappedHitFinder {
 public:
  /// Resolves `requested` against (matrix, threshold). `matrix` must
  /// outlive the finder.
  UngappedHitFinder(UngappedKernel requested,
                    const bio::SubstitutionMatrix& matrix, int threshold);

  /// The resolved kernel: kScalar, kBlocked or kSimd.
  UngappedKernel kernel() const noexcept { return kernel_; }

  /// Stages `batch` as the IL1 side of the next hits() calls. The windows
  /// it views must stay alive and unchanged until the next assign().
  void assign(index::WindowSpan batch);

  /// Replaces `hits` with {i, score} for each window i of the assigned
  /// batch whose exact score against `window0` reaches the threshold, in
  /// ascending i. window0.size() must equal the batch's window length,
  /// and residues must be encoder codes (the blocked kernel's contract).
  void hits(std::span<const std::uint8_t> window0,
            std::vector<WindowScore>& hits);

 private:
  const bio::SubstitutionMatrix* matrix_;
  int threshold_;
  UngappedKernel kernel_;
  std::optional<SubstitutionRows> rows_;  ///< engaged iff kernel_ is kSimd
  index::WindowSpan batch_;
  bool striped_batch_ = false;  ///< the assigned batch is screened
  index::StripedWindows striped_;
  std::vector<int> scores_;
};

/// The screen alone (dispatching tier): replaces `candidates` with every
/// real window i of `windows` whose 8-bit best reaches `threshold`, in
/// ascending i, scored min(exact score, rows.ceiling()). Position k reads
/// substitution row rows.row(window0[k]). window0.size() must equal
/// windows.window_length(); IL1 residues must be < SubstitutionRows::kStride
/// (every encoded residue is); threshold must not exceed rows.ceiling().
void ungapped_screen_rows_vs_striped(std::span<const std::uint8_t> window0,
                                     const SubstitutionRows& rows,
                                     const index::StripedWindows& windows,
                                     int threshold,
                                     std::vector<WindowScore>& candidates);

/// Portable tier, callable directly (tests, benches).
void ungapped_screen_rows_vs_striped_portable(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates);

/// True when the AVX-512 tier can run on this CPU.
bool ungapped_avx512_available() noexcept;

/// AVX-512 tier; falls back to the portable tier on non-x86 builds. Must
/// not be called when ungapped_avx512_available() is false on an x86
/// build.
void ungapped_screen_rows_vs_striped_avx512(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates);

/// True when the AVX2 tier can run on this CPU.
bool ungapped_avx2_available() noexcept;

/// AVX2 tier; falls back to the portable tier on non-x86 builds. Must not
/// be called when ungapped_avx2_available() is false on an x86 build.
void ungapped_screen_rows_vs_striped_avx2(
    std::span<const std::uint8_t> window0, const SubstitutionRows& rows,
    const index::StripedWindows& windows, int threshold,
    std::vector<WindowScore>& candidates);

}  // namespace psc::align
