// SIMD step-3 gapped-extension kernels: the Gotoh affine-gap recurrence
// of align/gapped.hpp (X-drop half extension) and align/banded.hpp
// (banded window score) carried in 16 x 16-bit saturating lanes,
// mirroring the ungapped_simd architecture -- an AVX2 tier in its own
// translation unit, a portable tier whose arithmetic loops
// autovectorize, and the scalar reference as the always-correct
// fallback.
//
// Exactness. The scalar kernels prune with a *running* best updated in
// row-major scan order, and E(i,j) reads H(i,j-1) inside the same row --
// both look inherently sequential. Two transformations remove the
// dependencies without changing a single output bit:
//
//  * Lazy E. Because a gap's first residue costs open + extend >=
//    extend, an E opened from an E-derived H can never beat simply
//    extending that E. Hence, writing H'(j) = max(F(j), diag(j)) for
//    the candidate without its E term, E obeys the *candidate-only*
//    recurrence E(j) = max(H'(j-1) - (open+extend), E(j-1) - extend):
//    a decayed prefix-max over the row, computable with log-step
//    vector shift-maxes (decay k*extend for lane distance k).
//  * Prune-free rows. A block's candidates are computed ignoring the
//    X-drop prune. Any candidate whose value flows through a pruned
//    cell is itself strictly below best - x_drop (gap costs are
//    nonnegative and the running best never decreases), so it is
//    pruned either way. The prune itself is a vector test: a cell is
//    pruned exactly when it is below P - x_drop, P being the inclusive
//    prefix-max of the row's candidates up to that cell, seeded with
//    the running best. P is the scalar scan's running best at that
//    cell, because a cell that beats the running best is never pruned
//    and a pruned cell never raises it. When the row's max beats the
//    running best, the best moves to the first cell equal to it, where
//    the scalar strict '>' in scan order last fired. Surviving values,
//    live bounds and the best cell are identical to the scalar
//    interleaving.
//
// The AVX2 X-drop tier is a row stepper: GappedExtender::extend runs
// the backward and forward halves of an anchor one row each in turn, so
// their independent dependency chains overlap.
//
// Values live in a bias-32768 unsigned domain where 0 doubles as the
// -inf sentinel: saturating unsigned subtraction makes "sentinel minus
// gap cost" stay sentinel for free, and the zero fill of a lane shift
// is exactly the sentinel. Whenever the running best nears the top of
// the representable range (the 16-bit overflow guard), the kernel
// returns nullopt and the dispatcher re-runs the whole call (for
// extend, that half) through the scalar reference -- so saturation can
// only ever cost speed, never a bit of output.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "align/cpu_features.hpp"
#include "align/gapped.hpp"
#include "bio/substitution_matrix.hpp"

namespace psc::align {

/// Step-3 kernel selection (--step3-kernel). All kernels are
/// bit-identical (SIMD tiers fall back to scalar on the rare overflow
/// guard), so this is purely a speed/diagnostic knob.
enum class GappedKernel {
  kAuto,      ///< fastest applicable tier for this CPU/matrix/params
  kScalar,    ///< align::xdrop_gapped_half / align::banded_window_score
  kPortable,  ///< 16-bit biased lanes, plain C++ (autovectorizes)
  kAvx2,      ///< 256-bit AVX2 tier (x86 only)
};

const char* gapped_kernel_name(GappedKernel kernel) noexcept;

/// Parses "auto" | "scalar" | "portable" | "avx2"; nullopt otherwise.
std::optional<GappedKernel> parse_gapped_kernel(std::string_view name) noexcept;

/// Substitution matrix repacked for the 16-bit kernels: 32 rows of 32
/// bias-128 bytes (score + 128), one padded row per residue, so the
/// AVX2 tier's row lookup is two pshufb shuffles + blend and the
/// portable tier's a single byte load. Rows beyond the alphabet clamp
/// to the matrix's own out-of-alphabet behaviour (score() clamps to X).
class GappedSimdMatrix {
 public:
  static constexpr std::size_t kStride = 32;

  GappedSimdMatrix() = default;
  explicit GappedSimdMatrix(const bio::SubstitutionMatrix& matrix) {
    build(matrix);
  }

  /// True when every matrix cell fits int8 (the bias-128 byte rows are
  /// exact).
  static bool representable(const bio::SubstitutionMatrix& matrix) noexcept {
    return matrix.min_score() >= -128 && matrix.max_score() <= 127;
  }

  /// Fills the padded rows; requires representable(matrix).
  void build(const bio::SubstitutionMatrix& matrix);

  /// Bias-128 row for residue `a` (32 bytes). Encoded residues are < 32
  /// everywhere in this codebase; larger values clamp to the X row.
  const std::uint8_t* row(std::uint8_t a) const noexcept {
    const std::size_t r = a < kStride ? a : bio::kProteinAlphabetSize;
    return data_.data() + r * kStride;
  }

 private:
  std::array<std::uint8_t, kStride * kStride> data_{};
};

/// True when the 16-bit tiers are exact for this configuration: matrix
/// cells fit int8, gap costs are nonnegative and small enough for the
/// lane decays, and the X-drop threshold leaves the biased domain's
/// low range free for the sentinel (see the header comment).
bool gapped_simd_applicable(const bio::SubstitutionMatrix& matrix,
                            const GapParams& params) noexcept;

/// True when the AVX2 tier can run on this CPU.
bool gapped_avx2_available() noexcept;

/// Resolves `requested` against the configuration and CPU: kAuto picks
/// the best applicable tier; explicit SIMD requests degrade gracefully
/// (kAvx2 -> kPortable without the ISA, any SIMD -> kScalar when the
/// configuration is out of the exact range).
GappedKernel resolve_gapped_kernel(GappedKernel requested,
                                   const bio::SubstitutionMatrix& matrix,
                                   const GapParams& params) noexcept;

// ---- raw tier entry points (tests and benches drive these directly) ----
// Each returns nullopt (the pair entry point, per half) when the 16-bit
// overflow guard trips (running best within 256 of +32767); callers
// re-run the scalar reference.

std::optional<HalfExtension> xdrop_gapped_half_portable(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const GappedSimdMatrix& rows, const GapParams& params);

/// AVX2 tier; falls back to the portable tier on non-x86 builds. Must
/// not be called when gapped_avx2_available() is false on an x86 build.
std::optional<HalfExtension> xdrop_gapped_half_avx2(
    std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
    const GappedSimdMatrix& rows, const GapParams& params);

/// Both halves of one extension on the AVX2 tier (a0 x b0 and a1 x b1),
/// advanced one DP row each in turn so their independent dependency
/// chains overlap. Same results as two xdrop_gapped_half_avx2 calls;
/// each half is nullopt when it trips the guard on its own.
std::array<std::optional<HalfExtension>, 2> xdrop_gapped_halves_avx2(
    std::span<const std::uint8_t> a0, std::span<const std::uint8_t> b0,
    std::span<const std::uint8_t> a1, std::span<const std::uint8_t> b1,
    const GappedSimdMatrix& rows, const GapParams& params);

std::optional<int> banded_window_score_portable(
    std::span<const std::uint8_t> s0, std::span<const std::uint8_t> s1,
    std::size_t band, const GapParams& params, const GappedSimdMatrix& rows);

std::optional<int> banded_window_score_avx2(std::span<const std::uint8_t> s0,
                                            std::span<const std::uint8_t> s1,
                                            std::size_t band,
                                            const GapParams& params,
                                            const GappedSimdMatrix& rows);

/// One resolved step-3 engine: matrix + gap params + kernel, built once
/// per run and shared read-only across worker threads (the methods are
/// const and keep their DP state on the stack/heap of the call).
class GappedExtender {
 public:
  GappedExtender(const bio::SubstitutionMatrix& matrix,
                 const GapParams& params,
                 GappedKernel requested = GappedKernel::kAuto);

  /// The kernel calls actually dispatch to (never kAuto).
  GappedKernel kernel() const noexcept { return kernel_; }
  const GapParams& params() const noexcept { return params_; }
  const bio::SubstitutionMatrix& matrix() const noexcept { return *matrix_; }

  /// Dispatched xdrop_gapped_half; bit-identical to the scalar kernel.
  HalfExtension half(std::span<const std::uint8_t> a,
                     std::span<const std::uint8_t> b) const;

  /// Dispatched banded_window_score; bit-identical to the scalar kernel.
  int banded_window(std::span<const std::uint8_t> s0,
                    std::span<const std::uint8_t> s1, std::size_t band) const;

  /// Dispatched xdrop_gapped_extend: same seed scoring, half-extension
  /// combination and traceback re-alignment as the scalar entry point,
  /// with the halves running on the selected kernel.
  Alignment extend(std::span<const std::uint8_t> s0,
                   std::span<const std::uint8_t> s1, std::size_t anchor0,
                   std::size_t anchor1, std::size_t seed_width,
                   bool with_traceback) const;

 private:
  const bio::SubstitutionMatrix* matrix_;
  GapParams params_;
  GappedKernel kernel_;
  GappedSimdMatrix rows_;
};

}  // namespace psc::align
