// Runtime CPU capability detection for the host step-2 kernel dispatch.
//
// The SIMD ungapped kernel (align/ungapped_simd.hpp) ships four tiers:
// an AVX-512 path screening 64 windows per vector (BW + VL + VBMI), an
// AVX2 path screening 32, a portable autovectorizable path, and the
// scalar/blocked reference. Which tier actually runs is a property of the
// machine the binary lands on, not of the build, so the choice is made
// once at startup from CPUID-style feature queries rather than from
// compile-time macros -- the same binary degrades gracefully from
// AVX-512 down to scalar.
#pragma once

namespace psc::align {

/// Instruction-set tiers the SIMD kernel can target, best last.
enum class SimdTier {
  kScalarOnly,  ///< no usable vector unit detected
  kPortable,    ///< compiler-autovectorized lanes (SSE2/NEON-class)
  kAvx2,        ///< 256-bit AVX2 path (x86 only)
  kAvx512,      ///< 512-bit AVX-512 BW/VL/VBMI path (x86 only)
};

/// CPU features relevant to the kernel tiers. Queried once and cached.
struct CpuFeatures {
  bool sse2 = false;
  bool ssse3 = false;
  bool sse41 = false;
  bool avx2 = false;
  bool avx512bw = false;
  bool avx512vl = false;
  bool avx512vbmi = false;
};

/// The host CPU's features (first call probes, later calls are free).
const CpuFeatures& cpu_features() noexcept;

/// Best kernel tier this process can execute.
SimdTier best_simd_tier() noexcept;

/// Human-readable tier name ("avx512", "avx2", "portable", "scalar").
const char* simd_tier_name(SimdTier tier) noexcept;

}  // namespace psc::align
