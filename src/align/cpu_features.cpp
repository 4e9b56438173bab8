#include "align/cpu_features.hpp"

namespace psc::align {

namespace {

CpuFeatures probe() noexcept {
  CpuFeatures features;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  features.sse2 = __builtin_cpu_supports("sse2") != 0;
  features.ssse3 = __builtin_cpu_supports("ssse3") != 0;
  features.sse41 = __builtin_cpu_supports("sse4.1") != 0;
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  features.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
  features.avx512vbmi = __builtin_cpu_supports("avx512vbmi") != 0;
#elif defined(__aarch64__)
  // NEON is architecturally mandatory on AArch64; the portable tier's
  // autovectorized lanes map onto it.
  features.sse2 = true;
#endif
  return features;
}

}  // namespace

const CpuFeatures& cpu_features() noexcept {
  static const CpuFeatures features = probe();
  return features;
}

SimdTier best_simd_tier() noexcept {
  const CpuFeatures& features = cpu_features();
  // The AVX-512 path needs BW for byte arithmetic and masks, VL for its
  // 32-lane ymm tail and VBMI for the vpermb row lookup.
  if (features.avx512bw && features.avx512vl && features.avx512vbmi) {
    return SimdTier::kAvx512;
  }
  // The AVX2 path also uses SSSE3 pshufb and SSE4.1 blendv in its 128-bit
  // lookup stage; AVX2 machines always have both, but check anyway.
  if (features.avx2 && features.ssse3 && features.sse41) return SimdTier::kAvx2;
  // The portable tier is plain C++ over fixed-width lanes; it is always
  // correct, and worth selecting whenever any vector unit can carry it.
  return SimdTier::kPortable;
}

const char* simd_tier_name(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kScalarOnly: return "scalar";
    case SimdTier::kPortable: return "portable";
    case SimdTier::kAvx2: return "avx2";
    case SimdTier::kAvx512: return "avx512";
  }
  return "unknown";
}

}  // namespace psc::align
