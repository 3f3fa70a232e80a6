// The host's SIMD tier, as a run stamp for benchmark reports. Nothing in
// the library selects on it: every computation has one portable
// implementation (DESIGN.md section 11), so outputs cannot depend on it.
#pragma once

namespace duti {

/// Instruction-set tiers, ordered: higher levels strictly extend lower ones.
enum class SimdLevel : int {
  kScalar = 0,  ///< no x86 vector extension reported
  kSse2 = 1,
  kAvx2 = 2,
};

/// Short lowercase name ("scalar", "sse2", "avx2") for logs and JSON.
[[nodiscard]] constexpr const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

/// The widest tier cpuid reports on this machine.
[[nodiscard]] inline SimdLevel simd_active_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("sse2")) return SimdLevel::kScalar;
  return __builtin_cpu_supports("avx2") ? SimdLevel::kAvx2 : SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
}

}  // namespace duti
