#include "util/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "util/error.hpp"
#include "util/kernels_isa.hpp"

namespace duti {

namespace {

SimdLevel clamp_to_supported(SimdLevel level) noexcept {
  const SimdLevel cap = simd_supported_level();
  return static_cast<int>(level) > static_cast<int>(cap) ? cap : level;
}

SimdLevel level_from_env() noexcept {
  if (const char* env = std::getenv("DUTI_SIMD")) {
    SimdLevel parsed = SimdLevel::kScalar;
    if (simd_level_from_string(env, parsed)) return clamp_to_supported(parsed);
  }
  return simd_supported_level();
}

// -1 = not yet initialized from the environment.
std::atomic<int> g_active_level{-1};

}  // namespace

const char* simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

SimdLevel simd_supported_level() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  SimdLevel best = SimdLevel::kScalar;
#ifdef DUTI_KERNELS_HAVE_SSE2
  if (__builtin_cpu_supports("sse2")) best = SimdLevel::kSse2;
#endif
#ifdef DUTI_KERNELS_HAVE_AVX2
  if (best == SimdLevel::kSse2 && __builtin_cpu_supports("avx2")) {
    best = SimdLevel::kAvx2;
  }
#endif
  return best;
#else
  return SimdLevel::kScalar;
#endif
}

SimdLevel simd_active_level() noexcept {
  int level = g_active_level.load(std::memory_order_relaxed);
  if (level < 0) {
    int expected = -1;
    g_active_level.compare_exchange_strong(
        expected, static_cast<int>(level_from_env()),
        std::memory_order_relaxed);
    level = g_active_level.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

SimdLevel simd_set_level(SimdLevel level) noexcept {
  const SimdLevel effective = clamp_to_supported(level);
  g_active_level.store(static_cast<int>(effective), std::memory_order_relaxed);
  return effective;
}

bool simd_level_from_string(std::string_view text, SimdLevel& out) noexcept {
  if (text == "off" || text == "scalar") {
    out = SimdLevel::kScalar;
    return true;
  }
  if (text == "sse2") {
    out = SimdLevel::kSse2;
    return true;
  }
  if (text == "avx2") {
    out = SimdLevel::kAvx2;
    return true;
  }
  if (text == "auto") {
    out = simd_supported_level();
    return true;
  }
  return false;
}

namespace kernels {

// ---------------------------------------------------------------------------
// Walsh-Hadamard transform.

void wht_scalar(std::span<double> data) {
  const std::size_t n = data.size();
  for (std::size_t len = 1; len < n; len <<= 1) {
    for (std::size_t base = 0; base < n; base += len << 1) {
      for (std::size_t i = base; i < base + len; ++i) {
        const double a = data[i];
        const double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
    }
  }
}

void wht(std::span<double> data) {
  switch (simd_active_level()) {
#ifdef DUTI_KERNELS_HAVE_AVX2
    case SimdLevel::kAvx2:
      avx2::wht(data);
      return;
#endif
#ifdef DUTI_KERNELS_HAVE_SSE2
    case SimdLevel::kSse2:
      sse2::wht(data);
      return;
#endif
    default:
      wht_scalar(data);
      return;
  }
}

// ---------------------------------------------------------------------------
// Integer reductions.

std::uint64_t collision_pairs_from_counts_scalar(
    std::span<const std::uint64_t> counts) {
  std::uint64_t pairs = 0;
  for (const std::uint64_t c : counts) pairs += c * (c - 1) / 2;
  return pairs;
}

std::uint64_t collision_pairs_from_counts(
    std::span<const std::uint64_t> counts) {
  switch (simd_active_level()) {
#ifdef DUTI_KERNELS_HAVE_AVX2
    case SimdLevel::kAvx2:
      return avx2::collision_pairs_from_counts(counts);
#endif
#ifdef DUTI_KERNELS_HAVE_SSE2
    case SimdLevel::kSse2:
      return sse2::collision_pairs_from_counts(counts);
#endif
    default:
      return collision_pairs_from_counts_scalar(counts);
  }
}

std::uint64_t distinct_from_counts_scalar(
    std::span<const std::uint64_t> counts) {
  std::uint64_t distinct = 0;
  for (const std::uint64_t c : counts) distinct += c > 0 ? 1 : 0;
  return distinct;
}

std::uint64_t distinct_from_counts(std::span<const std::uint64_t> counts) {
  switch (simd_active_level()) {
#ifdef DUTI_KERNELS_HAVE_AVX2
    case SimdLevel::kAvx2:
      return avx2::distinct_from_counts(counts);
#endif
#ifdef DUTI_KERNELS_HAVE_SSE2
    case SimdLevel::kSse2:
      return sse2::distinct_from_counts(counts);
#endif
    default:
      return distinct_from_counts_scalar(counts);
  }
}

void add_u64_scalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> addend) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += addend[i];
}

void add_u64(std::span<std::uint64_t> acc,
             std::span<const std::uint64_t> addend) {
  require(acc.size() == addend.size(), "add_u64: size mismatch");
  switch (simd_active_level()) {
#ifdef DUTI_KERNELS_HAVE_AVX2
    case SimdLevel::kAvx2:
      avx2::add_u64(acc, addend);
      return;
#endif
#ifdef DUTI_KERNELS_HAVE_SSE2
    case SimdLevel::kSse2:
      sse2::add_u64(acc, addend);
      return;
#endif
    default:
      add_u64_scalar(acc, addend);
      return;
  }
}

// ---------------------------------------------------------------------------
// Batched samplers.

void nuz_sample_many_scalar(Rng& rng, std::span<const std::uint64_t> zwords,
                            unsigned ell, double eps,
                            std::span<std::uint64_t> out) {
  const std::uint64_t side = 1ULL << ell;
  for (auto& o : out) {
    const std::uint64_t x = rng.next_below(side);
    const int sign = ((zwords[x >> 6] >> (x & 63U)) & 1ULL) ? -1 : +1;
    // Same FP expression as NuZ::sample: P(s=+1 | x) = (1 + z(x) eps) / 2.
    const double p_plus = 0.5 * (1.0 + static_cast<double>(sign) * eps);
    const int s = rng.next_double() < p_plus ? +1 : -1;
    o = x | (static_cast<std::uint64_t>(s == -1) << ell);
  }
}

void nuz_sample_many(Rng& rng, std::span<const std::uint64_t> zwords,
                     unsigned ell, double eps,
                     std::span<std::uint64_t> out) {
  require(ell >= 1 && ell <= 30, "nuz_sample_many: ell must be in [1,30]");
  require(zwords.size() >= ((std::size_t{1} << ell) + 63) / 64,
          "nuz_sample_many: zwords too small for 2^ell signs");
#ifdef DUTI_KERNELS_HAVE_AVX2
  if (simd_active_level() == SimdLevel::kAvx2 && out.size() >= 4) {
    avx2::nuz_sample_many(rng, zwords.data(), ell, eps, out);
    return;
  }
#endif
  nuz_sample_many_scalar(rng, zwords, ell, eps, out);
}

}  // namespace kernels
}  // namespace duti
