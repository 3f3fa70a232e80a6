// Equivalence suite for the vectorized kernel layer (DESIGN.md §11): every
// dispatched kernel must be bit-identical to its scalar twin — outputs AND
// final RNG state — at every SimdLevel this binary supports, and the whole
// measurement engine must produce identical probes at DUTI_SIMD=off and
// auto across thread counts (ISSUE 7 acceptance criterion).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

#include "dist/cube_domain.hpp"
#include "dist/nu_z.hpp"
#include "sim/sample_source.hpp"
#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "testers/collision.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace duti {
namespace {

/// Every level the binary can actually run, scalar first.
std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> out{SimdLevel::kScalar};
  const int cap = static_cast<int>(simd_supported_level());
  for (int l = 1; l <= cap; ++l) out.push_back(static_cast<SimdLevel>(l));
  return out;
}

/// Restores the active dispatch level on scope exit, so a failing test
/// cannot leak a forced level into later tests.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd_active_level()) {}
  ~LevelGuard() { simd_set_level(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  SimdLevel saved_;
};

/// Bitwise equality of double buffers (EXPECT_EQ on doubles would conflate
/// +0.0 with -0.0 and is useless for NaN payloads).
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// O(N^2) reference transform: out[i] = sum_j (-1)^{popcount(i & j)} in[j].
std::vector<double> naive_wht(const std::vector<double>& in) {
  const std::size_t n = in.size();
  std::vector<double> out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const int parity = std::popcount(i & j) & 1;
      out[i] += (parity != 0 ? -1.0 : 1.0) * in[j];
    }
  }
  return out;
}

TEST(Wht, MatchesNaiveTransformExactly) {
  // Small integer inputs keep every sum exactly representable, so the
  // blocked radix-4 path, the scalar twin, and the O(N^2) definition must
  // agree to the last bit at every level.
  LevelGuard guard;
  Rng rng(2026);
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    std::vector<double> input(n);
    for (auto& v : input)
      v = static_cast<double>(static_cast<std::int64_t>(rng() % 17) - 8);
    const std::vector<double> expected = naive_wht(input);
    for (const SimdLevel level : testable_levels()) {
      SCOPED_TRACE(testing::Message()
                   << "n=" << n << " level=" << simd_level_name(level));
      simd_set_level(level);
      std::vector<double> data = input;
      kernels::wht(data);
      EXPECT_TRUE(bits_equal(data, expected));
    }
    std::vector<double> scalar = input;
    kernels::wht_scalar(scalar);
    EXPECT_TRUE(bits_equal(scalar, expected)) << n;
  }
}

TEST(Wht, DispatchedBitIdenticalToScalarAtEveryPowerOfTwo) {
  // Random (non-integer) data at every size through the cache-block
  // boundary: identical FP results require the vector path to perform the
  // scalar additions in the scalar order, which is the layer's contract.
  LevelGuard guard;
  Rng rng(7);
  for (unsigned logn = 0; logn <= 14; ++logn) {
    std::vector<double> input(std::size_t{1} << logn);
    for (auto& v : input) v = rng.next_double() * 2.0 - 1.0;
    std::vector<double> reference = input;
    kernels::wht_scalar(reference);
    for (const SimdLevel level : testable_levels()) {
      SCOPED_TRACE(testing::Message()
                   << "logn=" << logn << " level=" << simd_level_name(level));
      simd_set_level(level);
      std::vector<double> data = input;
      kernels::wht(data);
      EXPECT_TRUE(bits_equal(data, reference));
    }
  }
}

TEST(Wht, DispatchedBitIdenticalToScalarAtTwoToTwenty) {
  // The ISSUE's upper bound: 2^20 doubles spans 256 cache blocks, so both
  // the in-block radix-4 stages and the streaming outer stages run.
  LevelGuard guard;
  Rng rng(11);
  std::vector<double> input(std::size_t{1} << 20);
  for (auto& v : input) v = rng.next_double() * 2.0 - 1.0;
  std::vector<double> reference = input;
  kernels::wht_scalar(reference);
  for (const SimdLevel level : testable_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    simd_set_level(level);
    std::vector<double> data = input;
    kernels::wht(data);
    EXPECT_TRUE(bits_equal(data, reference));
  }
}

TEST(IntegerKernels, ReductionsFuzzAcrossVectorWidthBoundaries) {
  // Lengths 0..67 straddle every lane boundary of the 2- and 4-wide paths
  // (including all tail sizes); counts near 2^33 make c*(c-1)/2 wrap, so
  // the test also pins the wrapping-arithmetic identity.
  LevelGuard guard;
  Rng rng(13);
  for (std::size_t len = 0; len <= 67; ++len) {
    std::vector<std::uint64_t> counts(len);
    for (auto& c : counts) {
      const std::uint64_t roll = rng() % 8;
      if (roll < 4) {
        c = rng() % 5;  // mostly small, with zeros for distinct()
      } else if (roll < 7) {
        c = rng() % 1000;
      } else {
        c = (std::uint64_t{1} << 33) + rng() % 1000;  // wraps the pair count
      }
    }
    const std::uint64_t pairs_ref =
        kernels::collision_pairs_from_counts_scalar(counts);
    const std::uint64_t distinct_ref =
        kernels::distinct_from_counts_scalar(counts);
    std::vector<std::uint64_t> addend(len);
    for (auto& a : addend) a = rng();
    std::vector<std::uint64_t> acc_ref(len, 0);
    for (std::size_t i = 0; i < len; ++i) acc_ref[i] = counts[i];
    kernels::add_u64_scalar(acc_ref, addend);
    for (const SimdLevel level : testable_levels()) {
      SCOPED_TRACE(testing::Message()
                   << "len=" << len << " level=" << simd_level_name(level));
      simd_set_level(level);
      EXPECT_EQ(kernels::collision_pairs_from_counts(counts), pairs_ref);
      EXPECT_EQ(kernels::distinct_from_counts(counts), distinct_ref);
      std::vector<std::uint64_t> acc = counts;
      kernels::add_u64(acc, addend);
      EXPECT_EQ(acc, acc_ref);
    }
  }
}

TEST(UniformSampleMany, MatchesNextBelowStreamAndFinalState) {
  // UniformSource's batch draw must consume the RNG exactly like repeated
  // next_below calls: same outputs, same number of raw draws, in the same
  // order. bound = 2^63 + 1 gives a ~50% rejection rate so the stream
  // contract is exercised well past the no-rejection case.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  10,
                                  255,
                                  257,
                                  (std::uint64_t{1} << 32) + 7,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t bound : bounds) {
    const UniformSource uniform(bound);
    for (const std::size_t len : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 16u, 67u, 256u}) {
      SCOPED_TRACE(testing::Message() << "bound=" << bound << " len=" << len);
      Rng batched(derive_seed(23, bound, len));
      Rng serial(derive_seed(23, bound, len));
      std::vector<std::uint64_t> out;
      uniform.sample_many(batched, len, out);
      ASSERT_EQ(out.size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], serial.next_below(bound)) << i;
        ASSERT_LT(out[i], bound);
      }
      // Same final state: the next raw draws must agree.
      for (int k = 0; k < 4; ++k) ASSERT_EQ(batched(), serial());
    }
  }
}

TEST(NuzSampleMany, MatchesRepeatedSampleAndFinalState) {
  // Two raw draws per sample, in sample order, identical heavy/light
  // classification: the batched kernel must replay NuZ::sample exactly.
  LevelGuard guard;
  for (const unsigned ell : {1u, 2u, 3u, 5u, 7u, 10u}) {
    for (const double eps : {0.0, 0.3, 1.0}) {
      Rng zrng(derive_seed(31, ell));
      const PerturbationVector z = PerturbationVector::random(ell, zrng);
      const NuZ nu(CubeDomain(ell), z, eps);
      for (const std::size_t count : {0u, 1u, 5u, 8u, 9u, 67u}) {
        for (const SimdLevel level : testable_levels()) {
          SCOPED_TRACE(testing::Message()
                       << "ell=" << ell << " eps=" << eps << " count=" << count
                       << " level=" << simd_level_name(level));
          simd_set_level(level);
          Rng batched(derive_seed(37, ell, count));
          Rng serial(derive_seed(37, ell, count));
          std::vector<std::uint64_t> out;
          nu.sample_many(batched, count, out);
          ASSERT_EQ(out.size(), count);
          for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(out[i], nu.sample(serial)) << i;
          }
          for (int k = 0; k < 4; ++k) ASSERT_EQ(batched(), serial());
        }
      }
    }
  }
}

TEST(NuzSampleMany, KernelTwinAgreesWithScalarTwin) {
  LevelGuard guard;
  const unsigned ell = 6;
  Rng zrng(41);
  const PerturbationVector z = PerturbationVector::random(ell, zrng);
  std::vector<std::uint64_t> ref_out(129);
  Rng ref_rng(43);
  kernels::nuz_sample_many_scalar(ref_rng, z.words(), ell, 0.4, ref_out);
  // Post-batch state probe, captured once (drawing from ref_rng inside the
  // level loop would advance it past where each fresh rng stops).
  std::array<std::uint64_t, 4> ref_next{};
  for (auto& v : ref_next) v = ref_rng();
  for (const SimdLevel level : testable_levels()) {
    SCOPED_TRACE(simd_level_name(level));
    simd_set_level(level);
    std::vector<std::uint64_t> out(129);
    Rng rng(43);
    kernels::nuz_sample_many(rng, z.words(), ell, 0.4, out);
    EXPECT_EQ(out, ref_out);
    for (const std::uint64_t expected : ref_next) EXPECT_EQ(rng(), expected);
  }
}

void expect_probe_equal(const ProbeResult& a, const ProbeResult& b) {
  EXPECT_DOUBLE_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_DOUBLE_EQ(a.far_reject_rate, b.far_reject_rate);
  EXPECT_DOUBLE_EQ(a.uniform_ci.lo, b.uniform_ci.lo);
  EXPECT_DOUBLE_EQ(a.uniform_ci.hi, b.uniform_ci.hi);
  EXPECT_DOUBLE_EQ(a.far_ci.lo, b.far_ci.lo);
  EXPECT_DOUBLE_EQ(a.far_ci.hi, b.far_ci.hi);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.uniform_aborts_quorum, b.uniform_aborts_quorum);
  EXPECT_EQ(a.uniform_aborts_timeout, b.uniform_aborts_timeout);
  EXPECT_EQ(a.far_aborts_quorum, b.far_aborts_quorum);
  EXPECT_EQ(a.far_aborts_timeout, b.far_aborts_timeout);
}

TEST(FullProbe, BitIdenticalAcrossSimdLevelsAndThreadCounts) {
  // End-to-end DUTI_SIMD=off vs auto criterion: a representative tester
  // (batched sampling + tally + collision counting + run randomness)
  // probed through the parallel engine must be bit-identical at every
  // (SimdLevel, DUTI_THREADS) combination.
  LevelGuard guard;
  const TesterRun tester = [](const SampleSource& source, Rng& rng) {
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 48, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 48);
    return static_cast<double>(
               collision_pairs(samples, source.domain_size())) <=
           expected + 1.0 + rng.next_double();
  };
  simd_set_level(SimdLevel::kScalar);
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(tester, workloads::uniform_factory(256),
                    workloads::paninski_far_factory(256, 0.5), 400, 11, serial);
  for (const SimdLevel level : testable_levels()) {
    simd_set_level(level);
    for (const unsigned threads : {1u, 8u}) {
      ThreadPool pool(threads);
      const ProbeResult probe = probe_success(
          tester, workloads::uniform_factory(256),
          workloads::paninski_far_factory(256, 0.5), 400, 11, pool);
      SCOPED_TRACE(testing::Message() << simd_level_name(level) << " threads="
                                      << threads);
      expect_probe_equal(reference, probe);
    }
  }
}

TEST(SimdDispatch, ParsesLevelStrings) {
  SimdLevel out = SimdLevel::kAvx2;
  EXPECT_TRUE(simd_level_from_string("off", out));
  EXPECT_EQ(out, SimdLevel::kScalar);
  out = SimdLevel::kAvx2;
  EXPECT_TRUE(simd_level_from_string("scalar", out));
  EXPECT_EQ(out, SimdLevel::kScalar);
  EXPECT_TRUE(simd_level_from_string("sse2", out));
  EXPECT_EQ(out, SimdLevel::kSse2);
  EXPECT_TRUE(simd_level_from_string("avx2", out));
  EXPECT_EQ(out, SimdLevel::kAvx2);
  EXPECT_TRUE(simd_level_from_string("auto", out));
  EXPECT_EQ(out, simd_supported_level());
  // Unknown strings leave the output untouched and return false.
  out = SimdLevel::kSse2;
  EXPECT_FALSE(simd_level_from_string("", out));
  EXPECT_FALSE(simd_level_from_string("AVX2", out));
  EXPECT_FALSE(simd_level_from_string("mmx", out));
  EXPECT_EQ(out, SimdLevel::kSse2);
}

TEST(SimdDispatch, SetLevelClampsToSupportedAndSticks) {
  LevelGuard guard;
  const SimdLevel cap = simd_supported_level();
  // Requesting the maximum tier installs at most the supported one.
  const SimdLevel installed = simd_set_level(SimdLevel::kAvx2);
  EXPECT_EQ(installed, cap);
  EXPECT_EQ(simd_active_level(), cap);
  // Scalar is always available and always honored exactly.
  EXPECT_EQ(simd_set_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(simd_active_level(), SimdLevel::kScalar);
  EXPECT_EQ(simd_level_name(SimdLevel::kScalar), std::string_view("scalar"));
  EXPECT_EQ(simd_level_name(SimdLevel::kSse2), std::string_view("sse2"));
  EXPECT_EQ(simd_level_name(SimdLevel::kAvx2), std::string_view("avx2"));
}

}  // namespace
}  // namespace duti
