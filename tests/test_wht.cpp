#include "fourier/wht.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

TEST(Wht, SizeMustBePowerOfTwo) {
  std::vector<double> bad(3, 1.0);
  EXPECT_THROW(wht_inplace(bad), InvalidArgument);
  std::vector<double> empty;
  EXPECT_THROW(wht_inplace(empty), InvalidArgument);
}

TEST(Wht, SizeOneIsIdentity) {
  std::vector<double> v{3.5};
  wht_inplace(v);
  EXPECT_DOUBLE_EQ(v[0], 3.5);
}

TEST(Wht, MatchesNaiveTransform) {
  Rng rng(1);
  for (unsigned m : {1u, 2u, 3u, 5u, 8u}) {
    const std::size_t n = 1ULL << m;
    std::vector<double> f(n);
    for (auto& v : f) v = rng.next_double() * 2.0 - 1.0;
    std::vector<double> fast = f;
    wht_inplace(fast);
    for (std::uint64_t s = 0; s < n; ++s) {
      double naive = 0.0;
      for (std::uint64_t x = 0; x < n; ++x) {
        naive += f[x] * chi(s, x);
      }
      ASSERT_NEAR(fast[s], naive, 1e-9) << "m=" << m << " S=" << s;
    }
  }
}

TEST(Wht, MatchesNaiveTransformExactly) {
  // Small integer inputs keep every sum exactly representable, so the
  // butterflies and the O(N^2) definition must agree to the last bit.
  Rng rng(2026);
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    std::vector<double> input(n);
    for (auto& v : input)
      v = static_cast<double>(static_cast<std::int64_t>(rng() % 17) - 8);
    std::vector<double> expected(n, 0.0);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t x = 0; x < n; ++x) expected[s] += input[x] * chi(s, x);
    }
    std::vector<double> data = input;
    wht_inplace(data);
    EXPECT_EQ(std::memcmp(data.data(), expected.data(), n * sizeof(double)), 0)
        << "n=" << n;
  }
}

TEST(Wht, InvolutionUpToScale) {
  // WHT applied twice multiplies by N.
  Rng rng(2);
  const std::size_t n = 64;
  std::vector<double> f(n);
  for (auto& v : f) v = rng.next_double();
  std::vector<double> g = f;
  wht_inplace(g);
  wht_inplace(g);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(g[i], static_cast<double>(n) * f[i], 1e-9);
  }
}

TEST(Wht, NormalizedGivesExpectationCoefficients) {
  // f = chi_T has f_hat(T) = 1 and all other coefficients 0.
  const unsigned m = 4;
  const std::uint64_t t_mask = 0b1010;
  std::vector<double> f(1ULL << m);
  for (std::uint64_t x = 0; x < f.size(); ++x) {
    f[x] = chi(t_mask, x);
  }
  wht_normalized(f);
  for (std::uint64_t s = 0; s < f.size(); ++s) {
    ASSERT_NEAR(f[s], s == t_mask ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Wht, ParsevalUnderNormalization) {
  Rng rng(3);
  const std::size_t n = 256;
  std::vector<double> f(n);
  double e2 = 0.0;
  for (auto& v : f) {
    v = rng.next_double();
    e2 += v * v;
  }
  e2 /= static_cast<double>(n);
  wht_normalized(f);
  double coeff_sum = 0.0;
  for (double c : f) coeff_sum += c * c;
  EXPECT_NEAR(coeff_sum, e2, 1e-10);
}

TEST(Wht, ConstantFunctionHasOnlyEmptyCoefficient) {
  std::vector<double> f(32, 0.7);
  wht_normalized(f);
  EXPECT_NEAR(f[0], 0.7, 1e-12);
  for (std::size_t s = 1; s < f.size(); ++s) {
    ASSERT_NEAR(f[s], 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace duti
