#include "dist/paninski.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace duti {

namespace {

/// The pmf's two levels, base + d and base - d with d = eps * base: the
/// arithmetic gen::paninski_with_signs has always used, where a -1 sign
/// negates d exactly.
struct Levels {
  double hi;
  double lo;
};

Levels levels(std::size_t n, double eps) {
  const double base = 1.0 / static_cast<double>(n);
  const double d = eps * base;
  return {base + d, base - d};
}

}  // namespace

Paninski::Paninski(std::size_t n, double eps)
    : n_(n), eps_(eps), words_((n / 2 + 63) / 64, 0) {
  require(n >= 2 && n % 2 == 0, "Paninski: n must be even and >= 2");
  require(eps >= 0.0 && eps <= 1.0, "Paninski: eps must be in [0,1]");
}

Paninski Paninski::random(std::size_t n, double eps, Rng& rng) {
  Paninski p(n, eps);
  const std::size_t pairs = n / 2;
  // The word stores may alias a stream held in memory; a register copy
  // keeps its state out of memory across the loop (DESIGN.md §11).
  with_register_copy(rng, [&p, pairs](Rng& local) {
    for (std::size_t w = 0; w < p.words_.size(); ++w) {
      const std::size_t count = std::min<std::size_t>(64, pairs - 64 * w);
      std::uint64_t word = 0;
      // Bit set (sign -1) iff the top bit is clear: Rng::next_sign's coin.
      for (std::size_t b = 0; b < count; ++b) word |= (~local() >> 63) << b;
      p.words_[w] = word;
    }
  });
  return p;
}

Paninski Paninski::from_signs(std::size_t n, double eps,
                              const std::vector<int>& signs) {
  Paninski p(n, eps);
  require(signs.size() == n / 2, "Paninski::from_signs: need n/2 signs");
  for (std::size_t i = 0; i < signs.size(); ++i) {
    require(signs[i] == 1 || signs[i] == -1,
            "Paninski::from_signs: signs must be +-1");
    p.words_[i / 64] |= static_cast<std::uint64_t>(signs[i] == -1)
                        << (i % 64);
  }
  return p;
}

DiscreteDistribution Paninski::to_distribution() const {
  const auto [hi, lo] = levels(n_, eps_);
  const double first[2] = {hi, lo};  // by sign bit
  std::vector<double> pmf(n_);
  for (std::size_t p = 0; p < n_ / 2; ++p) {
    const std::uint64_t b = (words_[p / 64] >> (p % 64)) & 1U;
    pmf[2 * p] = first[b];
    pmf[2 * p + 1] = first[b ^ 1U];
  }
  return DiscreteDistribution(std::move(pmf));
}

std::optional<double> exact_pair_sum(std::size_t pairs, double hi,
                                     double lo) noexcept {
  if (!(hi > 0.0 && lo >= 0.0 && std::isfinite(hi) && std::isfinite(lo))) {
    return std::nullopt;
  }
  // 2^g, the largest power of two dividing both levels: x = f * 2^e with f
  // in [0.5, 1) holding at most 53 bits, so f * 2^53 is an integer whose
  // trailing zeros raise 2^(e - 53).
  const auto low_bit = [](double x) {
    int e = 0;
    const double f = std::frexp(x, &e);
    const auto m = static_cast<std::uint64_t>(std::ldexp(f, 53));
    return e - 53 + std::countr_zero(m);
  };
  const int g = lo > 0.0 ? std::min(low_bit(hi), low_bit(lo)) : low_bit(hi);
  // The levels in units of 2^g (exact power-of-two scalings; a level too
  // large for the units fails the bound below).
  constexpr double kTwo53 = 9007199254740992.0;
  const double hi_units = std::ldexp(hi, -g);
  const double lo_units = std::ldexp(lo, -g);
  if (!(hi_units <= kTwo53 && lo_units <= kTwo53)) return std::nullopt;
  std::uint64_t total_units = 0;
  if (__builtin_mul_overflow(static_cast<std::uint64_t>(pairs),
                             static_cast<std::uint64_t>(hi_units) +
                                 static_cast<std::uint64_t>(lo_units),
                             &total_units) ||
      total_units > (std::uint64_t{1} << 53)) {
    return std::nullopt;
  }
  // Every partial sum is a multiple of 2^g of at most 2^53 units, so every
  // addition is exact and the sum is pairs * (hi + lo) itself.
  return std::ldexp(static_cast<double>(total_units), g);
}

double Paninski::pmf_order_sum(double hi, double lo) const noexcept {
  const std::size_t pairs = n_ / 2;
  if (const std::optional<double> exact = exact_pair_sum(pairs, hi, lo)) {
    return *exact;
  }
  // Addends picked by indexing on the sign bit: a branch on a random sign
  // mispredicts on half the pairs.
  const double first[2] = {hi, lo};
  double total = 0.0;
  for (std::size_t p0 = 0; p0 < pairs; p0 += 64) {
    std::uint64_t bits = words_[p0 / 64];
    const std::size_t end = std::min(pairs, p0 + 64);
    for (std::size_t p = p0; p < end; ++p, bits >>= 1) {
      const std::uint64_t b = bits & 1U;
      total += first[b];
      total += first[b ^ 1U];
    }
  }
  return total;
}

AliasSampler Paninski::sampler() const {
  const auto [hi, lo] = levels(n_, eps_);
  // DiscreteDistribution's normalization: its check, then a division of
  // every entry by the pmf's sum.
  const double total = pmf_order_sum(hi, lo);
  require(std::fabs(total - 1.0) <= 1e-9, "Paninski: pmf does not sum to 1");
  const double hi_n = hi / total;
  const double lo_n = lo / total;
  // AliasSampler's scale: n over the normalized pmf's sum. When dividing
  // left both levels unchanged the addends are the same, and so is the sum.
  const double scaled_total =
      hi_n == hi && lo_n == lo ? total : pmf_order_sum(hi_n, lo_n);
  const double scale = static_cast<double>(n_) / scaled_total;
  return AliasSampler(words_, n_ / 2, hi_n * scale, lo_n * scale);
}

}  // namespace duti
