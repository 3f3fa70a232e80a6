#include "util/rng.hpp"

#include <bit>
#include <cstddef>

namespace duti {

namespace {

using Poly = Xoshiro256pp::JumpPolynomial;

// P = x^256 + kCharLow is the characteristic polynomial of the xoshiro256
// state map (shared by every xoshiro256 scrambler), found by
// Berlekamp–Massey on 512 output bits. Word 0 holds x^0..x^63.
constexpr Poly kCharLow = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                           0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

// p * x mod P.
constexpr Poly times_x(Poly p) {
  const bool carry = (p[3] >> 63) != 0;
  for (std::size_t i = 3; i > 0; --i) p[i] = (p[i] << 1) | (p[i - 1] >> 63);
  p[0] <<= 1;
  if (carry) {
    for (std::size_t i = 0; i < 4; ++i) p[i] ^= kCharLow[i];
  }
  return p;
}

// kHighPowers[i] = x^(256 + i) mod P: folds a square's high half back.
constexpr auto kHighPowers = [] {
  std::array<Poly, 256> t{};
  t[0] = kCharLow;
  for (std::size_t i = 1; i < t.size(); ++i) t[i] = times_x(t[i - 1]);
  return t;
}();

// The 32 bits of `half` spread to the even bit positions of a word.
constexpr std::uint64_t spread(std::uint64_t half) {
  std::uint64_t v = half & 0xffffffffULL;
  v = (v | (v << 16)) & 0x0000ffff0000ffffULL;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffULL;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  v = (v | (v << 2)) & 0x3333333333333333ULL;
  v = (v | (v << 1)) & 0x5555555555555555ULL;
  return v;
}

// p^2 mod P. Squaring over GF(2) only spreads the coefficients,
// (sum a_i x^i)^2 = sum a_i x^(2i); the high half then folds through
// kHighPowers.
Poly square(const Poly& p) {
  Poly out = {spread(p[0]), spread(p[0] >> 32), spread(p[1]),
              spread(p[1] >> 32)};
  const std::uint64_t high[4] = {spread(p[2]), spread(p[2] >> 32),
                                 spread(p[3]), spread(p[3] >> 32)};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::uint64_t bits = high[w]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
      const Poly& fold = kHighPowers[64 * w + bit];
      for (std::size_t i = 0; i < 4; ++i) out[i] ^= fold[i];
    }
  }
  return out;
}

}  // namespace

Xoshiro256pp::JumpPolynomial Xoshiro256pp::jump_polynomial(
    std::uint64_t draws, unsigned doublings) noexcept {
  // Left-to-right square-and-multiply; multiplying by x is a shift.
  Poly r = {1, 0, 0, 0};
  for (int b = 63 - std::countl_zero(draws); b >= 0; --b) {
    r = square(r);
    if ((draws >> b) & 1U) r = times_x(r);
  }
  for (unsigned i = 0; i < doublings; ++i) r = square(r);
  return r;
}

void Xoshiro256pp::jump(const JumpPolynomial& poly) noexcept {
  State acc{};
  for (const std::uint64_t word : poly) {
    for (int b = 0; b < 64; ++b) {
      if ((word >> b) & 1U) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

}  // namespace duti
