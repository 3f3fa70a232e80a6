// Deterministic, splittable random number generation.
//
// Every experiment in this library must be reproducible bit-for-bit from a
// single seed, while still giving each (player, trial, sweep-point) its own
// statistically independent stream. We use splitmix64 to derive stream seeds
// and xoshiro256++ as the bulk generator; both are public-domain algorithms
// (Blackman & Vigna) reimplemented here so the library has no dependencies.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "util/error.hpp"

namespace duti {

/// splitmix64: a tiny 64-bit generator used to seed other generators and to
/// derive per-stream seeds from (seed, stream-index) pairs. Passes BigCrush
/// when used as a generator in its own right.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix an arbitrary list of 64-bit labels into a single stream seed.
/// Used to derive independent streams: derive_seed(root, player, trial, ...).
template <typename... Labels>
std::uint64_t derive_seed(std::uint64_t root, Labels... labels) noexcept {
  SplitMix64 sm(root);
  std::uint64_t out = sm.next();
  // Fold each label through one splitmix step keyed on the running value.
  ((out = SplitMix64(out ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(labels) + 1))).next()),
   ...);
  return out;
}

/// xoshiro256++ 1.0: the library's bulk pseudo-random generator.
/// Satisfies std::uniform_random_bit_generator, so it plugs into <random>.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seed the four 64-bit words of state via splitmix64, per the authors'
  /// recommendation (avoids the all-zero state and correlated seeds).
  explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// The coin `next_double() < p` as an integer compare on the same raw:
  /// `(raw >> 11) < coin_threshold(p)` holds for exactly the raws on which
  /// next_double() < p. With m = raw >> 11 < 2^53, next_double() is
  /// m·2^-53 exactly, and p·2^53 is exact as well (a power-of-two scale of
  /// p <= 1 neither overflows nor rounds, subnormal p included), so
  /// m·2^-53 < p ⟺ m < p·2^53 ⟺ m < ⌈p·2^53⌉, the last step because m is
  /// an integer. The threshold is at most 2^53, which every raw passes.
  /// Throws InvalidArgument for p < 0, p > 1 and NaN, whose conversion to
  /// an integer could be undefined.
  [[nodiscard]] static std::uint64_t coin_threshold(double p) {
    require(p >= 0.0 && p <= 1.0, "coin_threshold: p must be in [0, 1]");
    const double scaled = p * 0x1.0p53;
    // Truncation is the floor here (scaled >= 0); the ceiling adds 1
    // unless scaled is whole. Both conversions are exact up to 2^53, and
    // signed ones, which x86-64 does in one instruction each.
    const auto floor = static_cast<std::int64_t>(scaled);
    return static_cast<std::uint64_t>(
        floor + (static_cast<double>(floor) < scaled ? 1 : 0));
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Multiply-shift rejection sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fair coin: ±1 with equal probability.
  int next_sign() noexcept { return ((*this)() >> 63) ? 1 : -1; }

  /// Bernoulli(p) draw.
  bool next_bernoulli(double p) noexcept { return next_double() < p; }

  /// The four state words, exposed so deterministic-RNG accounting can be
  /// checkpointed and replayed (the calibration memo stores the stream's
  /// entry state in its key and restores the exit state on a hit, so a
  /// memoized construction consumes the stream exactly like a fresh one).
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const noexcept { return state_; }
  void set_state(const State& s) noexcept { state_ = s; }

  /// A jump of `draws` * 2^doublings outputs as a GF(2) polynomial: the
  /// state map T is linear over GF(2), so that many steps equal
  /// (x^(draws * 2^doublings) mod P)(T) for T's characteristic polynomial
  /// P. Word 0 holds the coefficients of x^0..x^63. (1, 128) and (1, 192)
  /// give the reference implementation's JUMP and LONG_JUMP constants.
  using JumpPolynomial = std::array<std::uint64_t, 4>;
  [[nodiscard]] static JumpPolynomial jump_polynomial(
      std::uint64_t draws, unsigned doublings = 0) noexcept;

  /// Advance the state by `poly`'s jump in 256 steps, XOR-accumulating the
  /// state at each set coefficient, as the reference jump() does.
  void jump(const JumpPolynomial& poly) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Default generator alias used throughout the library.
using Rng = Xoshiro256pp;

/// Run `body(local)` on a local copy of `rng`, then write the copy's state
/// back into `rng`, also when `body` throws: the stream advances exactly as
/// if `body` had drawn from `rng` itself. A batched draw loop that stores
/// uint64 outputs through a pointer cannot keep `rng`'s four state words in
/// registers, because every store may alias them; the copy's address never
/// escapes an inlined body, so its words stay in registers across the loop.
/// This is the library's only Rng copy outside make_rng/derive_seed
/// (DESIGN.md §11).
template <typename Body>
[[gnu::always_inline]] inline decltype(auto) with_register_copy(Rng& rng,
                                                                Body&& body) {
  struct WriteBack {
    Rng& rng;
    Rng& local;
    ~WriteBack() { rng = local; }
  };
  // duti-lint: allow(rng-copy) -- write_back stores the copy's state into
  // rng when the body returns or throws, so exactly one stream advances.
  Rng local = rng;
  const WriteBack write_back{rng, local};
  return body(local);
}

/// `next_below(2^k)` for 1 <= k <= 63 as one shift: Lemire's product
/// raw * 2^k has high word raw >> (64 - k), and its rejection threshold
/// (2^64 - 2^k) mod 2^k is 0, so next_below takes the same one raw and
/// returns the same value (DESIGN.md §11).
struct ShiftIndex {
  unsigned shift;  // 64 - k
  std::uint64_t operator()(Rng& rng) const noexcept { return rng() >> shift; }
};

/// `next_below(bound)` for every other bound.
struct BelowIndex {
  std::uint64_t bound;
  std::uint64_t operator()(Rng& rng) const noexcept {
    return rng.next_below(bound);
  }
};

/// Run `body(index)` with the index draw over [0, n): ShiftIndex when n is
/// a power of two above 1, BelowIndex otherwise (n = 1 takes one raw and
/// returns 0; a shift by 64 would be undefined). Both draw exactly
/// `next_below(n)`. The choice is made once per call, outside the body's
/// loop: GCC 12 at -O2 does not unswitch loops, so a test per draw would
/// stay in the loop.
template <typename Body>
[[gnu::always_inline]] inline decltype(auto) with_index_draw(std::uint64_t n,
                                                             Body&& body) {
  // Not std::has_single_bit: without -mpopcnt that is a library call.
  if (n > 1 && (n & (n - 1)) == 0) {
    return body(ShiftIndex{1U + static_cast<unsigned>(std::countl_zero(n))});
  }
  return body(BelowIndex{n});
}

/// Construct the RNG for a derived stream in one call.
template <typename... Labels>
Rng make_rng(std::uint64_t root, Labels... labels) noexcept {
  return Rng(derive_seed(root, labels...));
}

}  // namespace duti
