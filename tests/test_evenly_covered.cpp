#include "fourier/evenly_covered.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace duti {
namespace {

// a_r(x) by its definition: test every 2r-subset of positions, enumerated
// with Gosper's hack. The reference for the multiplicity product.
std::uint64_t a_r_by_subsets(std::span<const std::uint64_t> x, unsigned r) {
  const auto q = static_cast<unsigned>(x.size());
  if (2 * r > q) return 0;
  if (r == 0) return 1;  // only S = empty set
  std::uint64_t count = 0;
  const std::uint64_t limit = 1ULL << q;
  for (std::uint64_t s = lowest_mask(2 * r); s != 0 && s < limit;
       s = next_same_popcount(s)) {
    if (is_evenly_covered(x, s)) ++count;
  }
  return count;
}

// a_r_by_subsets(x, r) for every x in (2^ell)^q, in index order (x_j is
// base-2^ell digit j of the index). Summing a^m over this vector serially
// is the tuple-enumeration moment, the reference for the shape sum.
std::vector<double> a_r_per_tuple(unsigned ell, unsigned q, unsigned r) {
  const std::uint64_t side = 1ULL << ell;
  const auto total = static_cast<std::uint64_t>(
      std::pow(static_cast<double>(side), static_cast<double>(q)));
  std::vector<double> out(total);
  std::vector<std::uint64_t> x(q);
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rest = idx;
    for (unsigned j = 0; j < q; ++j) {
      x[j] = rest % side;
      rest /= side;
    }
    out[idx] = static_cast<double>(a_r_by_subsets(x, r));
  }
  return out;
}

// Expects `call` to throw InvalidArgument whose message names ell.
template <typename Call>
void expect_throws_naming_ell(Call call) {
  try {
    call();
    ADD_FAILURE() << "no InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("ell"), std::string::npos)
        << e.what();
  }
}

TEST(EvenlyCovered, Predicate) {
  const std::vector<std::uint64_t> x{3, 5, 3, 5, 7};
  EXPECT_TRUE(is_evenly_covered(x, 0b00000));   // empty S
  EXPECT_TRUE(is_evenly_covered(x, 0b01111));   // {3,5,3,5}
  EXPECT_FALSE(is_evenly_covered(x, 0b10000));  // {7}
  EXPECT_FALSE(is_evenly_covered(x, 0b00111));  // {3,5,3}
  EXPECT_TRUE(is_evenly_covered(x, 0b00101));   // {3,3}
  EXPECT_FALSE(is_evenly_covered(x, 0b11111));  // {3,5,3,5,7}
}

TEST(EvenlyCovered, FourOfAKind) {
  const std::vector<std::uint64_t> x{2, 2, 2, 2};
  EXPECT_TRUE(is_evenly_covered(x, 0b1111));
  EXPECT_TRUE(is_evenly_covered(x, 0b0011));
  EXPECT_FALSE(is_evenly_covered(x, 0b0111));
}

TEST(EvenlyCovered, PositionsFrom64OnAreNeverInTheMask) {
  // 70 positions, all distinct except the equal pair the mask selects.
  // Positions 64 and 65 must be ignored: a shift by 64 or 65 would wrap to
  // bits 0 and 1 on x86 and pull in their two distinct values.
  std::vector<std::uint64_t> x(70);
  for (std::size_t j = 0; j < x.size(); ++j) x[j] = 100 + j;
  x[0] = x[1] = 5;
  EXPECT_TRUE(is_evenly_covered(x, 0b11));
  EXPECT_FALSE(is_evenly_covered(x, 0b111));
}

TEST(CountEvenSequences, SmallClosedForms) {
  // Length 2 over alphabet N: the two entries must match -> N sequences.
  for (std::uint64_t alphabet : {1ULL, 2ULL, 4ULL, 16ULL}) {
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 2),
                     static_cast<double>(alphabet));
  }
  // Odd lengths: impossible.
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 1), 0.0);
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 3), 0.0);
  // Length 0: the empty sequence.
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 0), 1.0);
  // Length 4 over alphabet N: 3N^2 - 2N (pairings minus double-counted
  // all-equal). Check against the DP.
  for (std::uint64_t alphabet : {2ULL, 3ULL, 8ULL}) {
    const double expected = 3.0 * static_cast<double>(alphabet * alphabet) -
                            2.0 * static_cast<double>(alphabet);
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 4), expected);
  }
}

TEST(CountEvenSequences, MatchesBruteForce) {
  // Brute-force enumeration over all sequences for tiny cases.
  for (std::uint64_t alphabet : {2ULL, 3ULL}) {
    for (unsigned m : {2u, 4u, 6u}) {
      double brute = 0.0;
      std::uint64_t total = 1;
      for (unsigned i = 0; i < m; ++i) total *= alphabet;
      std::vector<std::uint64_t> seq(m);
      for (std::uint64_t idx = 0; idx < total; ++idx) {
        std::uint64_t rest = idx;
        for (unsigned j = 0; j < m; ++j) {
          seq[j] = rest % alphabet;
          rest /= alphabet;
        }
        if (is_evenly_covered(seq, (1ULL << m) - 1)) brute += 1.0;
      }
      EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, m), brute)
          << "alphabet=" << alphabet << " m=" << m;
    }
  }
}

TEST(CountEvenSequences, PinsExactValuesThrough128Bits) {
  // Length 6 closed form: a(1 + 15(a-1)^2) = 15a^3 - 30a^2 + 16a.
  for (std::uint64_t alphabet : {1ULL, 2ULL, 3ULL, 8ULL, 100ULL}) {
    const auto a = static_cast<double>(alphabet);
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 6),
                     15.0 * a * a * a - 30.0 * a * a + 16.0 * a);
  }
  EXPECT_DOUBLE_EQ(count_even_sequences(2, 6), 32.0);
  EXPECT_DOUBLE_EQ(count_even_sequences(3, 6), 183.0);
  // Alphabet 2: exactly 2^{m-1} sequences (each letter even). Powers of two
  // are exactly representable, so the 128-bit DP must pin them exactly —
  // including 2^125, far past the old double-accumulation regime.
  for (unsigned m : {2u, 10u, 40u, 64u, 126u}) {
    EXPECT_EQ(count_even_sequences(2, m), std::ldexp(1.0, int(m) - 1)) << m;
  }
}

TEST(CountEvenSequences, LogSpaceFallbackPastExactRange) {
  // 2^129 overflows the 128-bit accumulators: the DP must hand off to the
  // log-space path and still land within floating-point noise of 2^129.
  const double near = count_even_sequences(2, 130);
  EXPECT_NEAR(near / std::ldexp(1.0, 129), 1.0, 1e-9);
  // The log-space entry point agrees with the exact DP where both work...
  for (std::uint64_t alphabet : {2ULL, 5ULL, 64ULL}) {
    for (unsigned m : {2u, 4u, 8u, 20u}) {
      EXPECT_NEAR(std::exp(count_even_sequences_log(alphabet, m)),
                  count_even_sequences(alphabet, m),
                  1e-9 * count_even_sequences(alphabet, m))
          << "alphabet=" << alphabet << " m=" << m;
    }
  }
  // ...reports -inf for odd lengths (count zero)...
  EXPECT_EQ(count_even_sequences_log(8, 3),
            -std::numeric_limits<double>::infinity());
  // ...and handles alphabets no fixed-width integer could: for a = 2^40,
  // m = 8 the count is 105 a^4 (1 - O(1/a)), so the log sits within ~4/a
  // of log(105) + 160 log 2.
  EXPECT_NEAR(count_even_sequences_log(1ULL << 40, 8),
              std::log(105.0) + 160.0 * std::log(2.0), 1e-9);
}

TEST(EvenlyCovered, InsertionSortPathMatchesParityReference) {
  // The predicate sorts with insertion sort below 17 elements and std::sort
  // above; both paths must agree with an order-free parity-map reference at
  // every |S| straddling the cutoff.
  Rng rng(97);
  for (unsigned q : {8u, 16u, 17u, 24u, 40u}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint64_t> x(q);
      for (auto& xi : x) xi = rng() % 5;  // few values -> collisions likely
      const std::uint64_t mask =
          rng() & ((q >= 64 ? ~0ULL : (1ULL << q) - 1));
      std::map<std::uint64_t, std::uint64_t> parity;
      for (unsigned j = 0; j < q; ++j) {
        if ((mask >> j) & 1ULL) ++parity[x[j]];
      }
      bool expected = true;
      for (const auto& [value, times] : parity) {
        (void)value;
        if (times % 2 != 0) expected = false;
      }
      EXPECT_EQ(is_evenly_covered(x, mask), expected)
          << "q=" << q << " mask=" << mask;
    }
  }
}

class CountXsTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(CountXsTest, MatchesBruteForceAndIsMaskInvariant) {
  const auto [ell, q] = GetParam();
  for (unsigned s_size = 0; s_size <= q; ++s_size) {
    const double via_dp = count_x_s(ell, q, s_size);
    // Prop 5.2(1): |X_S| depends only on |S| — verify across several masks.
    double first = -1.0;
    for (std::uint64_t mask = lowest_mask(s_size);
         mask != 0 && mask < (1ULL << q); mask = next_same_popcount(mask)) {
      const double brute = count_x_s_brute(ell, q, mask);
      if (first < 0) {
        first = brute;
      } else {
        ASSERT_DOUBLE_EQ(brute, first);
      }
    }
    if (s_size == 0) {
      first = count_x_s_brute(ell, q, 0);
    }
    EXPECT_DOUBLE_EQ(via_dp, first)
        << "ell=" << ell << " q=" << q << " |S|=" << s_size;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDomains, CountXsTest,
                         ::testing::Values(std::make_tuple(1u, 3u),
                                           std::make_tuple(2u, 3u),
                                           std::make_tuple(2u, 4u),
                                           std::make_tuple(3u, 4u)));

TEST(Prop52, BoundDominatesExactCount) {
  for (unsigned ell : {1u, 2u, 3u}) {
    for (unsigned q : {2u, 4u, 6u}) {
      for (unsigned s_size = 0; s_size <= q; s_size += 2) {
        EXPECT_LE(count_x_s(ell, q, s_size),
                  prop52_bound(ell, q, s_size) * (1.0 + 1e-12))
            << "ell=" << ell << " q=" << q << " |S|=" << s_size;
      }
    }
  }
}

TEST(Prop52, OddSizeIsZero) {
  EXPECT_DOUBLE_EQ(prop52_bound(3, 5, 3), 0.0);
  EXPECT_DOUBLE_EQ(count_x_s(3, 5, 3), 0.0);
}

TEST(Gosper, EnumeratesExactlyTheRightMasks) {
  const unsigned q = 6, bits = 3;
  std::uint64_t count = 0;
  for (std::uint64_t m = lowest_mask(bits); m != 0 && m < (1ULL << q);
       m = next_same_popcount(m)) {
    ASSERT_EQ(static_cast<unsigned>(std::popcount(m)), bits);
    ++count;
  }
  EXPECT_EQ(count, binomial(6, 3));
}

TEST(ArStatistic, ByHand) {
  // x = (a, a, b, b): S of size 2 evenly covered: {0,1} and {2,3} -> a_1=2.
  const std::vector<std::uint64_t> x{7, 7, 9, 9};
  EXPECT_EQ(a_r(x, 1), 2u);
  // size-4 sets: the whole thing is evenly covered -> a_2 = 1.
  EXPECT_EQ(a_r(x, 2), 1u);
  EXPECT_EQ(a_r(x, 3), 0u);  // 2r > q
  EXPECT_EQ(a_r(x, 0), 1u);  // empty set only
}

TEST(ArStatistic, AllDistinctGivesZero) {
  const std::vector<std::uint64_t> x{1, 2, 3, 4, 5};
  for (unsigned r = 1; r <= 2; ++r) {
    EXPECT_EQ(a_r(x, r), 0u);
  }
}

TEST(ArStatistic, AllEqual) {
  const std::vector<std::uint64_t> x{4, 4, 4, 4};
  EXPECT_EQ(a_r(x, 1), binomial(4, 2));
  EXPECT_EQ(a_r(x, 2), 1u);
}

TEST(ArStatistic, MatchesSubsetEnumerationOnRandomTuples) {
  // q in [0, 20] straddles the insertion-sort cutoff; alphabets of 1-6
  // random 64-bit letters make repeats likely; r in [0, q/2 + 1] covers
  // the r = 0 and 2r > q cases.
  Rng rng(14);
  for (int trial = 0; trial < 300; ++trial) {
    const auto q = static_cast<unsigned>(rng.next_below(21));
    std::vector<std::uint64_t> letters(1 + rng.next_below(6));
    for (auto& letter : letters) letter = rng();
    const auto r = static_cast<unsigned>(rng.next_below(q / 2 + 2));
    std::vector<std::uint64_t> x(q);
    for (auto& xi : x) xi = letters[rng.next_below(letters.size())];
    EXPECT_EQ(a_r(x, r), a_r_by_subsets(x, r))
        << "trial=" << trial << " q=" << q << " letters=" << letters.size()
        << " r=" << r;
  }
}

TEST(ArStatistic, SixtyThreeEqualSamples) {
  // Every 2r-subset is evenly covered; C(63, 31) is the largest
  // coefficient the multiplicity product can reach.
  const std::vector<std::uint64_t> x(63, 9);
  for (unsigned r = 0; r <= 31; ++r) {
    EXPECT_EQ(a_r(x, r), binomial(63, static_cast<int>(2 * r))) << "r=" << r;
  }
  EXPECT_EQ(a_r(x, 32), 0u);
  EXPECT_THROW((void)a_r(std::vector<std::uint64_t>(64, 9), 1),
               InvalidArgument);
}

TEST(ArMoments, FirstMomentMatchesCombinatorialIdentity) {
  // E_x[a_r(x)] = C(q, 2r) |X_{2r}| / (n/2)^q  (the identity used in
  // Section 5.1's moment estimation).
  for (unsigned ell : {1u, 2u}) {
    for (unsigned q : {2u, 4u}) {
      for (unsigned r = 1; 2 * r <= q; ++r) {
        const double lhs = a_r_moment_exact(ell, q, r, 1);
        const double side = std::ldexp(1.0, static_cast<int>(ell));
        const double rhs = static_cast<double>(binomial(static_cast<int>(q),
                                                        static_cast<int>(2 * r))) *
                           count_even_sequences(1ULL << ell, 2 * r) /
                           std::pow(side, 2.0 * r);
        EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, rhs))
            << "ell=" << ell << " q=" << q << " r=" << r;
      }
    }
  }
}

TEST(ArMoments, McConvergesToExact) {
  Rng rng(42);
  const unsigned ell = 2, q = 4, r = 1, m = 2;
  const double exact = a_r_moment_exact(ell, q, r, m);
  const double mc = a_r_moment_mc(ell, q, r, m, 200000, rng);
  EXPECT_NEAR(mc, exact, 0.05 * std::max(1.0, exact));
}

TEST(ArMoments, ExactMatchesTupleEnumerationBitForBit) {
  // Every row with at most 2^20 tuples: each sum of a_r^m is an integer
  // below 2^53, so the shape sum must equal the serial tuple sum exactly.
  int rows = 0;
  for (unsigned ell = 0; ell <= 3; ++ell) {
    for (unsigned q = 0; q <= 8; ++q) {
      const double total_tuples = std::ldexp(1.0, static_cast<int>(ell * q));
      if (total_tuples > std::ldexp(1.0, 20)) continue;
      for (unsigned r = 0; r <= 3; ++r) {
        const std::vector<double> per_tuple = a_r_per_tuple(ell, q, r);
        for (unsigned m = 1; m <= 4; ++m) {
          double acc = 0.0;
          for (const double a : per_tuple) acc += dpow_int(a, m);
          const double by_shapes = a_r_moment_exact(ell, q, r, m);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(by_shapes),
                    std::bit_cast<std::uint64_t>(acc / total_tuples))
              << "ell=" << ell << " q=" << q << " r=" << r << " m=" << m;
          ++rows;
        }
      }
    }
  }
  EXPECT_EQ(rows, 544);
}

struct PinnedMoment {
  unsigned ell, q, r, m;
  bool monte_carlo;
  double value;
};

// The 54 E7b rows in e7_moments' table order at its defaults (seed 1,
// 100 000 Monte-Carlo trials), recorded from the subset-enumeration a_r
// and tuple-enumeration moment; they equal perfbench/refs/references.txt.
constexpr PinnedMoment kE7bPins[] = {
    {2, 4, 1, 1, false, 0x1.8p+0},
    {2, 4, 1, 2, false, 0x1.bp+1},
    {2, 4, 1, 3, false, 0x1.44p+3},
    {2, 4, 2, 1, false, 0x1.4p-3},
    {2, 4, 2, 2, false, 0x1.4p-3},
    {2, 4, 2, 3, false, 0x1.4p-3},
    {2, 6, 1, 1, false, 0x1.ep+1},
    {2, 6, 1, 2, false, 0x1.0ep+4},
    {2, 6, 1, 3, false, 0x1.6dap+6},
    {2, 6, 2, 1, false, 0x1.2cp+1},
    {2, 6, 2, 2, false, 0x1.2fcp+3},
    {2, 6, 2, 3, false, 0x1.b12p+5},
    {2, 10, 1, 1, false, 0x1.68p+3},
    {2, 10, 1, 2, false, 0x1.0ep+7},
    {2, 10, 1, 3, false, 0x1.b4a4p+10},
    {2, 10, 2, 1, false, 0x1.068p+5},
    {2, 10, 2, 2, false, 0x1.3462ep+10},
    {2, 10, 2, 3, false, 0x1.ac1b154p+15},
    {3, 4, 1, 1, false, 0x1.8p-1},
    {3, 4, 1, 2, false, 0x1.38p+0},
    {3, 4, 1, 3, false, 0x1.5cp+1},
    {3, 4, 2, 1, false, 0x1.6p-5},
    {3, 4, 2, 2, false, 0x1.6p-5},
    {3, 4, 2, 3, false, 0x1.6p-5},
    {3, 6, 1, 1, false, 0x1.ep+0},
    {3, 6, 1, 2, false, 0x1.4ap+2},
    {3, 6, 1, 3, false, 0x1.2b1p+4},
    {3, 6, 2, 1, false, 0x1.4ap-1},
    {3, 6, 2, 2, false, 0x1.8abp+0},
    {3, 6, 2, 3, false, 0x1.74a8p+2},
    {3, 10, 1, 1, true, 0x1.682f5989df117p+2},
    {3, 10, 1, 2, true, 0x1.23d0efdc9c4dbp+5},
    {3, 10, 1, 3, true, 0x1.13d23f67f4dbep+8},
    {3, 10, 2, 1, true, 0x1.1f50b0f27bb3p+3},
    {3, 10, 2, 2, true, 0x1.faae631f8a09p+6},
    {3, 10, 2, 3, true, 0x1.3e34c9afe1da8p+11},
    {5, 4, 1, 1, false, 0x1.8p-3},
    {5, 4, 1, 2, false, 0x1.bcp-3},
    {5, 4, 1, 3, false, 0x1.35p-2},
    {5, 4, 2, 1, false, 0x1.78p-9},
    {5, 4, 2, 2, false, 0x1.78p-9},
    {5, 4, 2, 3, false, 0x1.78p-9},
    {5, 6, 1, 1, true, 0x1.e3b256ffc115ep-2},
    {5, 6, 1, 2, true, 0x1.5833c60029f17p-1},
    {5, 6, 1, 3, true, 0x1.4ce7ab7564303p+0},
    {5, 6, 2, 1, true, 0x1.601797cc39ffdp-5},
    {5, 6, 2, 2, true, 0x1.cdb37c99ae925p-5},
    {5, 6, 2, 3, true, 0x1.9c432ca57a787p-4},
    {5, 10, 1, 1, true, 0x1.69a2c669057d1p+0},
    {5, 10, 1, 2, true, 0x1.a9e9e1b089a02p+1},
    {5, 10, 1, 3, true, 0x1.4f3d46b26bf87p+3},
    {5, 10, 2, 1, true, 0x1.363dc486ad2ddp-1},
    {5, 10, 2, 2, true, 0x1.d62584f4c6e6ep+0},
    {5, 10, 2, 3, true, 0x1.417fe08aefb2bp+3},
};

TEST(ArMoments, E7bValuesArePinnedBitForBit) {
  // One Rng(1) threads through the Monte-Carlo rows in table order, as in
  // e7_moments; the exact rows draw nothing.
  Rng rng(1);
  for (const PinnedMoment& row : kE7bPins) {
    const double got =
        row.monte_carlo
            ? a_r_moment_mc(row.ell, row.q, row.r, row.m, 100000, rng)
            : a_r_moment_exact(row.ell, row.q, row.r, row.m);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(row.value))
        << "ell=" << row.ell << " q=" << row.q << " r=" << row.r
        << " m=" << row.m << " got " << std::hexfloat << got;
  }
}

// The serial Monte-Carlo fold over one stream that a_r_moment_mc splits.
double serial_moment_mc(unsigned ell, unsigned q, unsigned r, unsigned m,
                        std::size_t trials, Rng& rng) {
  std::vector<std::uint64_t> x(q);
  double acc = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    for (auto& xi : x) xi = rng.next_below(1ULL << ell);
    acc += dpow_int(static_cast<double>(a_r(x, r)), m);
  }
  return acc / static_cast<double>(trials);
}

TEST(ArMoments, McOnEveryPoolEqualsTheSerialFoldBitForBit) {
  // Inside the 2^53 bound (210^3 * 20 000 ~ 1.9e11) the chunk sums fold
  // exactly; past it (C(40, 20)^2 ~ 1.9e22 per term) the loop runs as one
  // chunk. Every row spans several chunks' worth of trials. The loop keys
  // tuples by multiplicity type for alphabets up to 64 (ell <= 6) and
  // q <= 16; the rows sit on both sides of both limits, at an alphabet of
  // one, and at r = 0 (every term 1) and r > q/2 (every term 0).
  struct Row {
    unsigned ell, q, r, m;
    std::size_t trials;
  };
  for (const Row& row :
       {Row{5, 10, 2, 3, 20000}, Row{3, 40, 10, 2, 10000},
        Row{0, 10, 2, 3, 10000}, Row{6, 10, 2, 3, 10000},
        Row{7, 10, 2, 3, 10000}, Row{3, 16, 4, 2, 10000},
        Row{3, 17, 4, 2, 10000}, Row{5, 10, 0, 1, 10000},
        Row{5, 10, 6, 2, 10000}}) {
    Rng serial(21);
    const double want =
        serial_moment_mc(row.ell, row.q, row.r, row.m, row.trials, serial);
    for (const unsigned threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      Rng rng(21);
      const double got =
          a_r_moment_mc(row.ell, row.q, row.r, row.m, row.trials, rng, pool);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "ell=" << row.ell << " q=" << row.q << " r=" << row.r
          << " threads " << threads << ": got " << std::hexfloat << got
          << ", serial " << want;
      EXPECT_EQ(rng.state(), serial.state())
          << "ell=" << row.ell << " q=" << row.q << " r=" << row.r
          << " threads " << threads;
    }
  }
}

TEST(ArMoments, McTakesAtMostSixtyThreeSamplesCheckedBeforeDrawing) {
  Rng rng(5);
  EXPECT_GT(a_r_moment_mc(2, 63, 1, 1, 10, rng), 0.0);
  const Rng::State before = rng.state();
  try {
    (void)a_r_moment_mc(2, 64, 1, 1, 10, rng);
    ADD_FAILURE() << "q = 64 did not throw";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("63 samples"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rng.state(), before);
}

class Lemma55Test : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, unsigned, unsigned>> {};

TEST_P(Lemma55Test, BoundDominatesExactMoment) {
  const auto [ell, q, r, m] = GetParam();
  if (2 * r > q) GTEST_SKIP();
  const double exact = a_r_moment_exact(ell, q, r, m);
  if (exact == 0.0) GTEST_SKIP();
  EXPECT_LE(std::log(exact), lemma55_log_bound(ell, q, r, m) + 1e-9)
      << "ell=" << ell << " q=" << q << " r=" << r << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    MomentSweep, Lemma55Test,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),   // ell
                       ::testing::Values(2u, 4u, 6u),   // q
                       ::testing::Values(1u, 2u),       // r
                       ::testing::Values(1u, 2u, 3u))); // m

TEST(Lemma55, CapacityGuard) {
  EXPECT_THROW((void)a_r_moment_exact(10, 10, 1, 1), CapacityError);
  EXPECT_THROW((void)count_x_s_brute(10, 10, 1), CapacityError);
}

TEST(EllBoundary, SixtyThreeWorksAndSixtyFourThrowsNamingEll) {
  // The alphabet 2^ell must fit 64 bits.
  EXPECT_EQ(count_x_s(63, 2, 2), std::ldexp(1.0, 63));
  expect_throws_naming_ell([] { (void)count_x_s(64, 2, 2); });
  // Every q >= 1 tuple set at ell = 63 is past the enumeration cap.
  EXPECT_THROW((void)count_x_s_brute(63, 1, 1), CapacityError);
  expect_throws_naming_ell([] { (void)count_x_s_brute(64, 1, 1); });
  // q = 0: the single empty tuple, where only r = 0 counts.
  EXPECT_EQ(a_r_moment_exact(63, 0, 0, 1), 1.0);
  EXPECT_EQ(a_r_moment_exact(63, 0, 1, 1), 0.0);
  EXPECT_THROW((void)a_r_moment_exact(63, 1, 0, 1), CapacityError);
  expect_throws_naming_ell([] { (void)a_r_moment_exact(64, 0, 0, 1); });
  // 400 draws below 2^63 hold no repeated value; at ell = 64 the call
  // throws before its first draw.
  Rng rng(3);
  EXPECT_EQ(a_r_moment_mc(63, 4, 1, 1, 100, rng), 0.0);
  const auto before = rng.state();
  expect_throws_naming_ell(
      [&rng] { (void)a_r_moment_mc(64, 4, 1, 1, 100, rng); });
  EXPECT_EQ(rng.state(), before);
}

}  // namespace
}  // namespace duti
