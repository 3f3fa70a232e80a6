// Paninski (dist/paninski.hpp) and PaninskiSource build their alias table
// from the pair signs, without a pmf. These tests pin that every table,
// draw and RNG exit state is bit-identical to the materialized path
// (gen::paninski -> DiscreteDistribution -> AliasSampler over the pmf), and
// that AliasSampler's implicit-stack Vose loop with integer coins
// reproduces the classic double-coin worklist construction
// (vose_reference.hpp): the same aliases, and ⌈p·2^53⌉ for every p.
#include "dist/paninski.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "dist/alias_sampler.hpp"
#include "dist/generators.hpp"
#include "sim/sample_source.hpp"
#include "stats/workloads.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vose_reference.hpp"

namespace duti {
namespace {

using vose_reference::ceil_thresholds;
using vose_reference::worklist_table;
using vose_reference::WorklistTable;

std::vector<std::uint64_t> bits_of(std::span<const double> v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

/// Whether pair i's sign is -1 (heavy member 2i+1), read from the packed
/// words.
bool minus_sign(const Paninski& p, std::size_t pair) {
  return ((p.words()[pair / 64] >> (pair % 64)) & 1U) != 0;
}

/// A sampler's alias table as a vector, so gtest compares and prints it.
std::vector<std::uint64_t> alias_of(const AliasSampler& s) {
  const std::span<const std::uint64_t> a = s.alias_table();
  return {a.begin(), a.end()};
}

/// A sampler's coin thresholds as a vector, so gtest compares and prints
/// them.
std::vector<std::uint64_t> thresholds_of(const AliasSampler& s) {
  const std::span<const std::uint64_t> t = s.threshold_table();
  return {t.begin(), t.end()};
}

TEST(AliasSamplerCursors, MatchWorklistConstruction) {
  Rng rng(17);
  int exact_ones = 0;
  for (int c = 0; c < 480; ++c) {
    const std::size_t n = 1 + rng.next_below(64);
    std::vector<double> w;
    if (c % 2 == 0) {
      // Zeros, ties and arbitrary reals.
      const double tie = 1.0 + static_cast<double>(rng.next_below(3));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t kind = rng.next_below(4);
        w.push_back(kind == 0   ? 0.0
                    : kind == 1 ? tie
                                : rng.next_double() * 5.0);
      }
    } else {
      // Pairs (m - d, m + d) around a power-of-two mean m, plus lone m's:
      // the total is exactly n*m, so the scale 1/m is exact and every
      // weight m scales to exactly 1.0; d = m gives zeros, d = 0 ties.
      const double m = static_cast<double>(1ULL << rng.next_below(4));
      while (w.size() < n) {
        if (w.size() + 1 == n || rng.next_below(3) == 0) {
          w.push_back(m);
          continue;
        }
        const double d = static_cast<double>(
            rng.next_below(static_cast<std::uint64_t>(m) + 1));
        w.push_back(m - d);
        w.push_back(m + d);
      }
      for (std::size_t i = w.size(); i > 1; --i) {
        std::swap(w[i - 1], w[rng.next_below(i)]);
      }
      exact_ones += static_cast<int>(std::count(w.begin(), w.end(), m));
    }
    if (std::all_of(w.begin(), w.end(), [](double x) { return x == 0.0; })) {
      w.back() = 1.0;
    }
    const AliasSampler sampler(w);
    const WorklistTable ref = worklist_table(w);
    ASSERT_EQ(thresholds_of(sampler), ceil_thresholds(ref.prob))
        << "case " << c;
    ASSERT_EQ(alias_of(sampler), ref.alias) << "case " << c;
  }
  EXPECT_GT(exact_ones, 400);
}

/// One cell of the bit-identity grid: the factory's PaninskiSource against
/// DistributionSource(gen::paninski(...)) from the same stream.
void expect_bit_identical(std::size_t n, double eps, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "n=" << n << " eps=" << eps << " seed=" << seed);
  Rng factory_rng(seed);
  Rng pmf_rng(seed);
  const auto made = workloads::paninski_far_factory(n, eps)(factory_rng);
  const DistributionSource materialized(gen::paninski(n, eps, pmf_rng));
  ASSERT_EQ(factory_rng.state(), pmf_rng.state());

  const auto* source = dynamic_cast<const PaninskiSource*>(made.get());
  ASSERT_NE(source, nullptr);
  const AliasSampler direct = source->paninski().sampler();
  const AliasSampler reference(materialized.distribution().pmf_vector());
  ASSERT_EQ(thresholds_of(direct), thresholds_of(reference));
  ASSERT_EQ(alias_of(direct), alias_of(reference));
  const WorklistTable ref =
      worklist_table(materialized.distribution().pmf_vector());
  ASSERT_EQ(thresholds_of(direct), ceil_thresholds(ref.prob));
  ASSERT_EQ(alias_of(direct), ref.alias);

  Rng draw_a(derive_seed(seed, 1));
  Rng draw_b(derive_seed(seed, 1));
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  made->sample_many(draw_a, 20000, a);
  materialized.sample_many(draw_b, 20000, b);
  ASSERT_EQ(a, b);
  ASSERT_EQ(draw_a.state(), draw_b.state());
}

TEST(PaninskiSource, BitIdenticalToMaterializedPmf) {
  const std::size_t sizes[] = {2, 4, 10, 256, 1000, 4096, 4098};
  for (const std::size_t n : sizes) {
    for (const double eps :
         {1e-17, 1e-15, 0.01, 0.25, 0.3, 1.0 / 3.0, 0.5, 0.999, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        expect_bit_identical(n, eps, seed);
      }
    }
  }
}

TEST(Paninski, RandomMatchesPerPairSignLoop) {
  const std::size_t sizes[] = {2, 10, 128, 130, 1000};
  for (const std::size_t n : sizes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      Rng loop_rng(seed);
      const Paninski p = Paninski::random(n, 0.3, rng);
      std::vector<int> signs(n / 2);
      for (auto& s : signs) s = loop_rng.next_sign();
      EXPECT_EQ(rng.state(), loop_rng.state());
      for (std::size_t i = 0; i < n / 2; ++i) {
        ASSERT_EQ(minus_sign(p, i), signs[i] == -1) << "pair " << i;
      }
      // Unused high bits of the last word stay clear.
      const std::size_t used = (n / 2) % 64;
      if (used != 0) {
        EXPECT_EQ(p.words().back() >> used, 0U);
      }

      EXPECT_EQ(bits_of(p.to_distribution().pmf_vector()),
                bits_of(gen::paninski_with_signs(n, 0.3, signs).pmf_vector()));
      // The pmf arithmetic gen::paninski_with_signs has always used.
      const double base = 1.0 / static_cast<double>(n);
      std::vector<double> pmf(n);
      for (std::size_t i = 0; i < n / 2; ++i) {
        const double d = static_cast<double>(signs[i]) * 0.3 * base;
        pmf[2 * i] = base + d;
        pmf[2 * i + 1] = base - d;
      }
      EXPECT_EQ(bits_of(p.to_distribution().pmf_vector()),
                bits_of(DiscreteDistribution(pmf).pmf_vector()));
    }
  }
}

TEST(PaninskiPmfSum, ExactShortcutMatchesOrderedLoop) {
  // The two pmf levels as Paninski computes them.
  const auto levels = [](std::size_t n, double eps) {
    const double base = 1.0 / static_cast<double>(n);
    const double d = eps * base;
    return std::pair(base + d, base - d);
  };
  // The sum a loop over the pmf takes: per pair, the first member's mass,
  // then the second's; a set entry puts the light member first.
  const auto ordered = [](const std::vector<bool>& light_first, double hi,
                          double lo) {
    double total = 0.0;
    for (const bool b : light_first) {
      total += b ? lo : hi;
      total += b ? hi : lo;
    }
    return total;
  };
  const std::size_t sizes[] = {2, 6, 256, 1000, 1024, 4096, 1U << 20};
  const double epss[] = {0.0, 1.0 / 16, 0.25, 0.3, 0.5, 0.75, 1.0, 1e-9};
  int fired = 0;
  for (const std::size_t n : sizes) {
    const std::size_t pairs = n / 2;
    std::vector<std::vector<bool>> patterns = {
        std::vector<bool>(pairs, false), std::vector<bool>(pairs, true),
        std::vector<bool>(pairs, false)};
    for (std::size_t i = 0; i < pairs; i += 2) patterns[2][i] = true;
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(seed);
      std::vector<bool> random(pairs);
      for (std::size_t i = 0; i < pairs; ++i) random[i] = rng.next_sign() < 0;
      patterns.push_back(std::move(random));
    }
    for (const double eps : epss) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " eps=" << eps);
      const auto [hi, lo] = levels(n, eps);
      const std::optional<double> exact = exact_pair_sum(pairs, hi, lo);
      // It fires on power-of-two domains at eps of few bits, and must not
      // where the levels' low bits make a partial sum round (n not a power
      // of two; eps = 0.3 or 1e-9 beyond one pair, whose one sum hi + lo
      // = 2/n may still be exact).
      const bool few_bits = eps != 0.3 && eps != 1e-9;
      if (std::has_single_bit(n) && few_bits) {
        ASSERT_TRUE(exact.has_value());
      } else if (pairs > 1) {
        ASSERT_FALSE(exact.has_value());
      }
      if (!exact) continue;
      ++fired;
      for (const std::vector<bool>& pattern : patterns) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(*exact),
                  std::bit_cast<std::uint64_t>(ordered(pattern, hi, lo)));
      }
    }
  }
  EXPECT_GE(fired, 30);
}

TEST(PaninskiPmfSum, ExactShortcutBoundary) {
  // Every partial sum must fit 2^53 units of the levels' common low bit.
  constexpr std::uint64_t k52 = std::uint64_t{1} << 52;
  EXPECT_EQ(exact_pair_sum(k52, 1.0, 1.0), 0x1p53);
  EXPECT_EQ(exact_pair_sum(k52 + 1, 1.0, 1.0), std::nullopt);
  EXPECT_EQ(exact_pair_sum(2 * k52, 1.0, 0.0), 0x1p53);
  EXPECT_EQ(exact_pair_sum(2 * k52 + 1, 1.0, 0.0), std::nullopt);
  EXPECT_EQ(exact_pair_sum(std::uint64_t{1} << 62, 1.0, 1.0), std::nullopt);
  // 1 + 2^-60 rounds, so one pair already needs the loop.
  EXPECT_EQ(exact_pair_sum(1, 1.0, 0x1p-60), std::nullopt);
  EXPECT_EQ(exact_pair_sum(1, 1.0, 0x1p-52), 1.0 + 0x1p-52);
  // Levels outside hi > 0, lo >= 0 or not finite are left to the loop.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(exact_pair_sum(1, 0.0, 0.0), std::nullopt);
  EXPECT_EQ(exact_pair_sum(1, 1.0, -1.0), std::nullopt);
  EXPECT_EQ(exact_pair_sum(1, kInf, 1.0), std::nullopt);
  EXPECT_EQ(exact_pair_sum(1, 1.0, kInf), std::nullopt);
  EXPECT_EQ(exact_pair_sum(1, std::nan(""), 1.0), std::nullopt);
}

TEST(Paninski, ExactlyEpsFarWithHeavyMemberBySign) {
  Rng rng(5);
  const Paninski p = Paninski::random(64, 0.4, rng);
  EXPECT_EQ(p.domain_size(), 64U);
  EXPECT_EQ(p.l1_from_uniform(), 0.4);
  const auto d = p.to_distribution();
  EXPECT_NEAR(d.l1_from_uniform(), 0.4, 1e-12);
  for (std::size_t i = 0; i < 32; ++i) {
    const std::size_t heavy = minus_sign(p, i) ? 2 * i + 1 : 2 * i;
    EXPECT_NEAR(d.pmf(heavy), 1.4 / 64.0, 1e-15);
  }
}

TEST(Paninski, InvalidArgumentsThrow) {
  Rng rng(6);
  EXPECT_THROW((void)Paninski::random(0, 0.5, rng), InvalidArgument);
  EXPECT_THROW((void)Paninski::random(7, 0.5, rng), InvalidArgument);
  EXPECT_THROW((void)Paninski::random(8, -0.1, rng), InvalidArgument);
  EXPECT_THROW((void)Paninski::random(8, 1.5, rng), InvalidArgument);
  EXPECT_THROW((void)Paninski::from_signs(8, 0.5, {1, -1}), InvalidArgument);
  EXPECT_THROW((void)Paninski::from_signs(4, 0.5, {1, 0}), InvalidArgument);
  const std::uint64_t word = 0;
  EXPECT_THROW(AliasSampler({}, 1, 1.5, 0.5), InvalidArgument);
  EXPECT_THROW(AliasSampler({&word, 1}, 0, 1.5, 0.5), InvalidArgument);
  EXPECT_THROW(AliasSampler({&word, 1}, 65, 1.5, 0.5), InvalidArgument);
  EXPECT_THROW(AliasSampler({&word, 1}, 1, 0.5, 1.5), InvalidArgument);
}

}  // namespace
}  // namespace duti
