// Paninski's two-level family on a flat domain {0, ..., n-1}, n even: pair
// (2i, 2i+1) moves eps/n of mass from one member to the other by a random
// sign, so every member has mass (1 +- eps)/n and the distribution is
// exactly eps-far from uniform in l1. This is the flat-domain form of the
// paper's hard distribution nu_z (Section 3; dist/nu_z.hpp), held as packed
// pair signs instead of an n-entry pmf.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dist/alias_sampler.hpp"
#include "dist/discrete_distribution.hpp"
#include "util/rng.hpp"

namespace duti {

/// pairs * (hi + lo) when adding `pairs` addends of `hi` and `pairs` of
/// `lo`, in any order, rounds no partial sum: both levels are multiples of
/// one power of two 2^g and pairs * (hi + lo) <= 2^53 * 2^g, so every
/// partial sum is an integer number of 2^g units that a double holds
/// exactly. nullopt when that does not hold, or unless both levels are
/// finite with hi > 0 and lo >= 0: the sum must then be taken in order.
[[nodiscard]] std::optional<double> exact_pair_sum(std::size_t pairs,
                                                   double hi,
                                                   double lo) noexcept;

class Paninski {
 public:
  /// Random signs: one raw draw per pair, sign +1 iff its top bit is set.
  /// Throws InvalidArgument unless n is even and >= 2 and eps is in [0, 1].
  [[nodiscard]] static Paninski random(std::size_t n, double eps, Rng& rng);

  /// Explicit signs (n/2 entries, each +-1).
  [[nodiscard]] static Paninski from_signs(std::size_t n, double eps,
                                           const std::vector<int>& signs);

  [[nodiscard]] std::size_t domain_size() const noexcept { return n_; }

  /// The packed pair signs: bit i clear means pair i's sign is +1, with the
  /// heavy mass (1+eps)/n on 2i; set means -1, heavy member 2i+1. Unused
  /// high bits are zero.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }

  /// The pmf as a DiscreteDistribution.
  [[nodiscard]] DiscreteDistribution to_distribution() const;

  /// The alias table that DiscreteDistribution(to_distribution()) samples
  /// through, bit for bit, built from the signs without a pmf.
  [[nodiscard]] AliasSampler sampler() const;

  /// Exact l1 distance from uniform; equals eps by construction.
  [[nodiscard]] double l1_from_uniform() const noexcept { return eps_; }

 private:
  Paninski(std::size_t n, double eps);

  /// Sum of the pmf in index order when the heavy members have mass `hi`
  /// and the light ones `lo`, rounding exactly as a loop over the pmf does:
  /// exact_pair_sum when it applies, else the loop itself.
  [[nodiscard]] double pmf_order_sum(double hi, double lo) const noexcept;

  std::size_t n_;
  double eps_;
  std::vector<std::uint64_t> words_;
};

}  // namespace duti
