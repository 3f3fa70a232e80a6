#include "testers/collision.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

std::uint64_t collision_pairs_from_counts(
    std::span<const std::uint64_t> counts) {
  std::uint64_t pairs = 0;
  for (const std::uint64_t c : counts) pairs += c * (c - 1) / 2;
  return pairs;
}

std::uint64_t distinct_values_from_counts(
    std::span<const std::uint64_t> counts) {
  std::uint64_t distinct = 0;
  for (const std::uint64_t c : counts) distinct += c > 0 ? 1 : 0;
  return distinct;
}

double l2_norm_squared(const DiscreteDistribution& dist) {
  double acc = 0.0;
  for (double p : dist.pmf_vector()) acc += p * p;
  return acc;
}

double expected_collision_pairs(const DiscreteDistribution& dist,
                                unsigned q) {
  require(q >= 2, "expected_collision_pairs: q must be >= 2");
  const double pairs = 0.5 * static_cast<double>(q) *
                       (static_cast<double>(q) - 1.0);
  return pairs * l2_norm_squared(dist);
}

double expected_collision_pairs_uniform(double n, unsigned q) {
  require(n >= 1.0, "expected_collision_pairs_uniform: n must be >= 1");
  require(q >= 2, "expected_collision_pairs_uniform: q must be >= 2");
  const double pairs = 0.5 * static_cast<double>(q) *
                       (static_cast<double>(q) - 1.0);
  return pairs / n;
}

std::uint64_t collision_vote_decided_above(double local_threshold) {
  // Below 2^53 every count above floor(t) converts to a double above t.
  constexpr double kExactCounts = 9007199254740992.0;  // 2^53
  if (!(local_threshold < kExactCounts)) return kNoPairBound;
  if (local_threshold < 0.0) return 0;
  return static_cast<std::uint64_t>(std::floor(local_threshold));
}

double far_l2_lower_bound(double n, double eps) {
  require(n >= 1.0, "far_l2_lower_bound: n must be >= 1");
  require(eps >= 0.0 && eps <= 2.0, "far_l2_lower_bound: eps in [0,2]");
  return (1.0 + eps * eps) / n;
}

double collision_variance_uniform(double n, unsigned q) {
  require(n >= 1.0, "collision_variance_uniform: n must be >= 1");
  require(q >= 2, "collision_variance_uniform: q must be >= 2");
  // C = sum over pairs of indicator X_ij with E[X] = 1/n. Under uniform,
  // pairs sharing an index are uncorrelated: P(s_i=s_j and s_i=s_k) = 1/n^2
  // = E[X_ij] E[X_ik]. Hence Var[C] = C(q,2) * (1/n)(1 - 1/n) exactly.
  const double pairs = 0.5 * static_cast<double>(q) *
                       (static_cast<double>(q) - 1.0);
  return pairs * (1.0 / n) * (1.0 - 1.0 / n);
}

}  // namespace duti
