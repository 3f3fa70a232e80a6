#include "testers/collision.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

double l2_norm_squared(const DiscreteDistribution& dist) {
  double acc = 0.0;
  for (double p : dist.pmf_vector()) acc += p * p;
  return acc;
}

double expected_collision_pairs_uniform(double n, unsigned q) {
  require(n >= 1.0, "expected_collision_pairs_uniform: n must be >= 1");
  require(q >= 2, "expected_collision_pairs_uniform: q must be >= 2");
  const double pairs = 0.5 * static_cast<double>(q) *
                       (static_cast<double>(q) - 1.0);
  return pairs / n;
}

std::uint64_t CollisionVote::decided_above() const noexcept {
  // Below 2^53 every count above floor(t) converts to a double above t.
  constexpr double kExactCounts = 9007199254740992.0;  // 2^53
  if (!(t_ < kExactCounts)) return kNoPairBound;
  if (t_ < 0.0) return 0;
  return static_cast<std::uint64_t>(std::floor(t_));
}

}  // namespace duti
