// Collision statistics — the engine of every uniformity tester in this
// library, and the quantity the paper's Fourier analysis shows is the *only*
// usable signal ("a tester only gains information by counting collisions",
// Section 3).
//
// For q samples from mu, the pair-collision count C = #{i<j : s_i = s_j}
// has E[C] = C(q,2) * ||mu||_2^2. Uniform gives ||mu||_2^2 = 1/n; any mu
// that is eps-far from uniform in l1 has ||mu||_2^2 >= (1 + eps^2)/n
// (Cauchy-Schwarz), so the collision rate separates the two cases.
//
// The sample statistics themselves, collision_pairs(samples, domain) and
// distinct_values(samples, domain), are defined once, beside the protocol
// plane that counts with them (sim/protocol_batch.hpp, re-exported here):
// the sim layer sits below testers, and a centralized tester's count on
// one clique is the same statistic as a player's on its own.
#pragma once

#include <cstdint>

#include "dist/discrete_distribution.hpp"
#include "sim/protocol_batch.hpp"

namespace duti {

/// ||mu||_2^2 = sum_i mu(i)^2, the per-pair collision probability.
[[nodiscard]] double l2_norm_squared(const DiscreteDistribution& dist);

/// Expected pair-collision count for q uniform samples on domain n.
[[nodiscard]] double expected_collision_pairs_uniform(double n, unsigned q);

/// The one-bit collision vote of Fischer-Meir-Oshman [7], the rule every
/// distributed tester's players follow: reject iff the exact pair count,
/// converted to double, strictly exceeds the threshold t. Every voter
/// (executor votes, calibration, message maps, benches and examples) asks
/// this type, so the compare is written once.
class CollisionVote {
 public:
  explicit CollisionVote(double threshold) noexcept : t_(threshold) {}

  /// The vote at the uniform mean: t = C(q,2)/n.
  [[nodiscard]] static CollisionVote at_uniform_mean(std::uint64_t n,
                                                     unsigned q) {
    return CollisionVote(
        expected_collision_pairs_uniform(static_cast<double>(n), q));
  }

  [[nodiscard]] double threshold() const noexcept { return t_; }

  /// true = the player rejects (raises an alarm).
  [[nodiscard]] bool rejects(std::uint64_t pairs) const noexcept {
    return static_cast<double>(pairs) > t_;
  }

  /// The count above which the vote is decided (sim/protocol_batch.hpp):
  /// any count above floor(t) rejects. Counts from 2^53 up no longer
  /// convert to double exactly, so a threshold there decides nothing early
  /// (kNoPairBound).
  [[nodiscard]] std::uint64_t decided_above() const noexcept;

 private:
  double t_;
};

}  // namespace duti
