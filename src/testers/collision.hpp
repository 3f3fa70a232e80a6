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

/// Expected pair-collision count for q samples from `dist`.
[[nodiscard]] double expected_collision_pairs(const DiscreteDistribution& dist,
                                              unsigned q);

/// Expected pair-collision count for q uniform samples on domain n.
[[nodiscard]] double expected_collision_pairs_uniform(double n, unsigned q);

/// The decided_above of the one-bit collision vote "reject iff
/// double(pairs) > local_threshold" (sim/protocol_batch.hpp): any count
/// above floor(local_threshold) rejects. Counts from 2^53 up no longer
/// convert to double exactly, so a threshold there decides nothing early
/// (kNoPairBound).
[[nodiscard]] std::uint64_t collision_vote_decided_above(
    double local_threshold);

/// Lower bound on ||mu||_2^2 for mu eps-far from uniform: (1 + eps^2)/n.
[[nodiscard]] double far_l2_lower_bound(double n, double eps);

/// Variance of the pair-collision count under the uniform distribution on
/// domain n (exact): Var[C] = C(q,2) * (1/n)(1 - 1/n)
///                          + 6*C(q,3) * (1/n^2 - 1/n^3) ... computed from
/// the standard decomposition over pair/triple overlaps.
[[nodiscard]] double collision_variance_uniform(double n, unsigned q);

}  // namespace duti
