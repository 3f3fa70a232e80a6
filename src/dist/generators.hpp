// Generators for the distributions used as workloads in the experiments:
// the Paninski two-level family on a flat domain, Zipf, bimodal, Dirac
// mixtures, and random eps-perturbations. All return distributions whose
// l1 distance from uniform is known (or computable), so experiment drivers
// can assert the "far" side really is eps-far.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/discrete_distribution.hpp"
#include "dist/paninski.hpp"
#include "util/rng.hpp"

namespace duti::gen {

/// Paninski two-level construction on a flat domain {0,...,n-1} (n even):
/// pair up (2i, 2i+1) and move eps/n mass within each pair according to a
/// random sign. Exactly eps-far from uniform in l1. This is the same family
/// as NuZ but without the cube structure — used for the flat-domain testers.
/// Materializes Paninski::random(n, eps, rng) (dist/paninski.hpp), which
/// samples the same table without the pmf.
[[nodiscard]] DiscreteDistribution paninski(std::size_t n, double eps,
                                            Rng& rng);

/// Deterministic Paninski with explicit per-pair signs (size n/2, +-1).
[[nodiscard]] DiscreteDistribution paninski_with_signs(
    std::size_t n, double eps, const std::vector<int>& signs);

/// Zipf(s) distribution: pmf(i) proportional to 1/(i+1)^s.
[[nodiscard]] DiscreteDistribution zipf(std::size_t n, double s);

/// Bimodal: mass (1+delta)/n on the first half, (1-delta)/n on the second
/// (n even). l1 distance from uniform is exactly delta.
[[nodiscard]] DiscreteDistribution bimodal(std::size_t n, double delta);

/// Mixture of uniform with a point mass at `heavy`: weight w on the point.
/// l1 distance from uniform is 2*w*(1 - 1/n).
[[nodiscard]] DiscreteDistribution dirac_mixture(std::size_t n,
                                                 std::size_t heavy, double w);

/// A random distribution at l1 distance exactly eps from uniform, obtained
/// by a random direction in the simplex tangent space (rejection-free:
/// random pairing with +-eps/n transfers, like paninski but with a random
/// perfect matching of the domain).
[[nodiscard]] DiscreteDistribution random_perturbation(std::size_t n,
                                                       double eps, Rng& rng);

}  // namespace duti::gen
