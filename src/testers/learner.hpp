// Distributed learning of an unknown distribution (Theorem 1.4 and the
// learning results of [1]).
//
//  * StochasticRoundingLearner — q samples and ONE bit per node: node j is
//    responsible for element i = j mod n, and sends a Bernoulli bit whose
//    expectation is its empirical frequency of i. Unbiased but WASTEFUL:
//    the bit's variance is mu_i(1-mu_i) regardless of q, so extra samples
//    buy nothing (k* ~ n^2/delta^2, flat in q). examples/learning_demo
//    runs it; bench E4 measures only the presence-bit learner below.
//
//  * PresenceBitLearner — q samples and ONE bit per node: the node sends
//    1[count_i >= 1] and the referee inverts mu_hat = 1 - (1 - p_hat)^{1/q}.
//    In the sparse regime q mu << 1 the inverted estimator's variance is
//    ~ mu/q per node — a full factor q better — so k* ~ n^2/(q delta^2).
//    This is the curve bench E4 compares against the paper's
//    k = Omega(n^2/q^2) lower bound (the remaining factor-q gap is open).
#pragma once

#include <cstdint>

#include "dist/discrete_distribution.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

class StochasticRoundingLearner {
 public:
  StochasticRoundingLearner(std::uint64_t n, std::uint64_t k, unsigned q);

  /// Run the protocol and return the learned (normalized) distribution.
  [[nodiscard]] DiscreteDistribution learn(const SampleSource& source,
                                           Rng& rng) const;

  /// Convenience: learn and return the l1 error against the truth.
  [[nodiscard]] double learn_l1_error(const DiscreteDistribution& truth,
                                      Rng& rng) const;


 private:
  std::uint64_t n_;
  std::uint64_t k_;
  unsigned q_;
};

class PresenceBitLearner {
 public:
  PresenceBitLearner(std::uint64_t n, std::uint64_t k, unsigned q);

  [[nodiscard]] DiscreteDistribution learn(const SampleSource& source,
                                           Rng& rng) const;
  [[nodiscard]] double learn_l1_error(const DiscreteDistribution& truth,
                                      Rng& rng) const;

  /// Invert the presence probability: mu = 1 - (1 - p)^{1/q}, clamped for
  /// p at the boundary (exposed for tests).
  [[nodiscard]] static double invert_presence(double p_hat, unsigned q);


 private:
  std::uint64_t n_;
  std::uint64_t k_;
  unsigned q_;
};

}  // namespace duti
