#include "testers/learner.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace duti {

namespace {
/// Clamp negatives to zero and renormalize; fall back to uniform if the
/// estimate degenerates to all-zero.
DiscreteDistribution normalize_estimate(std::vector<double> est) {
  double total = 0.0;
  for (double& v : est) {
    v = std::max(0.0, v);
    total += v;
  }
  if (total <= 0.0) {
    return DiscreteDistribution::uniform(est.size());
  }
  for (double& v : est) v /= total;
  return DiscreteDistribution(std::move(est));
}
}  // namespace

StochasticRoundingLearner::StochasticRoundingLearner(std::uint64_t n,
                                                     std::uint64_t k,
                                                     unsigned q)
    : n_(n), k_(k), q_(q) {
  require(n >= 2, "StochasticRoundingLearner: n must be >= 2");
  require(k >= n, "StochasticRoundingLearner: need k >= n (one node per "
                  "element at minimum)");
  require(q >= 1, "StochasticRoundingLearner: q must be >= 1");
}

DiscreteDistribution StochasticRoundingLearner::learn(
    const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == n_,
          "StochasticRoundingLearner: domain size mismatch");
  std::vector<double> bit_sums(n_, 0.0);
  std::vector<std::uint64_t> node_counts(n_, 0);
  std::vector<std::uint64_t> samples;
  for (std::uint64_t j = 0; j < k_; ++j) {
    const std::uint64_t element = j % n_;
    Rng node_rng = make_rng(rng(), j);
    source.sample_many(node_rng, q_, samples);
    std::uint64_t count = 0;
    for (auto s : samples) {
      if (s == element) ++count;
    }
    // 1-bit message: Bernoulli(count/q), unbiased for mu(element).
    const double p = static_cast<double>(count) / static_cast<double>(q_);
    bit_sums[element] += node_rng.next_bernoulli(p) ? 1.0 : 0.0;
    ++node_counts[element];
  }
  std::vector<double> est(n_, 0.0);
  for (std::uint64_t i = 0; i < n_; ++i) {
    if (node_counts[i] > 0) {
      est[i] = bit_sums[i] / static_cast<double>(node_counts[i]);
    }
  }
  return normalize_estimate(std::move(est));
}

double StochasticRoundingLearner::learn_l1_error(
    const DiscreteDistribution& truth, Rng& rng) const {
  const DistributionSource source(truth);
  const auto learned = learn(source, rng);
  return learned.l1_distance(truth);
}

PresenceBitLearner::PresenceBitLearner(std::uint64_t n, std::uint64_t k,
                                       unsigned q)
    : n_(n), k_(k), q_(q) {
  require(n >= 2, "PresenceBitLearner: n must be >= 2");
  require(k >= n, "PresenceBitLearner: need k >= n (one node per element "
                  "at minimum)");
  require(q >= 1, "PresenceBitLearner: q must be >= 1");
}

double PresenceBitLearner::invert_presence(double p_hat, unsigned q) {
  require(p_hat >= 0.0 && p_hat <= 1.0,
          "invert_presence: p_hat must be in [0,1]");
  require(q >= 1, "invert_presence: q must be >= 1");
  // mu = 1 - (1 - p)^{1/q}; at p = 1 every sample batch hit, so the best
  // estimate within range is 1.
  if (p_hat >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - p_hat, 1.0 / static_cast<double>(q));
}

DiscreteDistribution PresenceBitLearner::learn(const SampleSource& source,
                                               Rng& rng) const {
  require(source.domain_size() == n_,
          "PresenceBitLearner: domain size mismatch");
  std::vector<double> presence_sums(n_, 0.0);
  std::vector<std::uint64_t> node_counts(n_, 0);
  std::vector<std::uint64_t> samples;
  for (std::uint64_t j = 0; j < k_; ++j) {
    const std::uint64_t element = j % n_;
    Rng node_rng = make_rng(rng(), j);
    source.sample_many(node_rng, q_, samples);
    bool present = false;
    for (auto s : samples) {
      if (s == element) {
        present = true;
        break;
      }
    }
    presence_sums[element] += present ? 1.0 : 0.0;
    ++node_counts[element];
  }
  std::vector<double> est(n_, 0.0);
  for (std::uint64_t i = 0; i < n_; ++i) {
    if (node_counts[i] > 0) {
      const double p_hat =
          presence_sums[i] / static_cast<double>(node_counts[i]);
      est[i] = invert_presence(p_hat, q_);
    }
  }
  return normalize_estimate(std::move(est));
}

double PresenceBitLearner::learn_l1_error(const DiscreteDistribution& truth,
                                          Rng& rng) const {
  const DistributionSource source(truth);
  const auto learned = learn(source, rng);
  return learned.l1_distance(truth);
}

}  // namespace duti
