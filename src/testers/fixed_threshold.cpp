#include "testers/fixed_threshold.hpp"

#include <cmath>

#include "testers/collision.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

namespace {

// Budget for P(false global reject): the uniform side's error allowance.
constexpr double kUniformRisk = 0.2;

}  // namespace

double poisson_pmf(double lambda, std::uint64_t c) {
  require(lambda >= 0.0, "poisson_pmf: lambda must be >= 0");
  if (lambda == 0.0) return c == 0 ? 1.0 : 0.0;
  // exp(c log(lambda) - lambda - log(c!))
  return std::exp(static_cast<double>(c) * std::log(lambda) - lambda -
                  log_factorial(static_cast<int>(c)));
}

double poisson_upper_tail(double lambda, std::uint64_t c) {
  require(lambda >= 0.0, "poisson_upper_tail: lambda must be >= 0");
  if (lambda == 0.0) return 0.0;
  double pmf = std::exp(-lambda);
  double cdf = pmf;
  for (std::uint64_t i = 1; i <= c; ++i) {
    pmf *= lambda / static_cast<double>(i);
    cdf += pmf;
  }
  return std::max(0.0, 1.0 - cdf);
}

std::uint64_t poisson_upper_quantile(double lambda, double tail) {
  require(lambda >= 0.0, "poisson_upper_quantile: lambda must be >= 0");
  require(tail > 0.0 && tail < 1.0, "poisson_upper_quantile: tail in (0,1)");
  double pmf = std::exp(-lambda);  // P(X = 0)
  double cdf = pmf;
  std::uint64_t c = 0;
  while (1.0 - cdf > tail) {
    ++c;
    pmf *= lambda / static_cast<double>(c);
    cdf += pmf;
    require(c < 1000000, "poisson_upper_quantile: failed to converge");
  }
  return c;
}

FixedThresholdTester::FixedThresholdTester(DistributedTesterConfig cfg,
                                           std::uint64_t t)
    : cfg_(check_tester_config("FixedThresholdTester", cfg)), t_(t) {
  require(t_ >= 1 && t_ <= cfg_.k,
          "FixedThresholdTester: T must be in [1, k]");

  // Step 1: the largest safe per-player rejection probability, by binary
  // search on the exact binomial tail.
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (binomial_upper_tail(static_cast<int>(cfg_.k), mid,
                            static_cast<int>(t_)) <= kUniformRisk) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  p_star_ = lo;

  // Step 2: randomized threshold (c, gamma) realizing p* under the Poisson
  // model of the uniform collision count.
  const double lambda = expected_collision_pairs_uniform(
      static_cast<double>(cfg_.n), cfg_.q);
  c_ = poisson_upper_quantile(lambda, p_star_);
  const double tail_above = poisson_upper_tail(lambda, c_);
  const double at_c = poisson_pmf(lambda, c_);
  gamma_ = at_c > 0.0 ? std::clamp((p_star_ - tail_above) / at_c, 0.0, 1.0)
                      : 0.0;

  // The boundary coin comes from the player's post-sampling stream, so
  // randomized votes replay bit-for-bit. It is drawn only at a count of
  // exactly c; above c the vote rejects without it, so it is decided there.
  const std::uint64_t c = c_;
  const double gamma = gamma_;
  exec_.emplace(
      cfg_.k, cfg_.q,
      [c, gamma](unsigned /*j*/, std::uint64_t pairs, Rng& rng) {
        bool reject = pairs > c;
        if (!reject && pairs == c) {
          reject = rng.next_bernoulli(gamma);
        }
        return Message::bit(!reject);
      },
      c);
}

bool FixedThresholdTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "FixedThresholdTester: domain size mismatch");
  return exec_->run(source, rng, t_);
}

}  // namespace duti
