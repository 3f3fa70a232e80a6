#include "testers/centralized.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

CentralizedCollisionTester::CentralizedCollisionTester(std::uint64_t n,
                                                       double eps, unsigned q)
    : n_(n), eps_(eps), q_(q) {
  require(n >= 2, "CentralizedCollisionTester: n must be >= 2");
  require(eps > 0.0 && eps <= 1.0, "CentralizedCollisionTester: eps in (0,1]");
  require(q >= 2, "CentralizedCollisionTester: q must be >= 2");
  const double nd = static_cast<double>(n);
  const double mean_uniform = expected_collision_pairs_uniform(nd, q);
  // eps-far distributions have expected pairs >= mean_uniform*(1 + eps^2);
  // split the gap in half.
  threshold_ = mean_uniform * (1.0 + 0.5 * eps * eps);
}

unsigned CentralizedCollisionTester::sufficient_q(std::uint64_t n, double eps,
                                                  double c) {
  require(n >= 2, "sufficient_q: n must be >= 2");
  require(eps > 0.0 && eps <= 1.0, "sufficient_q: eps in (0,1]");
  require(c > 0.0, "sufficient_q: c must be positive");
  const double qd = c * std::sqrt(static_cast<double>(n)) / (eps * eps);
  return static_cast<unsigned>(std::ceil(std::max(2.0, qd)));
}

bool CentralizedCollisionTester::accept(
    std::span<const std::uint64_t> samples) const {
  require(samples.size() == q_, "CentralizedCollisionTester: wrong q");
  return static_cast<double>(collision_pairs(samples, n_)) < threshold_;
}

bool CentralizedCollisionTester::run(const SampleSource& source,
                                     Rng& rng) const {
  require(source.domain_size() == n_,
          "CentralizedCollisionTester: domain size mismatch");
  std::vector<std::uint64_t> samples;
  source.sample_many(rng, q_, samples);
  return accept(samples);
}

PaninskiCoincidenceTester::PaninskiCoincidenceTester(std::uint64_t n,
                                                     double eps, unsigned q)
    : n_(n), eps_(eps), q_(q) {
  require(n >= 2, "PaninskiCoincidenceTester: n must be >= 2");
  require(eps > 0.0 && eps <= 1.0, "PaninskiCoincidenceTester: eps in (0,1]");
  require(q >= 2, "PaninskiCoincidenceTester: q must be >= 2");
  const double nd = static_cast<double>(n);
  const double qd = static_cast<double>(q);
  // Exact expected distinct counts. Uniform: n (1 - (1 - 1/n)^q). For the
  // extremal eps-far family (Paninski: half the elements at (1+eps)/n,
  // half at (1-eps)/n) the expectation is the two-level analogue. Accept
  // when the observed distinct count is above the midpoint. Using the
  // exact means (rather than a collision-count approximation) keeps the
  // threshold correct in the dense regime q > sqrt(n) as well.
  const double mean_uniform = nd * (1.0 - std::pow(1.0 - 1.0 / nd, qd));
  const double mean_far =
      0.5 * nd *
      ((1.0 - std::pow(1.0 - (1.0 + eps) / nd, qd)) +
       (1.0 - std::pow(1.0 - (1.0 - eps) / nd, qd)));
  threshold_ = 0.5 * (mean_uniform + mean_far);
}

bool PaninskiCoincidenceTester::accept(
    std::span<const std::uint64_t> samples) const {
  require(samples.size() == q_, "PaninskiCoincidenceTester: wrong q");
  return static_cast<double>(distinct_values(samples, n_)) > threshold_;
}

bool PaninskiCoincidenceTester::run(const SampleSource& source,
                                    Rng& rng) const {
  require(source.domain_size() == n_,
          "PaninskiCoincidenceTester: domain size mismatch");
  std::vector<std::uint64_t> samples;
  source.sample_many(rng, q_, samples);
  return accept(samples);
}

ChiSquaredTester::ChiSquaredTester(std::uint64_t n, double eps, unsigned q)
    : n_(n), eps_(eps), q_(q) {
  require(n >= 2, "ChiSquaredTester: n must be >= 2");
  require(eps > 0.0 && eps <= 1.0, "ChiSquaredTester: eps in (0,1]");
  require(q >= 2, "ChiSquaredTester: q must be >= 2");
  // E[statistic] = q n ||mu - U||_2^2 - n ||mu||_2^2: equals -1 under
  // uniform, and at least q eps^2 - 1 - eps^2 for eps-far mu (via
  // ||mu - U||_2^2 >= eps^2/n). Accept below the midpoint.
  const double qd = static_cast<double>(q);
  threshold_ = 0.5 * qd * eps * eps - 1.0;
}

double ChiSquaredTester::statistic(
    std::span<const std::uint64_t> samples) const {
  require(samples.size() == q_, "ChiSquaredTester: wrong sample count");
  // Count occurrences; only elements that appear contribute to the
  // (c_a - m)^2 - c_a part beyond the constant baseline, so accumulate the
  // deviation from the all-zero-count baseline.
  std::vector<std::uint64_t> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  // The largest sample is the last: one compare checks the domain.
  if (sorted.back() >= n_) {
    throw InvalidArgument("ChiSquaredTester: sample " +
                          std::to_string(sorted.back()) +
                          " is outside the domain [0, " + std::to_string(n_) +
                          ")");
  }
  const double m = static_cast<double>(q_) / static_cast<double>(n_);
  // Baseline: all n elements with c_a = 0 contribute n * (m^2 - 0)/m = q.
  double stat = static_cast<double>(q_);
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t run = 1;
    while (i + run < sorted.size() && sorted[i + run] == sorted[i]) ++run;
    const double c = static_cast<double>(run);
    stat += ((c - m) * (c - m) - c) / m - m;  // replace the zero-count term
    i += run;
  }
  return stat;
}

bool ChiSquaredTester::accept(std::span<const std::uint64_t> samples) const {
  return statistic(samples) < threshold_;
}

bool ChiSquaredTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == n_,
          "ChiSquaredTester: domain size mismatch");
  std::vector<std::uint64_t> samples;
  source.sample_many(rng, q_, samples);
  return accept(samples);
}

}  // namespace duti
