#include "testers/centralized.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

/// The chi^2 statistic from the pair count C of q samples on n elements.
/// With m = q/n, sum_a ((c_a - m)^2 - c_a)/m = (sum_a c_a^2 - q)/m - q, and
/// sum_a c_a^2 - q = 2C, so the statistic is 2nC/q - q.
double chi_squared_from_pairs(std::uint64_t n, unsigned q,
                              std::uint64_t pairs) {
  const double qd = static_cast<double>(q);
  return 2.0 * static_cast<double>(n) * static_cast<double>(pairs) / qd - qd;
}

}  // namespace

CentralizedCollisionTester::CentralizedCollisionTester(std::uint64_t n,
                                                       double eps, unsigned q)
    : n_(n), eps_(eps), q_(q) {
  check_tester_config("CentralizedCollisionTester", {n, 1, q, eps});
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
  return static_cast<double>(source.count_pairs(rng, q_, kNoPairBound)) <
         threshold_;
}

PaninskiCoincidenceTester::PaninskiCoincidenceTester(std::uint64_t n,
                                                     double eps, unsigned q)
    : n_(n), eps_(eps), q_(q) {
  check_tester_config("PaninskiCoincidenceTester", {n, 1, q, eps});
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
  check_tester_config("ChiSquaredTester", {n, 1, q, eps});
  // E[statistic] = q n ||mu - U||_2^2 - n ||mu||_2^2: equals -1 under
  // uniform, and at least q eps^2 - 1 - eps^2 for eps-far mu (via
  // ||mu - U||_2^2 >= eps^2/n). Accept below the midpoint.
  const double qd = static_cast<double>(q);
  threshold_ = 0.5 * qd * eps * eps - 1.0;
}

double ChiSquaredTester::statistic(
    std::span<const std::uint64_t> samples) const {
  require(samples.size() == q_, "ChiSquaredTester: wrong sample count");
  return chi_squared_from_pairs(n_, q_, collision_pairs(samples, n_));
}

bool ChiSquaredTester::accept(std::span<const std::uint64_t> samples) const {
  return statistic(samples) < threshold_;
}

bool ChiSquaredTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == n_,
          "ChiSquaredTester: domain size mismatch");
  return chi_squared_from_pairs(n_, q_,
                                source.count_pairs(rng, q_, kNoPairBound)) <
         threshold_;
}

}  // namespace duti
