// Confidence intervals and concentration helpers for empirical success-rate
// estimation. The experiment harness decides "does this tester succeed with
// probability >= 2/3?" from finitely many trials; these helpers quantify the
// uncertainty in that decision.
#pragma once

#include <cstdint>

namespace duti {

/// A two-sided interval [lo, hi] for an unknown probability.
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};

/// Wilson score interval for a binomial proportion with `successes` out of
/// `trials`, at confidence level given by the normal quantile `z`
/// (z = 1.96 for ~95%, z = 2.58 for ~99%). Well-behaved near 0 and 1,
/// unlike the Wald interval.
[[nodiscard]] Interval wilson_interval(std::uint64_t successes,
                                       std::uint64_t trials,
                                       double z = 1.96);

/// Hoeffding bound: number of trials sufficient to estimate a probability
/// within +-margin with failure probability at most delta.
[[nodiscard]] std::uint64_t hoeffding_trials(double margin, double delta);

/// Standard normal quantile Phi^{-1}(p) for p in (0, 1) (Acklam's rational
/// approximation, ~1e-9 absolute error). normal_quantile(0.975) ~ 1.96.
[[nodiscard]] double normal_quantile(double p);

/// The z multiplier that makes `checks` two-sided interval evaluations
/// jointly valid with total failure probability at most `delta` (Bonferroni:
/// each check runs at level delta/checks). This is what lets an adaptive
/// probe peek at its Wilson intervals after every batch without the repeated
/// looks eroding the certificate (DESIGN.md section 8).
[[nodiscard]] double union_bound_z(double delta, std::uint64_t checks);

/// Running binomial tally with convenience accessors.
class SuccessCounter {
 public:
  void record(bool success) noexcept {
    ++trials_;
    if (success) ++successes_;
  }

  [[nodiscard]] std::uint64_t trials() const noexcept { return trials_; }
  [[nodiscard]] double rate() const noexcept {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(successes_) /
                              static_cast<double>(trials_);
  }

 private:
  std::uint64_t successes_ = 0;
  std::uint64_t trials_ = 0;
};

}  // namespace duti
