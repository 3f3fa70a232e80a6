// The T-threshold tester family of Theorem 1.3: the referee's threshold T
// is FORCED (it is the resource under study), and the players adopt the
// most aggressive local rule that keeps the uniform side safe:
//
//   1. Find the largest per-player rejection probability p* such that
//      P(Bin(k, p*) >= T) stays below a risk budget of 0.2 (uniform-side
//      error).
//   2. Realize p* exactly with a RANDOMIZED collision threshold (c, gamma):
//      reject when the local collision count exceeds c, and with
//      probability gamma when it equals c (the Poisson model of the count
//      supplies the quantile).
//
// T = 1 recovers an AND-rule tester; large T approaches the calibrated
// threshold tester. The randomized threshold matters: without it, integer
// quantization of the local rule wastes almost the entire rejection budget
// at moderate T.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

/// Smallest integer c >= 0 with P(Poisson(lambda) > c) <= tail.
[[nodiscard]] std::uint64_t poisson_upper_quantile(double lambda,
                                                   double tail);

/// P(Poisson(lambda) > c) and P(Poisson(lambda) = c).
[[nodiscard]] double poisson_upper_tail(double lambda, std::uint64_t c);
[[nodiscard]] double poisson_pmf(double lambda, std::uint64_t c);

class FixedThresholdTester {
 public:
  struct Config {
    std::uint64_t n = 0;
    unsigned k = 0;
    unsigned q = 0;
    double eps = 0.0;
    std::uint64_t t = 1;  // referee: reject iff >= T players reject
  };

  explicit FixedThresholdTester(Config cfg);

  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  /// The per-player rejection probability the local rule is tuned to
  /// (under the Poisson model of the uniform collision count).
  [[nodiscard]] double local_reject_probability() const noexcept {
    return p_star_;
  }
  /// Deterministic part of the randomized threshold: reject when count > c.
  [[nodiscard]] std::uint64_t local_count_threshold() const noexcept {
    return c_;
  }
  /// Randomized part: rejection probability when count == c.
  [[nodiscard]] double local_boundary_gamma() const noexcept { return gamma_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  Config cfg_;
  double p_star_ = 0.0;
  std::uint64_t c_ = 0;
  double gamma_ = 0.0;
  std::optional<ProtocolBatchExecutor> exec_;
  std::optional<DecisionRule> rule_;
};

}  // namespace duti
