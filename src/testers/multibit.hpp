// The r-bit-message tester for Theorem 6.4's regime: each player sends its
// local collision count quantized to r bits, and the referee thresholds
// the *sum*. The quantizer is a saturating window CENTERED at the uniform
// expectation lambda = C(q,2)/n (offset = max(0, ceil(lambda) - 2^{r-1})):
// a plain saturating counter would pin at its maximum on BOTH hypotheses
// once lambda >> 2^r and destroy the signal, making success non-monotone
// in q. With the centered window, r = 1 degenerates to the classic
// "collision count above its uniform mean" vote, and growing r retains
// more and more of the local statistic — the bench measures how many
// samples that saves and compares against Theorem 6.4's 2^{-Theta(r)}.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "testers/distributed.hpp"
#include "util/rng.hpp"

namespace duti {

class MultibitSumTester {
 public:
  /// r message bits per player, in [1, 24]. Calibrates the referee
  /// threshold on uniform inputs (see DistributedThresholdTester for the
  /// calibration rationale; memoized through CalibMemo the same way).
  MultibitSumTester(DistributedTesterConfig cfg, unsigned r, Rng& calib_rng,
                    std::size_t calib_trials = 0 /* auto */);

  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  [[nodiscard]] double sum_threshold() const noexcept { return sum_t_; }

  /// The centered saturating r-bit encoding of a collision count:
  /// clamp(pairs - offset, 0, 2^r - 1).
  [[nodiscard]] static std::uint32_t encode_count(std::uint64_t pairs,
                                                  unsigned r,
                                                  std::uint64_t offset);

  /// The offset of the r-bit window centered at the uniform mean
  /// lambda = C(q,2)/n on a domain of n: max(0, ceil(lambda) - 2^{r-1}).
  /// The tester and its dense message map (testers/message_maps.hpp) both
  /// take it from here.
  [[nodiscard]] static std::uint64_t window_offset(std::uint64_t n,
                                                   unsigned q, unsigned r);

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  DistributedTesterConfig cfg_;
  double sum_t_ = 0.0;
  std::optional<ProtocolBatchExecutor> exec_;
};

}  // namespace duti
