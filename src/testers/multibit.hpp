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

#include "sim/protocol.hpp"
#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

class MultibitSumTester {
 public:
  struct Config {
    std::uint64_t n = 0;
    unsigned k = 0;
    unsigned q = 0;
    double eps = 0.0;
    unsigned r = 1;  // message bits per player, in [1, 24]
  };

  /// Calibrates the referee threshold on uniform inputs (see
  /// DistributedThresholdTester for the calibration rationale; memoized
  /// through CalibMemo the same way).
  MultibitSumTester(Config cfg, Rng& calib_rng,
                    std::size_t calib_trials = 0 /* auto */);

  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  [[nodiscard]] double sum_threshold() const noexcept { return sum_t_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  /// The centered saturating r-bit encoding of a collision count:
  /// clamp(pairs - offset, 0, 2^r - 1).
  [[nodiscard]] static std::uint32_t encode_count(std::uint64_t pairs,
                                                  unsigned r,
                                                  std::uint64_t offset);

  /// The window offset for this tester's (n, q, r).
  [[nodiscard]] std::uint64_t window_offset() const noexcept {
    return offset_;
  }

  /// Legacy comparator path (bit-identity tests run() against it).
  [[nodiscard]] SimultaneousProtocol make_protocol() const;

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  Config cfg_;
  std::uint64_t offset_ = 0;
  double sum_t_ = 0.0;
  std::optional<ProtocolBatchExecutor> exec_;
};

}  // namespace duti
