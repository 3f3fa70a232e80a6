// The asymmetric-rate tester of Section 6.2, promoted out of bench E10 so
// it runs on the batched protocol plane: player j samples at rate T_j for
// tau time units (q_j = max(2, ceil(tau * T_j))) and votes on its local
// collision count against the per-player uniform expectation; the referee
// rejects when the rejecting-player total reaches one standard deviation
// above its calibrated uniform mean.
//
// The paper's claim (bench E10 measures it): the optimal time budget is
// tau = Theta(sqrt(n) / (eps^2 ||T||_2)) — only the l2 norm of the rate
// vector matters, not its shape.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

class AsymmetricRateTester {
 public:
  /// Calibrates per-player uniform rejection probabilities, sequentially
  /// (player 0 first) from the single `calib_rng` stream with
  /// `trials_per_player` simulations each — memoized like the other
  /// calibrated testers. Throws InvalidArgument naming the player when
  /// ceil(tau * rate) exceeds the unsigned sample-count range.
  AsymmetricRateTester(std::uint64_t n, std::vector<double> rates, double tau,
                       Rng& calib_rng, std::size_t trials_per_player = 600);

  /// One protocol execution on the batched plane; true = accept.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  [[nodiscard]] const std::vector<unsigned>& qs() const noexcept {
    return qs_;
  }
  /// Calibrated P(player j rejects | uniform).
  [[nodiscard]] const std::vector<double>& p_reject_uniform() const noexcept {
    return p_;
  }
  /// Referee: reject iff the number of rejecting players reaches this.
  [[nodiscard]] double referee_threshold() const noexcept {
    return referee_t_;
  }

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  std::uint64_t n_;
  std::vector<unsigned> qs_;
  std::vector<double> p_;
  double referee_t_ = 1.0;
  // ceil(referee_t_): for an integer count, rejects < reject_bar_ is
  // exactly rejects < referee_t_.
  std::uint64_t reject_bar_ = 1;
  std::optional<ProtocolBatchExecutor> exec_;
};

}  // namespace duti
