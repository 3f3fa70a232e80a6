// The distributed uniformity testers of Fischer-Meir-Oshman [7], which the
// paper's lower bounds address:
//
//  * DistributedThresholdTester — every player votes on its local collision
//    count against the uniform expectation; the referee rejects when at
//    least T players reject. Sample-optimal (q = O(sqrt(n/k)/eps^2)) per
//    Theorem 1.1, and the subject of Theorem 1.3's threshold lower bound.
//
//  * DistributedAndTester — the local-decision version: each player rejects
//    only on overwhelming local evidence (false-alarm probability <= 1/(3k)
//    via a Poisson tail bound), and the network rejects iff someone raises
//    an alarm. Subject of Theorem 1.2: barely cheaper than centralized.
//
// Referee thresholds are calibrated by simulating a single player on the
// uniform distribution (testers/calibration.hpp). Calibration trials
// should exceed ~30*k so the referee threshold's error stays below
// binomial noise. Calibrations are memoized; a memo hit restores the
// calibration RNG's exit state, so memoized and fresh constructions are
// indistinguishable to the caller.
//
// run() executes on the protocol plane (sim/protocol_batch.hpp): the vote
// functor and the referee's reject bar are resolved once at construction
// and trials run through reusable per-worker buffers, with zero per-trial
// heap allocations. The vote is the only definition of the player's rule:
// reject iff its exact pair count strictly exceeds local_threshold(), so a
// player stops drawing once its count passes floor(local_threshold()).
#pragma once

#include <cstdint>
#include <optional>

#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "util/rng.hpp"

namespace duti {

struct DistributedTesterConfig {
  std::uint64_t n = 0;  // universe size
  unsigned k = 0;       // number of players
  unsigned q = 0;       // samples per player (>= 2 so collisions exist)
  double eps = 0.0;     // proximity parameter
};

class DistributedThresholdTester {
 public:
  /// Calibrates the referee threshold by estimating the per-player
  /// rejection probability under uniform with `calib_trials` simulations.
  DistributedThresholdTester(DistributedTesterConfig cfg, Rng& calib_rng,
                             std::size_t calib_trials = 0 /* auto */);

  /// One full protocol execution on the batched plane; true = accept.
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  /// The referee's rule: reject iff at least referee_threshold() players
  /// reject.
  [[nodiscard]] std::uint64_t referee_threshold() const noexcept {
    return referee_t_;
  }
  [[nodiscard]] double p_reject_uniform() const noexcept { return p_u_; }
  [[nodiscard]] double local_threshold() const noexcept { return local_t_; }
  [[nodiscard]] const DistributedTesterConfig& config() const noexcept {
    return cfg_;
  }

  /// The executor run() dispatches to (exposed for benches/tests).
  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  DistributedTesterConfig cfg_;
  double local_t_ = 0.0;
  double p_u_ = 0.0;
  std::uint64_t referee_t_ = 1;
  std::optional<ProtocolBatchExecutor> exec_;
};

class DistributedAndTester {
 public:
  explicit DistributedAndTester(DistributedTesterConfig cfg);

  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  [[nodiscard]] double local_threshold() const noexcept { return local_t_; }
  [[nodiscard]] const DistributedTesterConfig& config() const noexcept {
    return cfg_;
  }

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  DistributedTesterConfig cfg_;
  double local_t_ = 0.0;
  std::optional<ProtocolBatchExecutor> exec_;
};

}  // namespace duti
