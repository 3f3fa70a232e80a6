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
// heap allocations. Both testers' players vote with the one CollisionVote
// (testers/collision.hpp): reject iff the exact pair count strictly exceeds
// vote().threshold(), so a player stops drawing once its count passes
// vote().decided_above().
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/protocol_batch.hpp"
#include "sim/sample_source.hpp"
#include "testers/collision.hpp"
#include "util/rng.hpp"

namespace duti {

struct DistributedTesterConfig {
  std::uint64_t n = 0;  // universe size
  unsigned k = 0;       // number of players
  unsigned q = 0;       // samples per player (>= 2 so collisions exist)
  double eps = 0.0;     // proximity parameter
};

/// The one config check of every collision tester: n >= 2, k >= 1, q >= 2
/// (so pairs exist) and eps in (0, 1]. A centralized tester is one player
/// ({n, 1, q, eps}). Returns `cfg`; throws InvalidArgument whose message
/// starts with `tester`.
DistributedTesterConfig check_tester_config(
    std::string_view tester, const DistributedTesterConfig& cfg);

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
  /// Every player's vote: at the uniform mean C(q,2)/n.
  [[nodiscard]] const CollisionVote& vote() const noexcept { return vote_; }
  [[nodiscard]] const DistributedTesterConfig& config() const noexcept {
    return cfg_;
  }

  /// The executor run() dispatches to (exposed for benches/tests).
  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  DistributedTesterConfig cfg_;
  CollisionVote vote_;
  double p_u_ = 0.0;
  std::uint64_t referee_t_ = 1;
  std::optional<ProtocolBatchExecutor> exec_;
};

class DistributedAndTester {
 public:
  explicit DistributedAndTester(DistributedTesterConfig cfg);

  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const;

  /// Every player's vote: at the Poisson-tail bound above the uniform mean.
  [[nodiscard]] const CollisionVote& vote() const noexcept { return vote_; }

  [[nodiscard]] const ProtocolBatchExecutor& executor() const {
    return *exec_;
  }

 private:
  DistributedTesterConfig cfg_;
  CollisionVote vote_;
  std::optional<ProtocolBatchExecutor> exec_;
};

}  // namespace duti
