#include "testers/distributed.hpp"

#include <cmath>
#include <span>
#include <string>

#include "testers/calibration.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

// The executor's vote: the player's bit is 1 (accept) unless its collision
// vote rejects.
ProtocolBatchExecutor::Vote executor_vote(CollisionVote vote) {
  return [vote](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
    return Message::bit(!vote.rejects(pairs));
  };
}

// Per-player false-alarm budget 1/(3k): with lambda = C(q,2)/n, a
// Poisson-style upper tail P(C >= lambda + t) <= exp(-t^2/(2(lambda+t/3)))
// gives t = sqrt(2 lambda L) + L for L = ln(3k). No calibration needed;
// the bound is conservative, which only helps the uniform side.
CollisionVote and_vote(const DistributedTesterConfig& cfg) {
  const double lambda =
      expected_collision_pairs_uniform(static_cast<double>(cfg.n), cfg.q);
  const double big_l = std::log(3.0 * static_cast<double>(cfg.k));
  return CollisionVote(lambda + std::sqrt(2.0 * lambda * big_l) + big_l);
}

}  // namespace

DistributedTesterConfig check_tester_config(
    std::string_view tester, const DistributedTesterConfig& cfg) {
  // The message is built only on failure: testers are built per probe.
  const auto check = [tester](bool ok, const char* what) {
    if (!ok) throw InvalidArgument(std::string(tester) + ": " + what);
  };
  check(cfg.n >= 2, "n must be >= 2");
  check(cfg.k >= 1, "k must be >= 1");
  check(cfg.q >= 2, "q must be >= 2 (collisions)");
  check(cfg.eps > 0.0 && cfg.eps <= 1.0, "eps in (0,1]");
  return cfg;
}

DistributedThresholdTester::DistributedThresholdTester(
    DistributedTesterConfig cfg, Rng& calib_rng, std::size_t calib_trials)
    : cfg_(check_tester_config("DistributedTester", cfg)),
      // Local rule: reject iff the collision count exceeds its uniform mean.
      vote_(CollisionVote::at_uniform_mean(cfg_.n, cfg_.q)) {
  // p_u = P(player rejects | uniform), calibrated by simulating one player
  // (testers differing only in k share the calibration when their trial
  // counts resolve alike). The referee rejects iff at least T players
  // reject, with T one standard deviation above the uniform mean
  // (uniform-side error ~ 16% < 1/3).
  p_u_ = uniform_reject_rates(cfg_.n, std::span(&cfg_.q, 1),
                              calibration_trials(calib_trials, cfg_.k),
                              calib_rng)[0];
  referee_t_ = calibrated_referee_threshold(cfg_.k, p_u_);

  exec_.emplace(cfg_.k, cfg_.q, executor_vote(vote_), vote_.decided_above());
}

bool DistributedThresholdTester::run(const SampleSource& source,
                                     Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "DistributedThresholdTester: domain size mismatch");
  return exec_->run(source, rng, referee_t_);
}

DistributedAndTester::DistributedAndTester(DistributedTesterConfig cfg)
    : cfg_(check_tester_config("DistributedTester", cfg)),
      vote_(and_vote(cfg_)) {
  exec_.emplace(cfg_.k, cfg_.q, executor_vote(vote_), vote_.decided_above());
}

bool DistributedAndTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "DistributedAndTester: domain size mismatch");
  // The AND rule: one rejecting player rejects.
  return exec_->run(source, rng, 1);
}

}  // namespace duti
