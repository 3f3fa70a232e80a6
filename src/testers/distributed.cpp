#include "testers/distributed.hpp"

#include <cmath>
#include <span>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

void check_config(const DistributedTesterConfig& cfg) {
  require(cfg.n >= 2, "DistributedTester: n must be >= 2");
  require(cfg.k >= 1, "DistributedTester: k must be >= 1");
  require(cfg.q >= 2, "DistributedTester: q must be >= 2 (collisions)");
  require(cfg.eps > 0.0 && cfg.eps <= 1.0, "DistributedTester: eps in (0,1]");
}

// The collision voter: reject iff the exact pair count strictly exceeds
// the local threshold.
ProtocolBatchExecutor::Vote collision_vote(double local_threshold) {
  return [local_threshold](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
    return Message::bit(!(static_cast<double>(pairs) > local_threshold));
  };
}

}  // namespace

DistributedThresholdTester::DistributedThresholdTester(
    DistributedTesterConfig cfg, Rng& calib_rng, std::size_t calib_trials)
    : cfg_(cfg) {
  check_config(cfg_);
  // Local rule: reject iff the collision count exceeds its uniform mean.
  local_t_ = expected_collision_pairs_uniform(static_cast<double>(cfg_.n),
                                              cfg_.q);

  // p_u = P(player rejects | uniform), calibrated by simulating one player
  // (testers differing only in k share the calibration when their trial
  // counts resolve alike). The referee rejects iff at least T players
  // reject, with T one standard deviation above the uniform mean
  // (uniform-side error ~ 16% < 1/3).
  p_u_ = uniform_reject_rates(cfg_.n, std::span(&cfg_.q, 1),
                              calibration_trials(calib_trials, cfg_.k),
                              calib_rng)[0];
  referee_t_ = calibrated_referee_threshold(cfg_.k, p_u_);

  exec_.emplace(cfg_.k, cfg_.q, collision_vote(local_t_));
  rule_.emplace(DecisionRule::threshold(referee_t_));
}

bool DistributedThresholdTester::run(const SampleSource& source,
                                     Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "DistributedThresholdTester: domain size mismatch");
  return exec_->run(source, rng, *rule_);
}

DistributedAndTester::DistributedAndTester(DistributedTesterConfig cfg)
    : cfg_(cfg) {
  check_config(cfg_);
  // Per-player false-alarm budget 1/(3k): with lambda = C(q,2)/n, a
  // Poisson-style upper tail P(C >= lambda + t) <= exp(-t^2/(2(lambda+t/3)))
  // gives t = sqrt(2 lambda L) + L for L = ln(3k). No calibration needed;
  // the bound is conservative, which only helps the uniform side.
  const double lambda = expected_collision_pairs_uniform(
      static_cast<double>(cfg_.n), cfg_.q);
  const double big_l = std::log(3.0 * static_cast<double>(cfg_.k));
  local_t_ = lambda + std::sqrt(2.0 * lambda * big_l) + big_l;

  exec_.emplace(cfg_.k, cfg_.q, collision_vote(local_t_));
  rule_.emplace(DecisionRule::and_rule());
}

bool DistributedAndTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "DistributedAndTester: domain size mismatch");
  return exec_->run(source, rng, *rule_);
}

}  // namespace duti
