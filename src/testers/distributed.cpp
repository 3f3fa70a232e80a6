#include "testers/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/confidence.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

void check_config(const DistributedTesterConfig& cfg) {
  require(cfg.n >= 2, "DistributedTester: n must be >= 2");
  require(cfg.k >= 1, "DistributedTester: k must be >= 1");
  require(cfg.q >= 2, "DistributedTester: q must be >= 2 (collisions)");
  require(cfg.eps > 0.0 && cfg.eps <= 1.0, "DistributedTester: eps in (0,1]");
}

// The collision voter as a batched vote functor: reject iff the exact pair
// count strictly exceeds the local threshold. Same integer statistic and
// same double comparison as make_collision_voters, so the batched plane's
// votes are bit-identical to the legacy players'.
ProtocolBatchExecutor::Vote collision_vote(double local_threshold) {
  return [local_threshold](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
    return Message::bit(!(static_cast<double>(pairs) > local_threshold));
  };
}

}  // namespace

SimultaneousProtocol::PlayerFactory make_collision_voters(
    unsigned q, double local_threshold) {
  return [q, local_threshold](unsigned /*j*/) {
    return std::make_unique<CallbackPlayer>(
        [q, local_threshold](std::span<const std::uint64_t> samples,
                             Rng& /*rng*/) {
          require(samples.size() == q, "collision voter: wrong sample count");
          const bool reject =
              static_cast<double>(collision_pairs(samples)) > local_threshold;
          return Message::bit(!reject);
        },
        1U);
  };
}

DistributedThresholdTester::DistributedThresholdTester(
    DistributedTesterConfig cfg, Rng& calib_rng, std::size_t calib_trials)
    : cfg_(cfg) {
  check_config(cfg_);
  // Local rule: reject iff the collision count exceeds its uniform mean.
  local_t_ = expected_collision_pairs_uniform(static_cast<double>(cfg_.n),
                                              cfg_.q);

  // Calibrate p_u = P(player rejects | uniform) by simulating independent
  // players; the referee threshold must dominate binomial noise over k
  // players, so use at least ~30k trials.
  if (calib_trials == 0) {
    calib_trials = std::max<std::size_t>(4000, 30ULL * cfg_.k);
  }
  // Memo key: the RESOLVED trial count (so auto and explicit constructions
  // cannot alias) plus the calibration stream's entry state. k is omitted
  // on purpose — p_u is a single-player statistic, so testers differing
  // only in k (same resolved trials) legitimately share a calibration.
  std::ostringstream id;
  id << "thr|n=" << cfg_.n << "|q=" << cfg_.q << "|eps="
     << calib_pack_double(cfg_.eps) << "|t=" << calib_trials << "|rng="
     << calib_rng_tag(calib_rng);
  std::uint64_t reject_count = 0;
  if (auto payload = CalibMemo::global().lookup(id.str());
      payload && payload->size() == 6) {
    reject_count = (*payload)[0];
    // Restore the stream's exit state: the caller's RNG advances exactly
    // as if the calibration loop had run.
    calib_rng.set_state(
        Rng::State{(*payload)[2], (*payload)[3], (*payload)[4], (*payload)[5]});
  } else {
    const UniformSource uniform(cfg_.n);
    std::vector<std::uint64_t> samples;
    for (std::size_t t = 0; t < calib_trials; ++t) {
      uniform.sample_many(calib_rng, cfg_.q, samples);
      // tallied_collision_pairs == collision_pairs on every input; the
      // tally plane just skips the per-trial sort.
      if (static_cast<double>(tallied_collision_pairs(samples, cfg_.n)) >
          local_t_) {
        ++reject_count;
      }
    }
    const Rng::State end = calib_rng.state();
    CalibMemo::global().insert(
        id.str(),
        {reject_count, calib_trials, end[0], end[1], end[2], end[3]});
  }
  p_u_ = static_cast<double>(reject_count) / static_cast<double>(calib_trials);

  // Referee: reject iff #rejecting players >= T, with T one standard
  // deviation above the uniform mean (uniform-side error ~ 16% < 1/3).
  const double kd = static_cast<double>(cfg_.k);
  const double mean_u = kd * p_u_;
  const double sd_u = std::sqrt(std::max(1e-12, kd * p_u_ * (1.0 - p_u_)));
  referee_t_ = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(mean_u + sd_u + 1e-9)));

  exec_.emplace(cfg_.k, cfg_.q, collision_vote(local_t_));
  rule_.emplace(DecisionRule::threshold(referee_t_));
}

SimultaneousProtocol DistributedThresholdTester::make_protocol() const {
  return SimultaneousProtocol(cfg_.k, cfg_.q,
                              make_collision_voters(cfg_.q, local_t_));
}

DecisionRule DistributedThresholdTester::make_rule() const {
  return DecisionRule::threshold(referee_t_);
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

SimultaneousProtocol DistributedAndTester::make_protocol() const {
  return SimultaneousProtocol(cfg_.k, cfg_.q,
                              make_collision_voters(cfg_.q, local_t_));
}

bool DistributedAndTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "DistributedAndTester: domain size mismatch");
  return exec_->run(source, rng, *rule_);
}

}  // namespace duti
