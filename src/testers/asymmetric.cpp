#include "testers/asymmetric.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

AsymmetricRateTester::AsymmetricRateTester(std::uint64_t n,
                                           std::vector<double> rates,
                                           double tau, Rng& calib_rng,
                                           std::size_t trials_per_player)
    : n_(n), qs_(rates.size()) {
  require(n_ >= 2, "AsymmetricRateTester: n must be >= 2");
  require(!rates.empty(), "AsymmetricRateTester: need at least one player");
  require(tau > 0.0, "AsymmetricRateTester: tau must be positive");
  require(trials_per_player >= 1,
          "AsymmetricRateTester: trials_per_player must be >= 1");
  for (std::size_t j = 0; j < rates.size(); ++j) {
    require(rates[j] > 0.0, "AsymmetricRateTester: rates must be positive");
    qs_[j] =
        static_cast<unsigned>(std::max(2.0, std::ceil(tau * rates[j])));
  }

  // Memo key: the q vector IS the tester identity (rates and tau only
  // matter through it), plus the resolved per-player trial count and the
  // calibration stream's entry state.
  std::ostringstream id;
  id << "asym|n=" << n_ << "|t=" << trials_per_player << "|qs=";
  for (const unsigned q : qs_) id << q << ",";
  id << "|rng=" << calib_rng_tag(calib_rng);
  p_.resize(qs_.size());
  const std::size_t k = qs_.size();
  if (auto payload = CalibMemo::global().lookup(id.str());
      payload && payload->size() == k + 5) {
    for (std::size_t j = 0; j < k; ++j) {
      p_[j] = calib_unpack_double((*payload)[1 + j]);
    }
    calib_rng.set_state(Rng::State{(*payload)[k + 1], (*payload)[k + 2],
                                   (*payload)[k + 3], (*payload)[k + 4]});
  } else {
    // Per-player uniform rejection probabilities by simulation, player 0
    // first — the stream order the memo replays.
    const UniformSource uniform(n_);
    std::vector<std::uint64_t> samples;
    for (std::size_t j = 0; j < k; ++j) {
      const double local_t = expected_collision_pairs_uniform(
          static_cast<double>(n_), qs_[j]);
      std::size_t rejects = 0;
      for (std::size_t t = 0; t < trials_per_player; ++t) {
        uniform.sample_many(calib_rng, qs_[j], samples);
        if (static_cast<double>(tallied_collision_pairs(samples, n_)) >
            local_t) {
          ++rejects;
        }
      }
      p_[j] = static_cast<double>(rejects) /
              static_cast<double>(trials_per_player);
    }
    std::vector<std::uint64_t> fresh;
    fresh.reserve(k + 5);
    fresh.push_back(trials_per_player);
    for (const double p : p_) fresh.push_back(calib_pack_double(p));
    const Rng::State end = calib_rng.state();
    fresh.insert(fresh.end(), {end[0], end[1], end[2], end[3]});
    CalibMemo::global().insert(id.str(), std::move(fresh));
  }

  double mean = 0.0, var = 0.0;
  for (double p : p_) {
    mean += p;
    var += p * (1.0 - p);
  }
  referee_t_ = mean + std::sqrt(std::max(1e-12, var));

  // Per-player local thresholds, resolved once for the vote functor.
  std::vector<double> local_t(k);
  for (std::size_t j = 0; j < k; ++j) {
    local_t[j] = expected_collision_pairs_uniform(static_cast<double>(n_),
                                                  qs_[j]);
  }
  exec_.emplace(
      qs_,
      [local_t = std::move(local_t)](unsigned j, std::uint64_t pairs,
                                     Rng& /*rng*/) {
        return Message::bit(!(static_cast<double>(pairs) > local_t[j]));
      });
  // Same comparison as the original bench referee: it accumulated rejects
  // as a double (exact for any k below 2^53) and accepted on
  // rejects < referee_t_.
  const double referee_t = referee_t_;
  rule_.emplace(DecisionRule::symmetric(
      "asym-sd-sum", [referee_t](std::uint64_t rejects, std::uint64_t /*k*/) {
        return static_cast<double>(rejects) < referee_t;
      }));
}

bool AsymmetricRateTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == n_,
          "AsymmetricRateTester: domain size mismatch");
  return exec_->run(source, rng, *rule_);
}

}  // namespace duti
