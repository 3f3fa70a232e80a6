#include "testers/asymmetric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

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
    const double q = std::max(2.0, std::ceil(tau * rates[j]));
    require(q <= static_cast<double>(std::numeric_limits<unsigned>::max()),
            "AsymmetricRateTester: player " + std::to_string(j) +
                "'s sample count ceil(tau * rate) exceeds the unsigned range");
    qs_[j] = static_cast<unsigned>(q);
  }

  // Per-player uniform rejection probabilities, player 0 first from the
  // one stream; rates and tau matter only through the q vector.
  p_ = uniform_reject_rates(n_, qs_, trials_per_player, calib_rng);

  double mean = 0.0, var = 0.0;
  for (double p : p_) {
    mean += p;
    var += p * (1.0 - p);
  }
  referee_t_ = mean + std::sqrt(std::max(1e-12, var));

  // Per-player votes at each q's uniform mean, resolved once for the
  // executor.
  std::vector<CollisionVote> votes;
  std::vector<std::uint64_t> decided_above;
  for (const unsigned q : qs_) {
    votes.push_back(CollisionVote::at_uniform_mean(n_, q));
    decided_above.push_back(votes.back().decided_above());
  }
  exec_.emplace(
      qs_,
      [votes = std::move(votes)](unsigned j, std::uint64_t pairs,
                                 Rng& /*rng*/) {
        return Message::bit(!votes[j].rejects(pairs));
      },
      std::move(decided_above));
  // Same verdict as the original bench referee: it accumulated rejects as
  // a double (exact for any k below 2^53) and accepted on
  // rejects < referee_t_, which for an integer count is
  // rejects < ceil(referee_t_). referee_t_ > 0, so the bar is >= 1.
  reject_bar_ = static_cast<std::uint64_t>(std::ceil(referee_t_));
}

bool AsymmetricRateTester::run(const SampleSource& source, Rng& rng) const {
  require(source.domain_size() == n_,
          "AsymmetricRateTester: domain size mismatch");
  return exec_->run(source, rng, reject_bar_);
}

}  // namespace duti
