#include "testers/robust_rules.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

// Share of the k players whose bits the quorum referee needs to decide.
constexpr double kQuorumFraction = 0.5;

}  // namespace

RefereeOutcome NaiveThresholdRule::decide(std::uint64_t rejects_received,
                                          std::uint64_t bits_received) const {
  // Silence is indistinguishable from an alarm to the naive referee.
  const std::uint64_t missing =
      bits_received < k ? k - bits_received : 0;
  return rejects_received + missing >= referee_t ? RefereeOutcome::kReject
                                                 : RefereeOutcome::kAccept;
}

std::uint64_t QuorumThresholdRule::quorum() const {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(kQuorumFraction * static_cast<double>(k))));
}

std::uint64_t QuorumThresholdRule::threshold_for(
    std::uint64_t survivors) const {
  return calibrated_referee_threshold(survivors, p_reject_uniform);
}

RefereeOutcome QuorumThresholdRule::decide(
    std::uint64_t rejects_received, std::uint64_t bits_received) const {
  if (bits_received < quorum()) return RefereeOutcome::kAbortQuorum;
  return rejects_received >= threshold_for(bits_received)
             ? RefereeOutcome::kReject
             : RefereeOutcome::kAccept;
}

unsigned MedianOfGroupsRule::groups() const {
  const auto bad =
      static_cast<unsigned>(std::floor(delta * static_cast<double>(k)));
  unsigned g = 2 * bad + 3;
  if (g > k) g = (k % 2 == 0) ? k - 1 : k;  // keep it odd and <= k
  return std::max(1u, g);
}

RefereeOutcome MedianOfGroupsRule::decide(
    const std::vector<std::uint8_t>& bits) const {
  const unsigned g = groups();
  if (bits.size() < g) return RefereeOutcome::kAbortQuorum;
  // Contiguous chunks of (almost) equal size; the robustness argument
  // only needs that floor(delta*k) bits touch at most that many groups.
  const std::size_t base = bits.size() / g;
  std::size_t extra = bits.size() % g;
  std::vector<double> means;
  means.reserve(g);
  std::size_t pos = 0;
  for (unsigned i = 0; i < g; ++i) {
    const std::size_t len = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    std::uint64_t ones = 0;
    for (std::size_t j = 0; j < len; ++j) ones += bits[pos + j];
    pos += len;
    means.push_back(static_cast<double>(ones) / static_cast<double>(len));
  }
  std::nth_element(means.begin(), means.begin() + g / 2, means.end());
  const double median = means[g / 2];
  const double s = static_cast<double>(base);
  const double bar =
      p_reject_uniform +
      kRefereeZ * std::sqrt(std::max(1e-12, p_reject_uniform *
                                                (1.0 - p_reject_uniform) / s));
  return median > bar ? RefereeOutcome::kReject : RefereeOutcome::kAccept;
}

RefereeOutcome TrimmedMeanRule::decide(std::uint64_t rejects_received,
                                       std::uint64_t bits_received) const {
  const auto trim =
      static_cast<std::uint64_t>(std::floor(delta * static_cast<double>(k)));
  if (bits_received <= 2 * trim) return RefereeOutcome::kAbortQuorum;
  // Bits are 0/1, so trimming the sorted extremes is arithmetic: remove
  // min(trim, ones) top bits and min(trim, zeros) bottom bits.
  const std::uint64_t ones = rejects_received;
  const std::uint64_t zeros = bits_received - rejects_received;
  const std::uint64_t kept_ones = ones - std::min(trim, ones);
  const std::uint64_t kept =
      bits_received - std::min(trim, ones) - std::min(trim, zeros);
  if (kept == 0) return RefereeOutcome::kAbortQuorum;
  const double mean =
      static_cast<double>(kept_ones) / static_cast<double>(kept);
  const double bar =
      p_reject_uniform +
      kRefereeZ * std::sqrt(std::max(1e-12,
                                     p_reject_uniform *
                                         (1.0 - p_reject_uniform) /
                                         static_cast<double>(kept)));
  return mean > bar ? RefereeOutcome::kReject : RefereeOutcome::kAccept;
}

RobustThresholdTester::RobustThresholdTester(DistributedTesterConfig cfg,
                                             FaultPlan plan, Rule rule,
                                             Rng& calib_rng,
                                             std::size_t calib_trials)
    : cfg_(cfg), plan_(plan), rule_(rule) {
  require(cfg_.n >= 2, "RobustThresholdTester: n must be >= 2");
  require(cfg_.k >= 1, "RobustThresholdTester: k must be >= 1");
  require(cfg_.q >= 2, "RobustThresholdTester: q must be >= 2");
  require(cfg_.eps > 0.0 && cfg_.eps <= 1.0,
          "RobustThresholdTester: eps in (0,1]");
  require(plan_.crash_fraction >= 0.0 && plan_.crash_fraction <= 1.0 &&
              plan_.byzantine_fraction >= 0.0 &&
              plan_.byzantine_fraction <= 1.0 &&
              plan_.crash_fraction + plan_.byzantine_fraction <= 1.0,
          "RobustThresholdTester: fault fractions in [0,1], sum <= 1");

  // Identical calibration to DistributedThresholdTester (the same memo
  // entries), so rule comparisons isolate the referee side.
  local_t_ = expected_collision_pairs_uniform(static_cast<double>(cfg_.n),
                                              cfg_.q);
  p_u_ = uniform_reject_rates(cfg_.n, std::span(&cfg_.q, 1),
                              calibration_trials(calib_trials, cfg_.k),
                              calib_rng)[0];
  naive_t_ = calibrated_referee_threshold(cfg_.k, p_u_);
}

RefereeOutcome RobustThresholdTester::outcome(const SampleSource& source,
                                              Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "RobustThresholdTester: domain size mismatch");
  const unsigned k = cfg_.k;
  const auto n_byz = static_cast<unsigned>(
      std::floor(plan_.byzantine_fraction * static_cast<double>(k)));
  const auto n_crash = static_cast<unsigned>(
      std::floor(plan_.crash_fraction * static_cast<double>(k)));

  // Fresh fault placement per execution: partial Fisher-Yates draws the
  // Byzantine set then the crashed set.
  std::vector<unsigned> order(k);
  for (unsigned j = 0; j < k; ++j) order[j] = j;
  for (unsigned j = 0; j < n_byz + n_crash && j + 1 < k; ++j) {
    const auto pick = j + static_cast<unsigned>(rng.next_below(k - j));
    std::swap(order[j], order[pick]);
  }
  std::vector<std::uint8_t> role(k, 0);  // 0 honest, 1 byzantine, 2 crashed
  for (unsigned j = 0; j < n_byz; ++j) role[order[j]] = 1;
  for (unsigned j = n_byz; j < n_byz + n_crash; ++j) role[order[j]] = 2;

  std::vector<std::uint8_t> bits;  // arrival order = player order
  bits.reserve(k);
  std::vector<std::uint64_t> samples;
  for (unsigned j = 0; j < k; ++j) {
    if (role[j] == 2) continue;  // crashed: nothing arrives
    Rng player_rng = make_rng(rng(), j);
    std::uint8_t bit = 0;
    const bool need_honest_vote =
        role[j] == 0 ||
        plan_.byzantine_mode == ByzantineMode::kAdversarialFlip;
    if (need_honest_vote) {
      source.sample_many(player_rng, cfg_.q, samples);
      bit = static_cast<double>(collision_pairs(samples, cfg_.n)) > local_t_
                ? 1
                : 0;
    }
    if (role[j] == 1) {
      switch (plan_.byzantine_mode) {
        case ByzantineMode::kStuckAtZero: bit = 0; break;
        case ByzantineMode::kStuckAtOne: bit = 1; break;
        case ByzantineMode::kRandomBit:
          bit = static_cast<std::uint8_t>(player_rng() & 1ULL);
          break;
        case ByzantineMode::kAdversarialFlip:
          bit = bit ? 0 : 1;
          break;
      }
    }
    bits.push_back(bit);
  }

  const std::uint64_t received = bits.size();
  std::uint64_t rejects = 0;
  for (const auto b : bits) rejects += b;

  switch (rule_) {
    case Rule::kNaive:
      return NaiveThresholdRule{k, naive_t_}.decide(rejects, received);
    case Rule::kQuorum:
      return QuorumThresholdRule{k, p_u_}.decide(rejects, received);
    case Rule::kMedianOfGroups:
      return MedianOfGroupsRule{k, p_u_, effective_delta()}.decide(bits);
    case Rule::kTrimmed:
      return TrimmedMeanRule{k, p_u_, effective_delta()}.decide(rejects,
                                                                received);
  }
  return RefereeOutcome::kAbortTimeout;  // unreachable
}

}  // namespace duti
