#include "testers/robust_rules.hpp"

#include <algorithm>
#include <cmath>

#include "testers/calibration.hpp"
#include "util/error.hpp"

namespace duti {

namespace {

// Share of the k players whose bits the quorum referee needs to decide.
constexpr double kQuorumFraction = 0.5;

FaultPlan checked(const FaultPlan& plan) {
  require(plan.crash_fraction >= 0.0 && plan.crash_fraction <= 1.0 &&
              plan.byzantine_fraction >= 0.0 &&
              plan.byzantine_fraction <= 1.0 &&
              plan.crash_fraction + plan.byzantine_fraction <= 1.0,
          "RobustThresholdTester: fault fractions in [0,1], sum <= 1");
  return plan;
}

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
    : plan_(checked(plan)),
      rule_(rule),
      players_(cfg, calib_rng, calib_trials) {}

RefereeOutcome RobustThresholdTester::outcome(const SampleSource& source,
                                              Rng& rng) const {
  const DistributedTesterConfig& cfg = players_.config();
  require(source.domain_size() == cfg.n,
          "RobustThresholdTester: domain size mismatch");
  const unsigned k = cfg.k;
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

  // The players' own loop, not the executor's: a crashed player draws no
  // seed from the run stream, which the executor's layout cannot express.
  // A vote is decided once its pair count passes decided_above(), and
  // nothing reads a player's stream after its vote, so its count may stop
  // there.
  const CollisionVote& vote = players_.vote();
  const std::uint64_t decided_above = vote.decided_above();
  std::vector<std::uint8_t> bits;  // arrival order = player order
  bits.reserve(k);
  for (unsigned j = 0; j < k; ++j) {
    if (role[j] == 2) continue;  // crashed: nothing arrives
    // Every player that sends draws its seed from the run stream; a
    // Byzantine one sends a stuck alarm without sampling.
    Rng player_rng = make_rng(rng(), j);
    if (role[j] == 1) {
      bits.push_back(1);
      continue;
    }
    const std::uint64_t pairs =
        source.count_pairs(player_rng, cfg.q, decided_above);
    bits.push_back(vote.rejects(pairs) ? 1 : 0);
  }

  const std::uint64_t received = bits.size();
  std::uint64_t rejects = 0;
  for (const auto b : bits) rejects += b;
  const double p_u = p_reject_uniform();

  switch (rule_) {
    case Rule::kNaive:
      return NaiveThresholdRule{k, naive_referee_threshold()}.decide(
          rejects, received);
    case Rule::kQuorum:
      return QuorumThresholdRule{k, p_u}.decide(rejects, received);
    case Rule::kMedianOfGroups:
      return MedianOfGroupsRule{k, p_u, effective_delta()}.decide(bits);
    case Rule::kTrimmed:
      break;
  }
  return TrimmedMeanRule{k, p_u, effective_delta()}.decide(rejects,
                                                           received);
}

}  // namespace duti
