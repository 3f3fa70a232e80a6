#include "testers/robust_rules.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "dist/generators.hpp"
#include "stats/harness.hpp"

namespace duti {
namespace {

// ---------------------------------------------------------------- rules --

TEST(NaiveThresholdRule, ConflatesSilenceWithAlarms) {
  const NaiveThresholdRule rule{100, 60};
  // 10 alarms + 90 bits arrived: 10 real + 10 missing = 20 < 60.
  EXPECT_EQ(rule.decide(10, 90), RefereeOutcome::kAccept);
  // Same 10 alarms, but 50 bits missing: 10 + 50 = 60 >= 60 -> rejects
  // even though the evidence is identical. This is the designed flaw.
  EXPECT_EQ(rule.decide(10, 50), RefereeOutcome::kReject);
  EXPECT_EQ(rule.decide(60, 100), RefereeOutcome::kReject);
}

TEST(QuorumThresholdRule, AbortsBelowQuorumAndRecalibratesAbove) {
  QuorumThresholdRule rule;
  rule.k = 100;
  rule.p_reject_uniform = 0.5;
  // 49 < quorum of 50: cannot decide, and says so explicitly.
  EXPECT_EQ(rule.decide(30, 49), RefereeOutcome::kAbortQuorum);
  // With 60 survivors the threshold tracks 60, not 100.
  const auto t60 = rule.threshold_for(60);
  EXPECT_GT(t60, 30u);   // mean 30 plus a z-margin
  EXPECT_LT(t60, 40u);   // ... but nowhere near the k=100 calibration
  EXPECT_EQ(rule.decide(static_cast<std::uint64_t>(t60) - 1, 60),
            RefereeOutcome::kAccept);
  EXPECT_EQ(rule.decide(t60, 60), RefereeOutcome::kReject);
  // Monotone in survivors.
  EXPECT_LT(t60, rule.threshold_for(100));
}

TEST(MedianOfGroupsRule, ToleratesByzantineOnes) {
  MedianOfGroupsRule rule;
  rule.k = 20;
  rule.p_reject_uniform = 0.2;
  rule.delta = 0.1;  // budget: floor(0.1 * 20) = 2 Byzantine bits
  EXPECT_EQ(rule.groups(), 7u);  // 2 * 2 + 3
  // 18 honest zeros + 2 stuck-at-one bits: the two 1s land in at most two
  // of the seven groups, so the median group is clean -> accept.
  std::vector<std::uint8_t> bits(20, 0);
  bits[3] = 1;
  bits[17] = 1;
  EXPECT_EQ(rule.decide(bits), RefereeOutcome::kAccept);
  // All-ones is a genuine rejection no matter the grouping.
  EXPECT_EQ(rule.decide(std::vector<std::uint8_t>(20, 1)),
            RefereeOutcome::kReject);
}

TEST(TrimmedMeanRule, SlicesOffAdversarialTails) {
  TrimmedMeanRule rule;
  rule.k = 20;
  rule.p_reject_uniform = 0.2;
  rule.delta = 0.1;
  // 2 Byzantine ones among 20 bits: trimming floor(0.1*20)=2 from each end
  // removes them entirely.
  EXPECT_EQ(rule.decide(2, 20), RefereeOutcome::kAccept);
  EXPECT_EQ(rule.decide(20, 20), RefereeOutcome::kReject);
}

// ------------------------------------------------------------ end-to-end --

SourceFactory uniform_factory(std::uint64_t n) {
  return [n](Rng&) { return std::make_unique<UniformSource>(n); };
}

SourceFactory far_factory(std::uint64_t n, double eps) {
  return [n, eps](Rng& rng) {
    return std::make_unique<DistributionSource>(gen::paninski(n, eps, rng));
  };
}

constexpr std::uint64_t kN = 256;
constexpr unsigned kK = 60;
constexpr double kEps = 0.5;

/// Minimal q clearing the 2/3 bar for a tester built at each probed q.
std::uint64_t min_q_for(RobustThresholdTester::Rule rule,
                        const FaultPlan& plan, std::uint64_t hi) {
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = hi;
  cfg.trials = 150;
  cfg.seed = 97;
  const auto probe = [&](std::uint64_t q) {
    Rng calib(derive_seed(11, q));
    const RobustThresholdTester tester(
        {kN, kK, static_cast<unsigned>(q), kEps}, plan, rule, calib);
    return probe_success(
        [&tester](const SampleSource& s, Rng& r) {
          return tester.outcome(s, r);
        },
        uniform_factory(kN), far_factory(kN, kEps), cfg.trials, cfg.seed);
  };
  const auto result = find_min_param(probe, cfg);
  return result.found ? result.minimum : 0;  // 0 = not found below hi
}

TEST(RobustThresholdTester, ConfigValidation) {
  Rng rng(2);
  const auto build = [&rng](unsigned k, unsigned q) {
    return RobustThresholdTester({64, k, q, 0.5}, FaultPlan{},
                                 RobustThresholdTester::Rule::kNaive, rng);
  };
  EXPECT_THROW(build(4, 0), InvalidArgument);
  EXPECT_THROW(build(4, 1), InvalidArgument);
  EXPECT_THROW(build(0, 8), InvalidArgument);
  // The smallest legal shape: one player with one possible pair.
  const RobustThresholdTester smallest = build(1, 2);
  const UniformSource uniform(64);
  Rng run_rng(3);
  (void)smallest.outcome(uniform, run_rng);
  EXPECT_EQ(smallest.naive_referee_threshold(), 1u);
}

// Acceptance criterion: at 20% crashed players the quorum rule's minimal q
// stays within 2x of the fault-free minimum, while the naive rule cannot
// clear the 2/3 bar at all (its uniform side false-alarms itself to death).
TEST(RobustThresholdTester, QuorumSurvivesCrashesThatKillNaiveRule) {
  const FaultPlan no_faults{};
  FaultPlan crash20;
  crash20.crash_fraction = 0.2;

  const std::uint64_t q_free =
      min_q_for(RobustThresholdTester::Rule::kNaive, no_faults, 1 << 10);
  ASSERT_GT(q_free, 0u);

  const std::uint64_t q_quorum =
      min_q_for(RobustThresholdTester::Rule::kQuorum, crash20, 1 << 10);
  ASSERT_GT(q_quorum, 0u);
  EXPECT_LE(q_quorum, 2 * q_free);

  // The naive rule under the same crashes: even 8x the fault-free budget
  // does not help, because its failure is not a sample-size problem.
  Rng calib(derive_seed(13, q_free));
  const RobustThresholdTester naive(
      {kN, kK, static_cast<unsigned>(8 * q_free), kEps}, crash20,
      RobustThresholdTester::Rule::kNaive, calib);
  const auto probe = probe_success(
      [&naive](const SampleSource& s, Rng& r) { return naive.outcome(s, r); },
      uniform_factory(kN), far_factory(kN, kEps), 150, 97);
  EXPECT_FALSE(probe.passes());
  EXPECT_LT(probe.uniform_accept_rate, 2.0 / 3.0);  // the failing side
}

TEST(RobustThresholdTester, MedianOfGroupsSurvivesStuckAtOneByzantines) {
  FaultPlan byz10;
  byz10.byzantine_fraction = 0.1;
  byz10.byzantine_mode = ByzantineMode::kStuckAtOne;
  Rng calib(17);
  const RobustThresholdTester median({kN, kK, 48, kEps}, byz10,
                                     RobustThresholdTester::Rule::kMedianOfGroups,
                                     calib);
  const auto probe = probe_success(
      [&median](const SampleSource& s, Rng& r) {
        return median.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), 150, 101);
  EXPECT_TRUE(probe.passes()) << "uniform=" << probe.uniform_accept_rate
                              << " far=" << probe.far_reject_rate;
}

TEST(RobustThresholdTester, QuorumAbortIsAttributedNotConflated) {
  // 60% crashed: 24 survivors < the 30-player quorum, every trial aborts.
  FaultPlan crash60;
  crash60.crash_fraction = 0.6;
  Rng calib(19);
  const RobustThresholdTester quorum({kN, kK, 16, kEps}, crash60,
                                     RobustThresholdTester::Rule::kQuorum,
                                     calib);
  const std::size_t trials = 40;
  const auto probe = probe_success(
      [&quorum](const SampleSource& s, Rng& r) {
        return quorum.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), trials, 103);
  EXPECT_EQ(probe.uniform_accept_rate, 0.0);
  EXPECT_EQ(probe.far_reject_rate, 0.0);
  EXPECT_EQ(probe.uniform_aborts_quorum, trials);
  EXPECT_EQ(probe.far_aborts_quorum, trials);
  EXPECT_EQ(probe.aborts(), 2 * trials);
}

TEST(RobustThresholdTester, ZeroFaultPlanMatchesNaiveCalibration) {
  // With no faults the naive rule is exactly the paper's referee: minimal q
  // should sit near the sqrt(n/k)/eps^2 scale (small, single digits here).
  Rng calib(23);
  const RobustThresholdTester tester({kN, kK, 48, kEps}, FaultPlan{},
                                     RobustThresholdTester::Rule::kNaive,
                                     calib);
  EXPECT_GT(tester.p_reject_uniform(), 0.0);
  EXPECT_LT(tester.p_reject_uniform(), 1.0);
  EXPECT_GE(tester.naive_referee_threshold(), 1u);
  EXPECT_LE(tester.naive_referee_threshold(), kK);
  const auto probe = probe_success(
      [&tester](const SampleSource& s, Rng& r) {
        return tester.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), 150, 107);
  EXPECT_TRUE(probe.passes());
  EXPECT_EQ(probe.aborts(), 0u);
}

}  // namespace
}  // namespace duti
