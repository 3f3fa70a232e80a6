// Fault-aware referee rules (extension beyond the paper).
//
// The paper's referee always receives exactly k bits. Under crash faults
// some bits never arrive, and under Byzantine faults some arriving bits
// are adversarial. Two robust aggregation rules recover the threshold
// tester's guarantees:
//
//  * QuorumThresholdRule — calibrates the rejection threshold to the
//    number of bits that actually ARRIVED (m survivors) instead of k, and
//    aborts (quorum-not-met) when too few players report to decide at all.
//    The naive rule, which cannot distinguish "no message" from an alarm,
//    conflates timeouts with rejections and false-alarms itself to death.
//
//  * MedianOfGroupsRule / TrimmedMeanRule — robust aggregation of the
//    sum-rule tester's bits: a delta-fraction of Byzantine bits can move
//    the plain sum across any fixed threshold, but can corrupt fewer than
//    half of 2*floor(delta*k)+3 groups (median-of-means), or is sliced off
//    entirely by trimming floor(delta*k) bits from each end.
//
// RobustThresholdTester wires either rule behind the standard collision
// voters with an injected fault plan, so the harness can measure minimal q
// under faults for naive vs robust referees.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/sample_source.hpp"
#include "testers/distributed.hpp"
#include "util/rng.hpp"

namespace duti {

/// What one protocol execution produced at the referee. An abort is kept
/// distinct from a rejection so the harness can attribute failures.
enum class RefereeOutcome {
  kAccept,
  kReject,
  kAbortQuorum,  // too few bits arrived to decide
};

[[nodiscard]] constexpr const char* to_string(RefereeOutcome o) noexcept {
  switch (o) {
    case RefereeOutcome::kAccept: return "accept";
    case RefereeOutcome::kReject: return "reject";
    case RefereeOutcome::kAbortQuorum: return "abort-quorum";
  }
  return "?";
}

/// Naive fixed-threshold referee: expects k bits and cannot distinguish a
/// missing bit from an alarm, so silence counts as rejection (the
/// conflation the robust rules remove).
struct NaiveThresholdRule {
  unsigned k = 0;
  std::uint64_t referee_t = 1;  // calibrated for k reporting players

  [[nodiscard]] RefereeOutcome decide(std::uint64_t rejects_received,
                                      std::uint64_t bits_received) const;
};

/// Quorum rule: decide from the m bits that arrived, with the threshold
/// re-calibrated to m: T(m) = ceil(m p_u + kRefereeZ sqrt(m p_u (1-p_u))).
/// Aborts when fewer than quorum() bits arrived.
struct QuorumThresholdRule {
  unsigned k = 0;
  double p_reject_uniform = 0.0;  // per-player P(reject | uniform)

  /// Bits needed to decide: half the players, rounded up, and at least 1.
  [[nodiscard]] std::uint64_t quorum() const;
  [[nodiscard]] std::uint64_t threshold_for(std::uint64_t survivors) const;
  [[nodiscard]] RefereeOutcome decide(std::uint64_t rejects_received,
                                      std::uint64_t bits_received) const;
};

/// Median-of-groups over the received bits: split into g = 2 floor(dk)+3
/// groups, reject iff the MEDIAN group rejection rate clears the
/// calibrated per-group threshold. Tolerates up to floor(dk) Byzantine
/// bits (they corrupt fewer than half the groups).
struct MedianOfGroupsRule {
  unsigned k = 0;
  double p_reject_uniform = 0.0;
  double delta = 0.1;  // tolerated Byzantine fraction

  [[nodiscard]] unsigned groups() const;
  [[nodiscard]] RefereeOutcome decide(
      const std::vector<std::uint8_t>& bits) const;
};

/// Trimmed mean over the received bits: drop floor(delta*k) bits from each
/// end (all the potential Byzantine 1s and 0s), then threshold the mean of
/// the remainder at the recalibrated level.
struct TrimmedMeanRule {
  unsigned k = 0;
  double p_reject_uniform = 0.0;
  double delta = 0.1;

  [[nodiscard]] RefereeOutcome decide(std::uint64_t rejects_received,
                                      std::uint64_t bits_received) const;
};

/// Which players misbehave in a simulated execution. Fault roles are
/// assigned by a fresh random permutation each trial, so the measured
/// rates average over fault placements.
struct FaultPlan {
  double crash_fraction = 0.0;      // players that send nothing
  double byzantine_fraction = 0.0;  // players whose bit is stuck at 1
};

/// The distributed threshold tester of [7] run under a fault plan, with a
/// selectable referee rule. It wraps a DistributedThresholdTester, which
/// supplies the votes and the calibration (the same stream and memo entry),
/// so naive-vs-robust comparisons isolate the referee rule.
class RobustThresholdTester {
 public:
  enum class Rule { kNaive, kQuorum, kMedianOfGroups, kTrimmed };

  RobustThresholdTester(DistributedTesterConfig cfg, FaultPlan plan,
                        Rule rule, Rng& calib_rng,
                        std::size_t calib_trials = 0 /* auto */);

  /// One full execution with fault injection; aborts are distinct.
  [[nodiscard]] RefereeOutcome outcome(const SampleSource& source,
                                       Rng& rng) const;

  [[nodiscard]] double p_reject_uniform() const noexcept {
    return players_.p_reject_uniform();
  }
  [[nodiscard]] std::uint64_t naive_referee_threshold() const noexcept {
    return players_.referee_threshold();
  }

 private:
  /// Byzantine tolerance the robust aggregators are budgeted for: the
  /// plan's Byzantine fraction (what the experiment injects).
  [[nodiscard]] double effective_delta() const noexcept {
    return plan_.byzantine_fraction;
  }

  FaultPlan plan_;
  Rule rule_;
  DistributedThresholdTester players_;
};

}  // namespace duti
