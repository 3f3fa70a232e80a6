// Invariant oracles: what must hold after ANY chaos run, and what must
// additionally hold when the fault schedule is within the stack's provable
// tolerance.
//
// The tolerance predicate is deliberately conservative — it admits only
// schedules for which the reliable transport's recovery is a theorem, not
// a likelihood: deterministic components only (round-0 crashes, outage
// windows, Byzantine votes), each outage window no longer than the
// transport's first ACK timeout (so it can kill at most one of a frame's
// attempts), and at most `max_retries` windows across both directions of
// any link pair (so at least one of the max_retries+1 attempts survives
// end to end). Within tolerance, the healed convergecast's delivery set is
// computed analytically (`predict`), giving the oracles an exact expected
// verdict; outside it, only the unconditional invariants (conservation,
// accounting, replay determinism) are checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "sim/reliable.hpp"
#include "testers/robust_rules.hpp"

namespace duti::chaos {

/// Everything one scenario execution produced, plus a content fingerprint
/// over all of it (the replay-determinism oracle compares fingerprints).
struct RunResult {
  RefereeOutcome outcome{};
  std::uint64_t root_sum = 0;
  std::uint32_t values_reached = 0;
  std::uint32_t values_lost = 0;
  std::uint32_t reparent_events = 0;
  NetworkStats net;
  ReliableStats transport;

  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// The analytic model of the faulted run (exact within tolerance).
struct Prediction {
  bool within_tolerance = false;
  bool crash_free = true;  // no kCrash components at all
  bool byz_free = true;    // no kByzantine components at all
  /// delivers[v]: node v's value reaches the root through the healed
  /// forwarding chain (root itself included). Only meaningful within
  /// tolerance.
  std::vector<std::uint8_t> delivers;
  std::uint32_t predicted_reached = 0;
  std::uint32_t predicted_lost = 0;  // alive nodes whose route is severed
  std::uint64_t predicted_rejects = 0;
  RefereeOutcome predicted_outcome{};  // meaningful within tolerance
};

/// The referee rule every chaos scenario is judged by: quorum-calibrated
/// threshold over the votes that reached the root.
[[nodiscard]] QuorumThresholdRule referee_rule_of(const ScenarioSpec& spec);

/// Analytically predict the faulted run under `cfg` (the transport config
/// the runner will use). Exact when within_tolerance.
[[nodiscard]] Prediction predict(const ScenarioSpec& spec,
                                 const ReliableConfig& cfg);

/// One oracle violation (oracle name + human-readable detail).
struct Violation {
  std::string oracle;
  std::string detail;
};

/// Inputs every oracle sees. `replay` is the same spec re-executed from
/// its token; `baseline` is the fault-free run of the same scenario.
struct OracleContext {
  const ScenarioSpec& spec;
  const RunResult& run;
  const RunResult& replay;
  const RunResult& baseline;
  const Prediction& predicted;
};

/// A registered invariant: checks the context, appends violations.
struct OracleEntry {
  const char* name;
  void (*check)(const OracleContext&, std::vector<Violation>&);
};

/// The oracle registry, in report order:
///   net-conservation      sent == delivered + dropped + outage + halted
///   transport-accounting  payload+overhead == bits; frames == messages
///   value-accounting      reached >= 1, total == k, lost <= k
///   replay-determinism    token-replayed run is bit-identical
///   no-spurious-abort     within tolerance: no abort when the predicted
///                         survivor count meets the quorum
///   predicted-verdict     within tolerance: outcome == analytic outcome
///   baseline-agreement    within tolerance, crash/byz-free: outcome ==
///                         fault-free baseline outcome
const std::vector<OracleEntry>& oracle_registry();

/// Run every registered oracle; returns all violations (empty == pass).
[[nodiscard]] std::vector<Violation> check_oracles(const OracleContext& ctx);

}  // namespace duti::chaos
