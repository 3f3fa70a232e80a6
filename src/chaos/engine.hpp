// The chaos engine: execute one scenario deterministically, judge it
// against the oracle registry, and sweep seeded campaigns in parallel with
// a bit-identical summary at any DUTI_THREADS.
//
// Every scenario runs the same protocol: the scenario's (possibly
// Byzantine-tampered) vote bits flow to the referee at node 0 over the
// reliable self-healing convergecast, under the spec's fault schedule, and
// the quorum-threshold referee rules on whatever arrived. A RunResult
// captures the verdict plus the full network/transport accounting; its
// fingerprint is the unit of replay comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"
#include "util/thread_pool.hpp"

namespace duti::chaos {

/// Test-only fault injection into the engine itself (the chaos meta-test:
/// the oracles must catch a deliberately broken transport). The tolerance
/// predicate always uses the ADVERTISED transport config; a nonzero
/// `retry_deficit` silently shrinks the budget the transport actually
/// gets, exactly the off-by-one class of bug the engine exists to catch.
struct ChaosHooks {
  unsigned retry_deficit = 0;
};

/// The advertised transport config every chaos scenario runs with.
[[nodiscard]] ReliableConfig chaos_transport_config() noexcept;

/// Execute one scenario (no oracles): build, fault, run, judge.
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec,
                                     const ChaosHooks& hooks = {});

/// One scenario judged by the full oracle registry. The token is always
/// filled in; `violations` is empty on a clean pass.
struct ScenarioReport {
  ScenarioSpec spec;
  std::string token;
  RunResult run;
  std::vector<Violation> violations;
};

/// Run + replay-from-token + fault-free baseline + prediction + oracles.
[[nodiscard]] ScenarioReport check_scenario(const ScenarioSpec& spec,
                                            const ChaosHooks& hooks = {});

struct CampaignConfig {
  std::uint64_t seed0 = 1;
  std::uint32_t num_seeds = 64;
  ChaosHooks hooks;
};

/// One failing seed, with its original and minimized reproducers.
struct CampaignFailure {
  std::uint64_t seed = 0;
  std::string token;               // the schedule as generated
  std::string shrunk_token;        // minimal failing reproducer
  std::size_t components = 0;      // fault components as generated
  std::size_t shrunk_components = 0;
  std::vector<Violation> violations;
};

struct CampaignSummary {
  std::uint64_t seed0 = 0;
  std::uint32_t num_seeds = 0;
  std::uint64_t total_components = 0;
  /// Count per RefereeOutcome (index = static_cast<int>(outcome)).
  std::uint64_t outcome_counts[4] = {0, 0, 0, 0};
  /// FNV-1a chain over (seed, run fingerprint) in seed order — identical
  /// across thread counts or the campaign itself violates determinism.
  std::uint64_t fingerprint = 0;
  std::vector<CampaignFailure> failures;

  [[nodiscard]] bool clean() const noexcept { return failures.empty(); }
};

/// Sweep seeds [seed0, seed0+num_seeds) on `pool`. Scenario checks run in
/// parallel (one seed per work item); the summary reduction and the
/// shrinking of every failing schedule run sequentially in seed order, so
/// the result is bit-identical at any pool width.
[[nodiscard]] CampaignSummary run_campaign(const CampaignConfig& cfg,
                                           ThreadPool& pool);

/// Render a one-line human report of a violation set, ending with the
/// replay token ("rerun with --replay=<token>").
[[nodiscard]] std::string describe_failure(const std::string& token,
                                           const std::vector<Violation>& vs);

}  // namespace duti::chaos
