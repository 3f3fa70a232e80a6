#include "chaos/engine.hpp"

#include <algorithm>
#include <utility>

#include "chaos/shrink.hpp"
#include "util/fnv.hpp"

namespace duti::chaos {

ReliableConfig chaos_transport_config() noexcept {
  return ReliableConfig{};  // max_retries 4
}

RunResult run_scenario(const ScenarioSpec& spec, const ChaosHooks& hooks) {
  ReliableConfig cfg = chaos_transport_config();
  cfg.max_retries -= std::min(cfg.max_retries, hooks.retry_deficit);

  Network net = build_network(spec);
  apply_schedule(spec, net);
  const SpanningTree tree = bfs_spanning_tree(net, 0);
  const std::vector<std::uint64_t> votes = tampered_votes_of(spec);

  Rng rng = make_rng(spec.run_seed, 0xC4A05ULL);
  const ReliableConvergecastResult cc =
      convergecast_sum_reliable(net, tree, votes, 1, rng, cfg);

  RunResult r;
  r.root_sum = cc.root_sum;
  r.values_reached = cc.values_reached;
  r.values_lost = cc.values_lost;
  r.reparent_events = cc.reparent_events;
  r.net = cc.stats;
  r.transport = cc.transport;
  // The convergecast force-halts at its internal deadline and the root
  // then decides with whatever arrived — the deadline IS the protocol, so
  // "ran long" is not an abort; too few survivors is (kAbortQuorum).
  r.outcome = referee_rule_of(spec).decide(r.root_sum, r.values_reached);
  return r;
}

ScenarioReport check_scenario(const ScenarioSpec& spec,
                              const ChaosHooks& hooks) {
  ScenarioReport report;
  report.spec = spec;
  report.token = serialize_token(spec);
  report.run = run_scenario(spec, hooks);

  // Replay strictly from the serialized token: this exercises the full
  // parse path, so a token printed in a failure is guaranteed faithful.
  const RunResult replay = run_scenario(parse_token(report.token), hooks);

  ScenarioSpec baseline_spec = spec;
  baseline_spec.components.clear();
  const RunResult baseline = run_scenario(baseline_spec, hooks);

  const Prediction predicted = predict(spec, chaos_transport_config());
  const OracleContext ctx{spec, report.run, replay, baseline, predicted};
  report.violations = check_oracles(ctx);
  return report;
}

CampaignSummary run_campaign(const CampaignConfig& cfg, ThreadPool& pool) {
  CampaignSummary summary;
  summary.seed0 = cfg.seed0;
  summary.num_seeds = cfg.num_seeds;

  // Parallel phase: one independent scenario check per seed, written into
  // its own slot. Nothing is shared, so pool width cannot affect content.
  std::vector<ScenarioReport> reports(cfg.num_seeds);
  pool.parallel_for(cfg.num_seeds, 1,
                    [&](std::size_t begin, std::size_t end, unsigned) {
                      for (std::size_t i = begin; i < end; ++i) {
                        const ScenarioSpec spec =
                            generate_scenario(cfg.seed0 + i);
                        reports[i] = check_scenario(spec, cfg.hooks);
                      }
                    });

  // Sequential reduction in seed order: deterministic regardless of which
  // worker finished first. Shrinking (more scenario runs) also happens
  // here, never inside the parallel phase.
  Fnv64 chain;
  for (std::uint32_t i = 0; i < cfg.num_seeds; ++i) {
    ScenarioReport& rep = reports[i];
    summary.total_components += rep.spec.components.size();
    ++summary.outcome_counts[static_cast<int>(rep.run.outcome)];
    chain.u64(cfg.seed0 + i);
    chain.u64(rep.run.fingerprint());
    if (!rep.violations.empty()) {
      CampaignFailure f;
      f.seed = cfg.seed0 + i;
      f.token = rep.token;
      f.components = rep.spec.components.size();
      f.violations = rep.violations;
      const ShrinkResult shrunk = shrink_failing(rep.spec, cfg.hooks);
      f.shrunk_token = shrunk.token;
      f.shrunk_components = shrunk.minimal.components.size();
      summary.failures.push_back(std::move(f));
    }
  }
  summary.fingerprint = chain.value();
  return summary;
}

std::string describe_failure(const std::string& token,
                             const std::vector<Violation>& vs) {
  std::string out = "chaos violation";
  for (const auto& v : vs) {
    out += "\n  [" + v.oracle + "] " + v.detail;
  }
  out += "\n  reproduce with --replay=" + token;
  return out;
}

}  // namespace duti::chaos
