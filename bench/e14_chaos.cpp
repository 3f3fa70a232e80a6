// E14 (extension beyond the paper): chaos campaign over the fault-tolerant
// simulation stack.
//
// Sweeps N seeded random fault schedules (crash sets, outage windows,
// corruption/delay bursts, Byzantine subsets, combined stacks) over the
// sim network + reliable transport + self-healing convergecast + robust
// referee, checking the oracle registry after every run: message
// conservation, transport accounting, bit-identical token replay, and —
// for schedules inside the transport's provable tolerance — exact verdict
// agreement with the analytic prediction and the fault-free baseline.
// Any violation is shrunk to a minimal reproducer and printed as a replay
// token; rerun it with --replay=<token>. The process exits nonzero when
// any oracle fired, so the campaign can gate CI.
//
//   e14_chaos --seeds=256 --seed0=1 --quick
//   e14_chaos --replay='chaos1;t=path;vp=10;...'
//   e14_chaos --inject-retry-deficit=4   # demo: watch the oracles catch it
//
// The JSON summary lands in $DUTI_BENCH_OUT/BENCH_chaos.json.
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "chaos/engine.hpp"
#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"

namespace {

using namespace duti;
using namespace duti::chaos;

void print_run(const RunResult& r) {
  std::cout << "  outcome=" << static_cast<int>(r.outcome)
            << " root_sum=" << r.root_sum << " reached=" << r.values_reached
            << " lost=" << r.values_lost
            << " reparents=" << r.reparent_events
            << " msgs=" << r.net.messages_sent << " (delivered "
            << r.net.messages_delivered << ", lost " << r.net.messages_lost()
            << ")\n  fingerprint=" << std::hex << r.fingerprint() << std::dec
            << "\n";
}

int replay_mode(const std::string& token, const ChaosHooks& hooks) {
  std::cout << "replaying: " << token << "\n";
  const ScenarioSpec spec = parse_token(token);
  const ScenarioReport report = check_scenario(spec, hooks);
  print_run(report.run);
  if (report.violations.empty()) {
    std::cout << "all oracles clean\n";
    return 0;
  }
  std::cout << describe_failure(report.token, report.violations) << "\n";
  return 1;
}

void write_json(const CampaignConfig& cfg, const CampaignSummary& summary) {
  std::string failures = "[";
  for (std::size_t i = 0; i < summary.failures.size(); ++i) {
    const CampaignFailure& fail = summary.failures[i];
    std::string oracles;
    for (std::size_t v = 0; v < fail.violations.size(); ++v) {
      if (v > 0) oracles += ", ";
      oracles += bench::json_str(fail.violations[v].oracle);
    }
    failures += i == 0 ? "\n" : ",\n";
    failures += "    {\"seed\": " + bench::json_u64(fail.seed) +
                ", \"components\": " + bench::json_u64(fail.components) +
                ", \"shrunk_components\": " +
                bench::json_u64(fail.shrunk_components) +
                ",\n     \"token\": " + bench::json_str(fail.token) +
                ",\n     \"shrunk_token\": " +
                bench::json_str(fail.shrunk_token) +
                ",\n     \"oracles\": [" + oracles + "]}";
  }
  failures += summary.failures.empty() ? "]" : "\n  ]";
  char fp[24];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(summary.fingerprint));
  const std::string path = bench::emit_bench_json(
      "chaos", bench::resolved_env(),
      {{"seed0", bench::json_u64(summary.seed0)},
       {"num_seeds", bench::json_u64(summary.num_seeds)},
       {"retry_deficit", bench::json_u64(cfg.hooks.retry_deficit)},
       {"total_components", bench::json_u64(summary.total_components)},
       {"outcomes",
        "{\"accept\": " + bench::json_u64(summary.outcome_counts[0]) +
            ", \"reject\": " + bench::json_u64(summary.outcome_counts[1]) +
            ", \"abort_quorum\": " +
            bench::json_u64(summary.outcome_counts[2]) + "}"},
       {"campaign_fingerprint", bench::json_str(fp)},
       {"violations", bench::json_u64(summary.failures.size())},
       {"failures", failures}});
  if (!path.empty()) std::cout << "JSON summary written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e14_chaos --seeds=256 --seed0=1 --quick "
                 "[--replay=<token>] [--inject-retry-deficit=N]\n";
    return 0;
  }
  ChaosHooks hooks;
  hooks.retry_deficit = cli.get_uint<unsigned>("inject-retry-deficit", 0);
  const std::string token = cli.get_string("replay", "");
  CampaignConfig cfg;
  cfg.seed0 = cli.get_uint<std::uint64_t>("seed0", 1);
  // --quick lowers the default seed count only; an explicit --seeds wins.
  cfg.num_seeds = cli.get_uint<std::uint32_t>(
      "seeds", cli.get_bool("quick", false) ? 64u : 256u);
  cfg.hooks = hooks;
  cli.reject_unread();
  // A campaign over zero schedules checks nothing, so it may not pass.
  require(cfg.num_seeds >= 1, "e14_chaos: --seeds must be >= 1, got 0");

  if (!token.empty()) return replay_mode(token, hooks);

  bench::banner(
      "E14: chaos campaign — seeded fault schedules vs the oracle registry "
      "(extension)",
      "expected: zero violations on the shipped tree, bit-identically at\n"
      "any DUTI_THREADS; with --inject-retry-deficit the predicted-verdict\n"
      "oracle flags in-tolerance outage schedules and shrinks them to\n"
      "minimal replay tokens.");
  std::cout << "seed0=" << cfg.seed0 << " seeds=" << cfg.num_seeds
            << " retry_deficit=" << cfg.hooks.retry_deficit
            << " threads=" << ThreadPool::global().size() << "\n\n";

  const CampaignSummary summary = run_campaign(cfg, ThreadPool::global());

  Table table({"outcome", "runs"});
  const char* names[3] = {"accept", "reject", "abort_quorum"};
  for (int i = 0; i < 3; ++i) {
    table.add_row({std::string(names[i]),
                   static_cast<std::int64_t>(summary.outcome_counts[i])});
  }
  table.print(std::cout);
  std::cout << "total fault components: " << summary.total_components
            << "\ncampaign fingerprint:   " << std::hex
            << summary.fingerprint << std::dec << "\n";

  for (const CampaignFailure& fail : summary.failures) {
    std::cout << "\nseed " << fail.seed << " (" << fail.components
              << " components, shrunk to " << fail.shrunk_components
              << "):\n"
              << describe_failure(fail.shrunk_token, fail.violations)
              << "\n";
  }

  write_json(cfg, summary);

  if (!summary.clean()) {
    std::cout << "\nCHAOS: " << summary.failures.size() << " of "
              << cfg.num_seeds << " schedules violated an oracle\n";
    return 1;
  }
  std::cout << "\nall " << cfg.num_seeds << " schedules clean\n";
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
