// E13 (extension beyond the paper): what fault tolerance costs.
//
// Three sweeps, all against the distributed threshold tester of [7] at
// fixed (n, k, eps):
//
//  1. Crash faults: minimal q vs crash fraction, naive referee (silence
//     counts as an alarm) vs quorum referee (threshold recalibrated to the
//     survivors). Prediction: the quorum rule's minimum scales like
//     q*(m) ~ sqrt(n/m)/eps^2 with m = (1-c) k survivors, i.e. a factor
//     1/sqrt(1-c) over the fault-free minimum, while the naive rule's
//     uniform side false-alarms itself below the 2/3 bar once
//     c k missing bits exceed its threshold margin (O(sqrt(k)) bits, so a
//     few percent of k) and NO amount of samples rescues it.
//
//  2. Byzantine stuck-at-one bits: minimal q for the naive sum vs
//     median-of-groups vs trimmed-mean aggregation.
//
//  3. Transport: multi-hop convergecast under link drops, naive vs
//     ACK/retransmit (reliable) — delivery fraction, exact-recovery rate,
//     and the honest bit overhead of reliability.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "sim/reliable.hpp"
#include "sweep_specs.hpp"

namespace {

using namespace duti;
using bench::FaultSweepSetup;
using bench::RefereeRule;

/// Minimal q clearing the 2/3 bar (0 if even the cap fails), plus the probe
/// at the found minimum (or at the cap) for rate/abort reporting: the
/// binary search's last probe may be a failing midpoint.
std::pair<std::uint64_t, ProbeResult> at_minimum(const SweepPointResult& p,
                                                 std::uint64_t cap) {
  const std::uint64_t at = p.found ? p.minimum : cap;
  ProbeResult shown = p.audit.back().second;
  for (const auto& [value, probed] : p.audit) {
    if (value == at) shown = probed;
  }
  return {p.minimum, shown};
}

/// Gate bookkeeping: each sweep reports whether every robust rule cleared
/// its advertised bar; main() exits nonzero otherwise so the bench can
/// gate CI instead of silently printing a dead rule.
struct GateResult {
  bool ok = true;
  void fail(const std::string& what) {
    ok = false;
    std::cout << "GATE FAIL: " << what << "\n";
  }
};

bool sweep_crash(const FaultSweepSetup& s) {
  GateResult gate;
  std::cout << "\n-- crash faults: minimal q, naive vs quorum referee --\n";
  const SweepResult sweep = run_sweep(bench::e13_crash_points(s));
  bench::print_sweep_summary("e13_crash", sweep);
  Table table({"crash_frac", "rule", "min_q", "q_ratio", "pred_ratio",
               "uniform_rate", "far_rate", "abort_frac"});
  std::vector<double> xs, measured, predicted;
  std::uint64_t q_free = 0;
  std::size_t i = 0;
  for (const double c : bench::kCrashFractions) {
    for (const RefereeRule rule : bench::kCrashRules) {
      const auto [min_q, probe] = at_minimum(sweep.points[i++], s.cap);
      if (c == 0.0 && rule == RefereeRule::kNaive) {
        q_free = min_q;
      }
      const double ratio =
          (q_free > 0 && min_q > 0)
              ? static_cast<double>(min_q) / static_cast<double>(q_free)
              : 0.0;
      const double pred = 1.0 / std::sqrt(1.0 - c);
      table.add_row({c, std::string(bench::rule_name(rule)),
                     static_cast<std::int64_t>(min_q), ratio, pred,
                     probe.uniform_accept_rate, probe.far_reject_rate,
                     static_cast<double>(probe.aborts()) /
                         static_cast<double>(2 * probe.trials)});
      if (rule == RefereeRule::kQuorum && min_q > 0 && c > 0.0) {
        xs.push_back(1.0 - c);
        measured.push_back(static_cast<double>(min_q));
        predicted.push_back(static_cast<double>(q_free) * pred);
      }
      // The quorum referee advertises surviving every swept crash
      // fraction: failing to find ANY q below the cap means the rule
      // itself is broken, not just expensive.
      if (rule == RefereeRule::kQuorum && min_q == 0) {
        gate.fail("quorum referee found no passing q at crash_frac=" +
                  std::to_string(c));
      }
    }
  }
  table.print(std::cout);
  table.write_csv(bench::output_dir() + "/e13_crash.csv");
  if (xs.size() >= 3) {
    bench::print_shape(xs, measured, predicted,
                       "quorum min q vs survivor fraction");
  }
  return gate.ok;
}

bool sweep_byzantine(const FaultSweepSetup& s) {
  GateResult gate;
  std::cout << "\n-- Byzantine stuck-at-one bits: minimal q by referee --\n";
  const SweepResult sweep = run_sweep(bench::e13_byzantine_points(s));
  bench::print_sweep_summary("e13_byzantine", sweep);
  Table table({"byz_frac", "rule", "min_q", "uniform_rate", "far_rate"});
  std::size_t i = 0;
  for (const double b : bench::kByzantineFractions) {
    for (const RefereeRule rule : bench::kByzantineRules) {
      const auto [min_q, probe] = at_minimum(sweep.points[i++], s.cap);
      table.add_row({b, std::string(bench::rule_name(rule)),
                     static_cast<std::int64_t>(min_q),
                     probe.uniform_accept_rate, probe.far_reject_rate});
      // Advertised bars: median-of-groups absorbs every swept fraction;
      // the trimmed mean holds strictly below its 10% trim floor (at the
      // floor the stuck bits exactly fill the trimmed slots and the rule
      // is expected to die — the naive rule is never gated at all).
      const bool must_pass = rule == RefereeRule::kMedianOfGroups ||
                             (rule == RefereeRule::kTrimmed && b < 0.1 - 1e-9);
      if (must_pass && min_q == 0) {
        gate.fail(std::string(bench::rule_name(rule)) +
                  " referee found no passing q at byz_frac=" +
                  std::to_string(b));
      }
    }
  }
  table.print(std::cout);
  table.write_csv(bench::output_dir() + "/e13_byzantine.csv");
  return gate.ok;
}

bool sweep_transport(std::size_t trials, std::uint64_t seed) {
  GateResult gate;
  std::cout << "\n-- convergecast transport: naive vs ACK/retransmit --\n";
  struct Topo {
    const char* name;
    std::uint32_t k;
    void (*build)(Network&);
  };
  const Topo topos[] = {
      {"path8", 8, [](Network& n) { add_path(n); }},
      {"grid4x4", 16, [](Network& n) { add_grid(n, 4, 4); }},
      {"btree15", 15, [](Network& n) { add_binary_tree(n); }},
  };
  Table table({"topology", "drop", "naive_deliv", "rel_deliv", "rel_exact",
               "retx_per_msg", "overhead_x"});
  for (const auto& topo : topos) {
    for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.3}) {
      double naive_deliv = 0, rel_deliv = 0, rel_exact = 0;
      double retx = 0, data = 0, rel_bits = 0, naive_bits = 0;
      std::vector<std::uint64_t> values(topo.k, 1);
      const double expected = static_cast<double>(topo.k);
      for (std::size_t t = 0; t < trials; ++t) {
        Network net(topo.k);
        topo.build(net);
        net.set_default_fault({drop, 0.0});
        const auto tree = bfs_spanning_tree(net, 0);
        Rng rng = make_rng(seed, 0xE13, t);
        const auto rel =
            convergecast_sum_reliable(net, tree, values, 16, rng);
        rel_deliv += rel.delivery_fraction();
        rel_exact += (rel.root_sum == topo.k) ? 1.0 : 0.0;
        retx += static_cast<double>(rel.transport.retransmissions);
        data += static_cast<double>(rel.transport.data_sent);
        rel_bits += static_cast<double>(rel.stats.bits_sent);
        Network net2(topo.k);
        topo.build(net2);
        net2.set_default_fault({drop, 0.0});
        Rng rng2 = make_rng(seed, 0xE13, t);
        const auto naive = convergecast_sum(net2, tree, values, 16, rng2);
        naive_deliv += static_cast<double>(naive.root_sum) / expected;
        naive_bits += static_cast<double>(naive.stats.bits_sent);
      }
      const auto tn = static_cast<double>(trials);
      table.add_row({std::string(topo.name), drop, naive_deliv / tn,
                     rel_deliv / tn, rel_exact / tn, retx / data,
                     rel_bits / naive_bits});
      // ACK/retransmit advertises (near-)exact recovery across the whole
      // sweep; measured rates sit at 0.98+ even at 30% drop, so 0.9 leaves
      // room for trial noise without letting a real regression through.
      if (rel_exact / tn < 0.9) {
        gate.fail(std::string("reliable transport exact-recovery ") +
                  std::to_string(rel_exact / tn) + " < 0.9 on " + topo.name +
                  " at drop=" + std::to_string(drop));
      }
    }
  }
  table.print(std::cout);
  table.write_csv(bench::output_dir() + "/e13_transport.csv");
  return gate.ok;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "e13_fault_tolerance --n=256 --k=60 --eps=0.5 "
                 "--trials=150 --seed=1 --quick\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  FaultSweepSetup s;
  s.n = cli.get_uint<std::uint64_t>("n", 256);
  s.k = cli.get_uint<unsigned>("k", 60);
  s.eps = cli.get_double("eps", 0.5);
  // --quick lowers the default budget only; an explicit --trials wins.
  s.trials = cli.get_uint<std::size_t>(
      "trials", flags.quick ? std::size_t{60} : flags.trials);
  s.seed = flags.seed;
  s.cap = flags.quick ? (1 << 8) : (1 << 10);
  cli.reject_unread();

  bench::banner(
      "E13: fault tolerance — crash/Byzantine referees and reliable "
      "transport (extension)",
      "expected: naive referee dies at a few percent crashed players\n"
      "(min_q = 0 means no q below the cap clears 2/3); quorum referee\n"
      "tracks q_free/sqrt(1-c); median/trimmed absorb stuck-at-one bits;\n"
      "ACK/retransmit restores exact sums under drops at a measured bit "
      "cost.");
  std::cout << "n=" << s.n << " k=" << s.k << " eps=" << s.eps
            << " trials=" << s.trials << " seed=" << s.seed
            << " q_cap=" << s.cap << "\n";

  bool ok = true;
  ok &= sweep_crash(s);
  ok &= sweep_byzantine(s);
  ok &= sweep_transport(s.trials, s.seed);
  std::cout << "\nCSV written to " << bench::output_dir()
            << "/e13_{crash,byzantine,transport}.csv\n";
  if (!ok) {
    std::cout << "\nE13: at least one robust rule fell below its advertised "
                 "success bar (see GATE FAIL lines above)\n";
    return 1;
  }
  return 0;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
