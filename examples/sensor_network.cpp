// Sensor network anomaly detection — the paper's first motivating scenario.
//
// A base station and a field of sensors monitor an environment. Each
// sensor draws q measurements per epoch; measurements are calibrated so
// that a healthy environment produces UNIFORM readings over n buckets,
// while a malfunction or attack skews them (eps-far from uniform).
//
// Two deployments are compared on the round-based network simulator:
//
//   LOCAL (AND rule)     — a sensor transmits only to raise an alarm; the
//                          base station alarms if anyone alarms. Cheap,
//                          local, silent in the common case — but per
//                          Theorem 1.2 it needs many more samples.
//   REFEREE (threshold)  — every sensor sends its 1-bit verdict; the base
//                          station alarms when >= T sensors look unhappy.
//                          Sample-optimal (Theorem 1.1) but every node
//                          talks every epoch.
//
// A third section demonstrates graceful degradation on a multi-hop relay
// grid: votes are convergecast to the base station over lossy links (10%
// drop) with one crashed relay. The naive convergecast silently loses the
// crashed relay's whole subtree; the ACK/retransmit convergecast re-parents
// the orphaned relays and delivers every surviving vote, and its
// degradation report says exactly what was lost.
//
//   ./sensor_network [--n=1024] [--sensors=32] [--eps=0.5] [--q=96]
#include <iostream>

#include "dist/generators.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "util/cli.hpp"
#include "util/confidence.hpp"
#include "util/table.hpp"

namespace {

using namespace duti;

struct EpochResult {
  bool alarm = false;
  std::uint64_t bits_sent = 0;
  unsigned rounds = 0;
};

/// One epoch on the network simulator. `local_threshold` is each sensor's
/// alarm cutoff on its collision count; `referee_min_alarms` = 0 selects
/// the LOCAL deployment (alarm-only transmission, OR/AND semantics).
EpochResult run_epoch(const SampleSource& environment, unsigned sensors,
                      unsigned q, double local_threshold,
                      std::uint64_t referee_min_alarms, Rng& rng) {
  Network net(sensors + 1);  // node 0 = base station
  net.add_star(0);

  std::uint64_t alarms_received = 0, verdicts_received = 0;
  bool base_alarm = false;

  net.set_behavior(0, [&](RoundContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      if (referee_min_alarms == 0) {
        ++alarms_received;  // LOCAL: any message IS an alarm
      } else {
        ++verdicts_received;
        alarms_received += m.payload.at(0);  // REFEREE: 1 = unhappy
      }
    }
    if (ctx.round() >= 1) {
      base_alarm = referee_min_alarms == 0
                       ? alarms_received > 0
                       : alarms_received >= referee_min_alarms;
      ctx.halt();
    }
  });

  const std::uint64_t run_seed = rng();
  for (NodeId s = 1; s <= sensors; ++s) {
    net.set_behavior(s, [&, s](RoundContext& ctx) {
      std::vector<std::uint64_t> readings;
      environment.sample_many(ctx.rng(), q, readings);
      const bool unhappy =
          static_cast<double>(collision_pairs(
              readings, environment.domain_size())) > local_threshold;
      if (referee_min_alarms == 0) {
        if (unhappy) ctx.send(0, {1}, 1);  // speak only to raise an alarm
      } else {
        ctx.send(0, {unhappy ? 1ULL : 0ULL}, 1);  // always report
      }
      ctx.halt();
    });
  }
  Rng net_rng(run_seed);
  const auto stats = net.run(net_rng);
  return {base_alarm, stats.bits_sent, stats.rounds_executed};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1024));
  const auto sensors = static_cast<unsigned>(cli.get_int("sensors", 32));
  const double eps = cli.get_double("eps", 0.5);
  const auto q = static_cast<unsigned>(cli.get_int("q", 96));
  const auto epochs = static_cast<int>(cli.get_int("epochs", 150));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));

  std::cout << "sensor network: " << sensors << " sensors + base station, "
            << q << " measurements/sensor/epoch, healthy = uniform over "
            << n << " buckets, anomaly = " << eps << "-far\n\n";

  const double lambda =
      expected_collision_pairs_uniform(static_cast<double>(n), q);
  // LOCAL deployment: per-sensor false-alarm budget 1/(3*sensors) -> high
  // local bar (the DistributedAndTester recipe).
  const DistributedAndTester and_recipe({n, sensors, q, eps});
  const double local_bar = and_recipe.local_threshold();
  // REFEREE deployment: vote at the uniform mean; alarm when >= T unhappy.
  Rng calib_rng = make_rng(seed, 0);
  const DistributedThresholdTester ref_recipe({n, sensors, q, eps},
                                              calib_rng);

  const UniformSource healthy(n);
  SuccessCounter local_false, local_detect, ref_false, ref_detect;
  std::uint64_t local_bits = 0, ref_bits = 0;
  for (int e = 0; e < epochs; ++e) {
    // Healthy epochs.
    Rng r1 = make_rng(seed, 1, e);
    const auto local_h = run_epoch(healthy, sensors, q, local_bar, 0, r1);
    local_false.record(local_h.alarm);
    local_bits += local_h.bits_sent;
    Rng r2 = make_rng(seed, 2, e);
    const auto ref_h = run_epoch(healthy, sensors, q, lambda,
                                 ref_recipe.referee_threshold(), r2);
    ref_false.record(ref_h.alarm);
    ref_bits += ref_h.bits_sent;
    // Anomalous epochs (fresh anomaly each time).
    Rng gen_rng = make_rng(seed, 3, e);
    const DistributionSource anomaly(gen::paninski(n, eps, gen_rng));
    Rng r3 = make_rng(seed, 4, e);
    local_detect.record(
        run_epoch(anomaly, sensors, q, local_bar, 0, r3).alarm);
    Rng r4 = make_rng(seed, 5, e);
    ref_detect.record(run_epoch(anomaly, sensors, q, lambda,
                                ref_recipe.referee_threshold(), r4)
                          .alarm);
  }

  Table table({"deployment", "false-alarm rate", "detection rate",
               "bits/healthy epoch"});
  table.add_row({std::string("LOCAL (AND rule)"), local_false.rate(),
                 local_detect.rate(),
                 static_cast<double>(local_bits) / epochs});
  table.add_row({std::string("REFEREE (threshold)"), ref_false.rate(),
                 ref_detect.rate(), static_cast<double>(ref_bits) / epochs});
  table.print(std::cout, "one epoch, same q per sensor");

  std::cout
      << "\nThe LOCAL deployment is silent when healthy (cheap!) but at this "
         "q it misses most anomalies;\nthe paper's Theorem 1.2 says that is "
         "inherent: the AND rule needs ~sqrt(n)/eps^2 samples per sensor\n"
         "regardless of the network size, while the threshold deployment "
         "already works at sqrt(n/k)/eps^2.\n";
  // --- Part 3: graceful degradation on a faulty multi-hop relay grid. ---
  //
  // 4x4 relay grid, base station at corner 0, the other 15 relays each
  // hold a 1-bit verdict. Every link drops 10% of messages and relay 5
  // (an interior router) is crashed. Votes travel to the base by
  // convergecast: naively (fire and forget) or reliably (ACK/retransmit +
  // re-parenting around the crash).
  const std::uint32_t rows = 4, cols = 4;
  const auto relays = static_cast<unsigned>(rows * cols - 1);
  const double vote_bar = lambda;  // vote at the uniform collision mean
  Rng grid_calib = make_rng(seed, 6);
  const DistributedThresholdTester grid_recipe({n, relays, q, eps},
                                               grid_calib);
  const auto alarm_t = grid_recipe.referee_threshold();

  auto votes_for = [&](const SampleSource& env, Rng& rng) {
    std::vector<std::uint64_t> values(rows * cols, 0);
    std::vector<std::uint64_t> readings;
    for (NodeId s = 1; s < rows * cols; ++s) {
      Rng sensor_rng = make_rng(rng(), s);
      env.sample_many(sensor_rng, q, readings);
      values[s] = static_cast<double>(collision_pairs(
                      readings, env.domain_size())) > vote_bar
                      ? 1
                      : 0;
    }
    return values;
  };
  auto make_faulty_grid = [&](Network& net) {
    add_grid(net, rows, cols);
    net.set_default_fault({0.10, 0.0});  // 10% drop on every link
    net.schedule_crash(5, 0);            // one dead interior relay
  };

  SuccessCounter naive_detect, rel_detect, naive_false, rel_false;
  std::uint64_t naive_grid_bits = 0, rel_grid_bits = 0;
  ReliableConvergecastResult last_report;
  for (int e = 0; e < epochs; ++e) {
    auto one_epoch = [&](const SampleSource& env, std::uint64_t stream) {
      Rng vote_rng = make_rng(seed, stream, e);
      const auto values = votes_for(env, vote_rng);
      Network net(rows * cols);
      make_faulty_grid(net);
      const auto tree = bfs_spanning_tree(net, 0);
      Rng rel_rng = make_rng(seed, stream, e, 1);
      const auto rel = convergecast_sum_reliable(net, tree, values, 8,
                                                 rel_rng);
      Network net2(rows * cols);
      make_faulty_grid(net2);
      Rng naive_rng = make_rng(seed, stream, e, 2);
      const auto naive = convergecast_sum(net2, tree, values, 8, naive_rng);
      rel_grid_bits += rel.stats.bits_sent;
      naive_grid_bits += naive.stats.bits_sent;
      return std::pair{naive.root_sum >= alarm_t, rel};
    };
    const auto [naive_h, rel_h] = one_epoch(healthy, 7);
    naive_false.record(naive_h);
    rel_false.record(rel_h.root_sum >= alarm_t);
    Rng gen_rng = make_rng(seed, 8, e);
    const DistributionSource anomaly(gen::paninski(n, eps, gen_rng));
    const auto [naive_a, rel_a] = one_epoch(anomaly, 9);
    naive_detect.record(naive_a);
    rel_detect.record(rel_a.root_sum >= alarm_t);
    last_report = rel_a;
  }

  std::cout << "\nrelay grid " << rows << "x" << cols
            << ", 10% link drop, relay 5 crashed, alarm at >= " << alarm_t
            << " of " << relays << " votes:\n";
  Table degraded({"convergecast", "false-alarm rate", "detection rate",
                  "bits/epoch"});
  degraded.add_row({std::string("naive (fire-and-forget)"),
                    naive_false.rate(), naive_detect.rate(),
                    static_cast<double>(naive_grid_bits) / epochs});
  degraded.add_row({std::string("reliable (ACK/retransmit)"),
                    rel_false.rate(), rel_detect.rate(),
                    static_cast<double>(rel_grid_bits) / epochs});
  degraded.print(std::cout);

  std::cout << "\ndegradation report (last anomalous epoch):\n"
            << "  votes reached base   : " << last_report.values_reached
            << " / " << last_report.values_total << " ("
            << format_double(100.0 * last_report.delivery_fraction(), 3)
            << "%)\n"
            << "  votes lost (no route): " << last_report.values_lost
            << "\n  re-parent events     : " << last_report.reparent_events
            << "\n  retransmissions      : "
            << last_report.transport.retransmissions
            << "\n  overhead bits        : "
            << last_report.transport.overhead_bits << " (payload "
            << last_report.transport.payload_bits << ")\n"
            << "\nThe naive convergecast silences the crashed relay's whole "
               "subtree and every subtree\nbehind a dropped message; the "
               "reliable one re-parents around the crash and loses\nonly the "
               "dead relay's own vote — detection survives at a measured "
               "bit premium.\n";

  const bool ok = ref_detect.rate() > local_detect.rate() &&
                  ref_false.rate() < 1.0 / 3.0 &&
                  rel_detect.rate() > naive_detect.rate() &&
                  rel_false.rate() < 1.0 / 3.0;
  return ok ? 0 : 1;
}
