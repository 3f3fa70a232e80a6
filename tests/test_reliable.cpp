#include "sim/reliable.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace duti {
namespace {

std::uint64_t sum_of(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

TEST(ReliableConfig, ExponentialBackoffWindow) {
  ReliableConfig cfg;
  cfg.max_retries = 4;
  EXPECT_EQ(cfg.timeout(0), 2u);
  EXPECT_EQ(cfg.timeout(1), 4u);
  EXPECT_EQ(cfg.timeout(2), 8u);
  EXPECT_EQ(cfg.timeout(3), 16u);
  EXPECT_EQ(cfg.window(), 2u + 4u + 8u + 16u + 32u);
  EXPECT_EQ(cfg.header_bits(), 18u);
}

TEST(ReliableEndpoint, DeliversEverythingOnceUnderHeavyDrop) {
  const unsigned kMessages = 20;
  Network net(2);
  net.add_edge(0, 1);
  net.add_edge(1, 0);
  net.set_default_fault({0.4, 0.0});  // 40% loss both directions
  ReliableConfig cfg;
  cfg.max_retries = 10;
  ReliableEndpoint tx(cfg), rx(cfg);
  std::vector<std::uint64_t> delivered;
  net.set_behavior(0, [&](RoundContext& ctx) {
    (void)tx.receive(ctx);  // settle ACKs
    if (ctx.round() < kMessages) tx.send(1, {ctx.round()}, 8);
    tx.flush(ctx);
    if (ctx.round() > kMessages && tx.idle()) ctx.halt();
  });
  net.set_behavior(1, [&](RoundContext& ctx) {
    for (auto& d : rx.receive(ctx)) delivered.push_back(d.payload.at(0));
    rx.flush(ctx);
    if (ctx.round() >= 400) ctx.halt();
  });
  Rng rng(2001);
  net.run(rng, 500);
  ASSERT_EQ(delivered.size(), kMessages);
  std::sort(delivered.begin(), delivered.end());
  for (unsigned i = 0; i < kMessages; ++i) EXPECT_EQ(delivered[i], i);
  EXPECT_EQ(rx.stats().delivered, kMessages);
  EXPECT_GT(tx.stats().retransmissions, 0u);  // 40% loss forces retries
  EXPECT_EQ(tx.stats().failed, 0u);
  EXPECT_EQ(tx.stats().payload_bits, 8u * kMessages);
  EXPECT_GT(tx.stats().overhead_bits, 0u);
  EXPECT_GT(rx.stats().acks_sent, 0u);
}

TEST(ReliableEndpoint, BoundedRetriesReportFailure) {
  Network net(2);
  net.add_edge(0, 1);
  net.add_edge(1, 0);
  net.set_link_fault(0, 1, {1.0, 0.0});  // data link fully dead
  ReliableConfig cfg;
  cfg.max_retries = 3;
  ReliableEndpoint tx(cfg);
  std::vector<FailedSend> failures;
  net.set_behavior(0, [&](RoundContext& ctx) {
    (void)tx.receive(ctx);
    if (ctx.round() == 0) tx.send(1, {77, 5}, 8);
    tx.flush(ctx);
    for (auto& f : tx.take_failures()) failures.push_back(std::move(f));
    if (!failures.empty()) ctx.halt();
  });
  net.set_behavior(1, [](RoundContext& ctx) {
    if (ctx.round() >= 200) ctx.halt();
  });
  Rng rng(2002);
  net.run(rng, 300);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].to, 1u);
  EXPECT_EQ(failures[0].payload, (std::vector<std::uint64_t>{77, 5}));
  EXPECT_EQ(failures[0].bit_size, 8u);  // app bits handed back unframed
  EXPECT_EQ(tx.stats().failed, 1u);
  EXPECT_EQ(tx.stats().retransmissions, 3u);
}

TEST(ReliableConvergecast, MatchesNaiveOnCleanNetwork) {
  Network net(9);
  add_grid(net, 3, 3);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values(9);
  std::iota(values.begin(), values.end(), 10);  // sum 126
  Rng rng(3001);
  const auto result = convergecast_sum_reliable(net, tree, values, 8, rng);
  EXPECT_EQ(result.root_sum, 126u);
  EXPECT_EQ(result.values_reached, 9u);
  EXPECT_EQ(result.values_lost, 0u);
  EXPECT_EQ(result.reparent_events, 0u);
  EXPECT_EQ(result.transport.retransmissions, 0u);
  EXPECT_EQ(result.transport.failed, 0u);
  // Clean runs finish in O(height) rounds, not the full fault budget.
  EXPECT_LE(result.stats.rounds_executed, 4u * (tree.height + 2));
}

// Acceptance criterion: under 10% link drop, retransmission recovers the
// exact fault-free sum on path, grid, and tree topologies.
TEST(ReliableConvergecast, ExactRecoveryUnderTenPercentDrop) {
  struct Topo {
    const char* name;
    std::uint32_t k;
    void (*build)(Network&);
  };
  const Topo topos[] = {
      {"path", 8, [](Network& n) { add_path(n); }},
      {"grid4x4", 16, [](Network& n) { add_grid(n, 4, 4); }},
      {"btree", 15, [](Network& n) { add_binary_tree(n); }},
  };
  std::uint64_t total_retransmissions = 0;
  for (const auto& topo : topos) {
    Network net(topo.k);
    topo.build(net);
    net.set_default_fault({0.10, 0.0});  // 10% drop on every link
    const auto tree = bfs_spanning_tree(net, 0);
    std::vector<std::uint64_t> values(topo.k);
    std::iota(values.begin(), values.end(), 1);
    const std::uint64_t expected = sum_of(values);
    Rng rng(4001);
    const auto result =
        convergecast_sum_reliable(net, tree, values, 16, rng);
    EXPECT_EQ(result.root_sum, expected) << topo.name;
    EXPECT_EQ(result.values_reached, topo.k) << topo.name;
    EXPECT_EQ(result.values_lost, 0u) << topo.name;
    total_retransmissions += result.transport.retransmissions;
    // The naive convergecast on the same faulty network does NOT recover:
    // a dropped partial sum silences its subtree.
    Network naive_net(topo.k);
    topo.build(naive_net);
    naive_net.set_default_fault({0.10, 0.0});
    Rng naive_rng(4001);
    const auto naive =
        convergecast_sum(naive_net, tree, values, 16, naive_rng);
    EXPECT_LE(naive.root_sum, expected) << topo.name;
  }
  EXPECT_GT(total_retransmissions, 0u);  // the drops really happened
}

TEST(ReliableConvergecast, PathCrashSeversDownstreamAndReportsIt) {
  // 0-1-2-3-4 with node 2 crashed: no alternative route exists, so the
  // values of 3 and 4 are abandoned (reported, not silently dropped),
  // and the root still gets the surviving prefix exactly.
  Network net(5);
  add_path(net);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values{100, 200, 300, 400, 500};
  net.schedule_crash(2, 0);
  Rng rng(5001);
  const auto result = convergecast_sum_reliable(net, tree, values, 16, rng);
  EXPECT_EQ(result.root_sum, 300u);  // 100 + 200
  EXPECT_EQ(result.values_reached, 2u);
  EXPECT_EQ(result.values_lost, 2u);  // nodes 3 and 4 (crashed 2 is neither)
  EXPECT_EQ(result.reparent_events, 0u);
  EXPECT_EQ(result.stats.nodes_crashed, 1u);
}

TEST(ReliableConvergecast, GridCrashTriggersSelfHealingReparent) {
  // 4x4 grid, BFS tree from corner 0. Crashing node 1 orphans the column
  // subtree rooted at 2 (no alternative parent at smaller depth), but node
  // 5 re-parents to node 4 and its whole subtree {5, 9, 13} survives.
  Network net(16);
  add_grid(net, 4, 4);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values(16, 1);
  net.schedule_crash(1, 0);
  Rng rng(6001);
  const auto result = convergecast_sum_reliable(net, tree, values, 16, rng);
  EXPECT_GE(result.reparent_events, 1u);
  // Survivors: {0, 4, 8, 12} (left column) + {5, 9, 13} (re-parented).
  EXPECT_EQ(result.values_reached, 7u);
  EXPECT_EQ(result.root_sum, 7u);
  // Column 2-3 subtree (8 nodes) had no route and is accounted as lost.
  EXPECT_EQ(result.values_lost, 8u);
  EXPECT_DOUBLE_EQ(result.delivery_fraction(), 7.0 / 16.0);
}

TEST(ReliableConvergecast, ConservesMessagesUnderStackedFaults) {
  // Chaos-engine invariant (DESIGN.md section 10): every message sent is
  // either delivered or accounted lost, even when corruption bursts, an
  // outage window, delay, and a mid-run crash all stack in one run.
  Network net(12);
  add_grid(net, 3, 4);
  const auto tree = bfs_spanning_tree(net, 0);
  LinkFault noisy;
  noisy.corrupt_prob = 0.3;  // corruption delivers (scrambled), drop loses
  noisy.drop_prob = 0.2;
  noisy.delay_prob = 0.25;
  noisy.delay_rounds = 2;
  net.set_link_fault(1, 0, noisy);
  LinkFault dark;
  dark.outage_lo = 0;
  dark.outage_hi = 6;
  net.set_link_fault(4, 0, dark);
  net.schedule_crash(7, 2);
  std::vector<std::uint64_t> values(12, 1);
  Rng rng(7707);
  const auto result = convergecast_sum_reliable(net, tree, values, 16, rng);
  EXPECT_TRUE(result.stats.conserves_messages())
      << "sent=" << result.stats.messages_sent
      << " delivered=" << result.stats.messages_delivered
      << " lost=" << result.stats.messages_lost();
  EXPECT_GT(result.stats.messages_delivered, 0u);
  EXPECT_GT(result.stats.messages_lost(), 0u);  // the faults really fired
  // The transport's own ledger must close too.
  EXPECT_EQ(result.transport.payload_bits + result.transport.overhead_bits,
            result.stats.bits_sent);
}

TEST(ReliableConvergecast, DeterministicUnderFixedSeed) {
  auto run_once = [](std::uint64_t seed) {
    Network net(12);
    add_grid(net, 3, 4);
    net.set_default_fault({0.2, 0.0});
    net.schedule_crash(5, 3);
    const auto tree = bfs_spanning_tree(net, 0);
    std::vector<std::uint64_t> values(12, 3);
    Rng rng(seed);
    return convergecast_sum_reliable(net, tree, values, 8, rng);
  };
  const auto a = run_once(7001);
  const auto b = run_once(7001);
  EXPECT_EQ(a.root_sum, b.root_sum);
  EXPECT_EQ(a.values_reached, b.values_reached);
  EXPECT_EQ(a.values_lost, b.values_lost);
  EXPECT_EQ(a.reparent_events, b.reparent_events);
  EXPECT_EQ(a.transport.retransmissions, b.transport.retransmissions);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.bits_sent, b.stats.bits_sent);
}

TEST(ReliableConvergecast, HonestOverheadAccounting) {
  // Reliability is not free: the reliable run charges strictly more bits
  // than the naive one on the same clean topology, and the overhead is
  // itemized (headers + ACKs + retransmissions).
  Network net(9);
  add_grid(net, 3, 3);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values(9, 2);
  Rng rng1(8001);
  const auto reliable =
      convergecast_sum_reliable(net, tree, values, 8, rng1);
  Network net2(9);
  add_grid(net2, 3, 3);
  Rng rng2(8001);
  const auto naive = convergecast_sum(net2, tree, values, 8, rng2);
  EXPECT_EQ(reliable.root_sum, naive.root_sum);
  EXPECT_GT(reliable.stats.bits_sent, naive.stats.bits_sent);
  EXPECT_EQ(reliable.transport.payload_bits +
                reliable.transport.overhead_bits,
            reliable.stats.bits_sent);
}

}  // namespace
}  // namespace duti
