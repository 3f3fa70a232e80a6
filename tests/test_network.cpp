#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(Network, ConstructionAndEdges) {
  Network net(4);
  EXPECT_EQ(net.num_nodes(), 4u);
  EXPECT_FALSE(net.has_edge(0, 1));
  net.add_edge(0, 1);
  EXPECT_TRUE(net.has_edge(0, 1));
  EXPECT_FALSE(net.has_edge(1, 0));  // directed
  EXPECT_THROW(net.add_edge(0, 0), InvalidArgument);
  EXPECT_THROW(net.add_edge(0, 9), InvalidArgument);
}

TEST(Network, StarTopology) {
  Network net(5);
  net.add_star(0);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_TRUE(net.has_edge(v, 0));
    EXPECT_TRUE(net.has_edge(0, v));
  }
  EXPECT_FALSE(net.has_edge(1, 2));
}

TEST(Network, MissingBehaviorThrows) {
  Network net(2);
  net.set_behavior(0, [](RoundContext& ctx) { ctx.halt(); });
  Rng rng(1);
  EXPECT_THROW(net.run(rng), Error);
}

TEST(Network, HaltsWhenAllNodesHalt) {
  Network net(3);
  for (NodeId v = 0; v < 3; ++v) {
    net.set_behavior(v, [](RoundContext& ctx) {
      if (ctx.round() >= 2) ctx.halt();
    });
  }
  Rng rng(2);
  const auto stats = net.run(rng, 100);
  EXPECT_EQ(stats.rounds_executed, 3u);  // rounds 0,1,2
}

TEST(Network, MaxRoundsCapsExecution) {
  Network net(1);
  net.set_behavior(0, [](RoundContext&) { /* never halts */ });
  Rng rng(3);
  const auto stats = net.run(rng, 7);
  EXPECT_EQ(stats.rounds_executed, 7u);
}

TEST(Network, StarVoteAggregation) {
  // Leaves send their id+10 to the center in round 0; center sums in
  // round 1. End-to-end single-round aggregation — the referee pattern.
  Network net(4);
  net.add_star(0);
  std::uint64_t total_received = 0;
  net.set_behavior(0, [&total_received](RoundContext& ctx) {
    for (const auto& m : ctx.inbox()) {
      total_received += m.payload.at(0);
    }
    if (ctx.round() >= 1) ctx.halt();
  });
  for (NodeId v = 1; v < 4; ++v) {
    net.set_behavior(v, [](RoundContext& ctx) {
      ctx.send(0, {ctx.id() + 10ULL}, 8);
      ctx.halt();
    });
  }
  Rng rng(4);
  const auto stats = net.run(rng);
  EXPECT_EQ(total_received, 11u + 12u + 13u);
  EXPECT_EQ(stats.messages_sent, 3u);
  EXPECT_EQ(stats.bits_sent, 24u);
}

TEST(Network, SendingAlongNonEdgeThrows) {
  Network net(3);
  net.add_edge(0, 1);
  net.set_behavior(0, [](RoundContext& ctx) {
    ctx.send(2, {1}, 1);  // no edge 0 -> 2
    ctx.halt();
  });
  net.set_behavior(1, [](RoundContext& ctx) { ctx.halt(); });
  net.set_behavior(2, [](RoundContext& ctx) { ctx.halt(); });
  Rng rng(5);
  EXPECT_THROW(net.run(rng), InvalidArgument);
}

TEST(Network, MessagesDeliveredNextRound) {
  Network net(2);
  net.add_edge(0, 1);
  unsigned delivery_round = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() == 0) ctx.send(1, {99}, 7);
    if (ctx.round() >= 1) ctx.halt();
  });
  net.set_behavior(1, [&delivery_round](RoundContext& ctx) {
    if (!ctx.inbox().empty()) {
      delivery_round = ctx.round();
      EXPECT_EQ(ctx.inbox()[0].payload.at(0), 99u);
      EXPECT_EQ(ctx.inbox()[0].from, 0u);
      ctx.halt();
    }
  });
  Rng rng(6);
  net.run(rng);
  EXPECT_EQ(delivery_round, 1u);
}

TEST(Network, HaltedNodesStopParticipating) {
  Network net(2);
  net.add_edge(0, 1);
  int rounds_active = 0;
  net.set_behavior(0, [&rounds_active](RoundContext& ctx) {
    ++rounds_active;
    ctx.halt();
  });
  net.set_behavior(1, [](RoundContext& ctx) {
    if (ctx.round() >= 3) ctx.halt();
  });
  Rng rng(7);
  net.run(rng);
  EXPECT_EQ(rounds_active, 1);
}

TEST(Network, DropFaultLosesMessages) {
  Network net(2);
  net.add_edge(0, 1);
  net.set_link_fault(0, 1, {1.0, 0.0});  // drop everything
  int received = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    ctx.send(1, {42}, 8);
    ctx.halt();
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
    if (ctx.round() >= 1) ctx.halt();
  });
  Rng rng(31);
  const auto stats = net.run(rng);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(stats.messages_dropped, 1u);
  EXPECT_EQ(stats.messages_sent, 1u);  // sending is still charged
}

TEST(Network, CorruptFaultFlipsOneBitWithinBitSize) {
  // Full-width corruption: exactly one uniformly chosen bit inside the
  // declared bit_size flips — never a bit outside it.
  auto corrupt_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    net.set_link_fault(0, 1, {0.0, 1.0});  // corrupt everything
    std::uint64_t received_value = 0;
    net.set_behavior(0, [](RoundContext& ctx) {
      ctx.send(1, {0xAAu}, 8);
      ctx.halt();
    });
    net.set_behavior(1, [&received_value](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) received_value = m.payload.at(0);
      if (ctx.round() >= 1) ctx.halt();
    });
    Rng rng(seed);
    const auto stats = net.run(rng);
    EXPECT_EQ(stats.messages_corrupted, 1u);
    return received_value;
  };
  bool saw_non_low_bit = false;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const std::uint64_t received = corrupt_once(seed);
    const std::uint64_t diff = received ^ 0xAAu;
    EXPECT_EQ(__builtin_popcountll(diff), 1) << "seed " << seed;
    EXPECT_LT(diff, 1u << 8) << "flipped bit outside bit_size";
    if (diff != 1) saw_non_low_bit = true;
    // Bit-for-bit reproducible under a fixed seed.
    EXPECT_EQ(received, corrupt_once(seed));
  }
  EXPECT_TRUE(saw_non_low_bit);  // not just the old word0-low-bit flip
}

TEST(Network, DelayFaultDefersDeliveryByConfiguredRounds) {
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.delay_prob = 1.0;
  fault.delay_rounds = 3;
  net.set_link_fault(0, 1, fault);
  unsigned delivery_round = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() == 0) ctx.send(1, {7}, 4);
    if (ctx.round() >= 1) ctx.halt();
  });
  net.set_behavior(1, [&delivery_round](RoundContext& ctx) {
    if (!ctx.inbox().empty()) {
      delivery_round = ctx.round();
      EXPECT_EQ(ctx.inbox()[0].payload.at(0), 7u);
      ctx.halt();
    }
  });
  Rng rng(41);
  const auto stats = net.run(rng, 50);
  EXPECT_EQ(delivery_round, 4u);  // 1 (normal) + 3 (delay)
  EXPECT_EQ(stats.messages_delayed, 1u);
  EXPECT_EQ(stats.messages_lost(), 0u);
}

TEST(Network, OutageWindowBlocksExactlyConfiguredRounds) {
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.outage_lo = 1;
  fault.outage_hi = 3;  // rounds 1 and 2 are down
  net.set_link_fault(0, 1, fault);
  std::vector<std::uint64_t> received;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 5) {
      ctx.send(1, {ctx.round()}, 8);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    for (const auto& m : ctx.inbox()) received.push_back(m.payload.at(0));
    if (ctx.round() >= 6) ctx.halt();
  });
  Rng rng(42);
  const auto stats = net.run(rng, 20);
  EXPECT_EQ(received, (std::vector<std::uint64_t>{0, 3, 4}));
  EXPECT_EQ(stats.messages_lost_to_outage, 2u);
  EXPECT_EQ(stats.messages_sent, 5u);
}

TEST(Network, CrashStopFiresAtScheduledRound) {
  Network net(2);
  net.add_edge(0, 1);
  int rounds_active = 0;
  net.set_behavior(0, [&rounds_active](RoundContext&) { ++rounds_active; });
  net.set_behavior(1, [](RoundContext& ctx) {
    if (ctx.round() >= 5) ctx.halt();
  });
  net.schedule_crash(0, 2);
  Rng rng(43);
  const auto stats = net.run(rng, 100);
  EXPECT_EQ(rounds_active, 2);  // executed rounds 0 and 1 only
  EXPECT_EQ(stats.nodes_crashed, 1u);
  // A crashed node counts as halted: the run terminates without stalling
  // until max_rounds.
  EXPECT_EQ(stats.rounds_executed, 6u);
}

TEST(Network, MessagesToCrashedOrHaltedNodesAreAccounted) {
  Network net(2);
  net.add_edge(0, 1);
  net.schedule_crash(1, 1);
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 3) {
      ctx.send(1, {1}, 1);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [](RoundContext&) {});
  Rng rng(44);
  const auto stats = net.run(rng, 50);
  // All three messages (delivered at rounds 1,2,3) arrive after the crash.
  EXPECT_EQ(stats.messages_sent, 3u);
  EXPECT_EQ(stats.messages_lost_to_halted, 3u);
}

TEST(Network, MessageAuditBalancesUnderMixedFaults) {
  // Every sent message is delivered exactly once or lands in exactly one
  // loss bucket — the invariant bit-accounting audits rely on.
  Network net(2);
  net.add_edge(0, 1);
  LinkFault fault;
  fault.drop_prob = 0.25;
  fault.corrupt_prob = 0.2;
  fault.delay_prob = 0.3;
  fault.delay_rounds = 2;
  fault.outage_lo = 10;
  fault.outage_hi = 20;
  net.set_default_fault(fault);
  std::uint64_t received = 0;
  net.set_behavior(0, [](RoundContext& ctx) {
    if (ctx.round() < 100) {
      ctx.send(1, {ctx.round()}, 16);
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += ctx.inbox().size();
    if (ctx.round() >= 110) ctx.halt();
  });
  Rng rng(46);
  const auto stats = net.run(rng, 200);
  EXPECT_EQ(stats.messages_sent, 100u);
  EXPECT_EQ(received + stats.messages_lost(), stats.messages_sent);
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.messages_delayed, 0u);
  EXPECT_GT(stats.messages_lost_to_outage, 0u);
}

TEST(Network, FaultStatsReplayDeterministically) {
  // Same seed => identical NetworkStats across two runs, every counter.
  auto run_once = [](std::uint64_t seed) {
    Network net(3);
    net.add_edge(0, 1);
    net.add_edge(1, 2);
    LinkFault fault;
    fault.drop_prob = 0.3;
    fault.corrupt_prob = 0.3;
    fault.delay_prob = 0.2;
    fault.delay_rounds = 1;
    net.set_default_fault(fault);
    net.schedule_crash(2, 40);
    net.set_behavior(0, [](RoundContext& ctx) {
      if (ctx.round() < 60) {
        ctx.send(1, {ctx.round()}, 12);
      } else {
        ctx.halt();
      }
    });
    net.set_behavior(1, [](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) {
        ctx.send(2, {m.payload.at(0)}, 12);
      }
      if (ctx.round() >= 65) ctx.halt();
    });
    net.set_behavior(2, [](RoundContext&) {});
    Rng rng(seed);
    return net.run(rng, 100);
  };
  const auto a = run_once(47);
  const auto b = run_once(47);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_corrupted, b.messages_corrupted);
  EXPECT_EQ(a.messages_delayed, b.messages_delayed);
  EXPECT_EQ(a.messages_lost_to_outage, b.messages_lost_to_outage);
  EXPECT_EQ(a.messages_lost_to_halted, b.messages_lost_to_halted);
  EXPECT_EQ(a.nodes_crashed, b.nodes_crashed);
  const auto c = run_once(48);
  EXPECT_NE(a.messages_dropped, c.messages_dropped);
}

TEST(Network, PartialDropRateIsRespected) {
  Network net(2);
  net.add_edge(0, 1);
  net.set_default_fault({0.3, 0.0});
  int received = 0, sent = 0;
  net.set_behavior(0, [&sent](RoundContext& ctx) {
    if (ctx.round() < 500) {
      ctx.send(1, {1}, 1);
      ++sent;
    } else {
      ctx.halt();
    }
  });
  net.set_behavior(1, [&received](RoundContext& ctx) {
    received += static_cast<int>(ctx.inbox().size());
    if (ctx.round() >= 501) ctx.halt();
  });
  Rng rng(33);
  net.run(rng, 600);
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.7, 0.07);
}

TEST(Network, FaultValidation) {
  Network net(2);
  net.add_edge(0, 1);
  EXPECT_THROW(net.set_link_fault(1, 0, {0.5, 0.0}), InvalidArgument);
  EXPECT_THROW(net.set_link_fault(0, 1, {1.5, 0.0}), InvalidArgument);
  EXPECT_THROW(net.set_default_fault({0.0, -0.1}), InvalidArgument);
}

TEST(Network, FaultyRunsReplayDeterministically) {
  auto run_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    net.set_default_fault({0.5, 0.0});
    int received = 0;
    net.set_behavior(0, [](RoundContext& ctx) {
      if (ctx.round() < 50) {
        ctx.send(1, {1}, 1);
      } else {
        ctx.halt();
      }
    });
    net.set_behavior(1, [&received](RoundContext& ctx) {
      received += static_cast<int>(ctx.inbox().size());
      if (ctx.round() >= 51) ctx.halt();
    });
    Rng rng(seed);
    net.run(rng, 100);
    return received;
  };
  EXPECT_EQ(run_once(34), run_once(34));
}

TEST(Network, PerNodeRngIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    Network net(2);
    net.add_edge(0, 1);
    std::uint64_t observed = 0;
    net.set_behavior(0, [&observed](RoundContext& ctx) {
      observed = ctx.rng()();
      ctx.halt();
    });
    net.set_behavior(1, [](RoundContext& ctx) { ctx.halt(); });
    Rng rng(seed);
    net.run(rng);
    return observed;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));
}

}  // namespace
}  // namespace duti
