#include "sim/protocol_batch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/convergecast.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "testers/asymmetric.hpp"
#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/multibit.hpp"
#include "testers/robust_rules.hpp"
#include "testers/tree_tester.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace duti {
namespace {

std::uint64_t naive_pairs(const std::vector<std::uint64_t>& samples) {
  std::uint64_t pairs = 0;
  for (std::size_t a = 0; a < samples.size(); ++a) {
    for (std::size_t b = a + 1; b < samples.size(); ++b) {
      if (samples[a] == samples[b]) ++pairs;
    }
  }
  return pairs;
}

TEST(TalliedCollisionPairs, MatchesNaiveCountOnBothPlanes) {
  Rng rng(7);
  // Up to kMaxTallyPlaneDomain: the tally plane; above it: the sort
  // fallback. The cap is checked at N-1, N and N+1.
  for (const std::uint64_t domain :
       {std::uint64_t{8}, std::uint64_t{512}, kMaxTallyPlaneDomain - 1,
        kMaxTallyPlaneDomain, kMaxTallyPlaneDomain + 1}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::uint64_t> samples(32);
      // Bias into a small range so collisions actually occur, and give the
      // top cell domain - 1 zero to three of the samples.
      for (auto& s : samples) s = rng.next_below(std::min<std::uint64_t>(domain, 16));
      for (int i = 0; i < rep % 4; ++i) {
        samples[static_cast<std::size_t>(i)] = domain - 1;
      }
      EXPECT_EQ(tallied_collision_pairs(samples, domain), naive_pairs(samples))
          << "domain=" << domain;
    }
  }
  EXPECT_EQ(tallied_collision_pairs({}, 16), 0u);
}

class SimdLevelParam : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override { prev_ = simd_set_level(GetParam()); }
  void TearDown() override { simd_set_level(prev_); }
  SimdLevel prev_ = SimdLevel::kScalar;
};

TEST_P(SimdLevelParam, ThresholdTesterMatchesLegacyProtocol) {
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_rng(11);
  const DistributedThresholdTester tester(cfg, calib_rng, 500);
  const SimultaneousProtocol proto = tester.make_protocol();
  const DecisionRule rule = tester.make_rule();

  std::vector<Message> batched_msgs;
  Rng src_rng(derive_seed(101, 0x50));
  for (int t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(cfg.n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(cfg.n, cfg.eps)(src_rng);
      src = far.get();
    }
    Rng rng_a(derive_seed(101, t));
    Rng rng_b(derive_seed(101, t));
    Rng rng_c(derive_seed(101, t));
    const ProtocolResult legacy_res = proto.run(*src, rng_a, rule);
    tester.executor().collect(*src, rng_b, batched_msgs);
    ASSERT_EQ(batched_msgs.size(), legacy_res.messages.size());
    for (std::size_t j = 0; j < batched_msgs.size(); ++j) {
      EXPECT_EQ(batched_msgs[j].bits, legacy_res.messages[j].bits)
          << "trial " << t << " player " << j;
      EXPECT_EQ(batched_msgs[j].width, legacy_res.messages[j].width);
    }
    EXPECT_EQ(tester.run(*src, rng_c), legacy_res.accept) << "trial " << t;
  }
}

TEST_P(SimdLevelParam, AndTesterMatchesLegacyProtocol) {
  DistributedTesterConfig cfg;
  cfg.n = 256;
  cfg.k = 6;
  cfg.q = 40;
  cfg.eps = 0.5;
  const DistributedAndTester tester(cfg);
  const SimultaneousProtocol proto = tester.make_protocol();
  const DecisionRule rule = tester.make_rule();
  Rng src_rng(derive_seed(33, 0x50));
  for (int t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(cfg.n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(cfg.n, cfg.eps)(src_rng);
      src = far.get();
    }
    Rng rng_a(derive_seed(33, t));
    Rng rng_b(derive_seed(33, t));
    EXPECT_EQ(proto.run(*src, rng_a, rule).accept, tester.run(*src, rng_b))
        << "trial " << t;
  }
}

TEST_P(SimdLevelParam, FixedThresholdTesterMatchesLegacyProtocol) {
  // The fixed-threshold vote consumes player randomness (the boundary
  // coin), so identity here also pins the post-sampling RNG handoff.
  FixedThresholdTester::Config cfg;
  cfg.n = 256;
  cfg.k = 8;
  cfg.q = 32;
  cfg.eps = 0.5;
  cfg.t = 3;
  const FixedThresholdTester tester(cfg);
  const SimultaneousProtocol proto = tester.make_protocol();
  const DecisionRule rule = tester.make_rule();
  Rng src_rng(derive_seed(44, 0x50));
  for (int t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(cfg.n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(cfg.n, cfg.eps)(src_rng);
      src = far.get();
    }
    Rng rng_a(derive_seed(44, t));
    Rng rng_b(derive_seed(44, t));
    EXPECT_EQ(proto.run(*src, rng_a, rule).accept, tester.run(*src, rng_b))
        << "trial " << t;
  }
}

TEST_P(SimdLevelParam, MultibitTesterMatchesLegacyProtocol) {
  MultibitSumTester::Config cfg;
  cfg.n = 256;
  cfg.k = 6;
  cfg.q = 48;
  cfg.eps = 0.5;
  cfg.r = 4;
  Rng calib_rng(55);
  const MultibitSumTester tester(cfg, calib_rng, 500);
  const SimultaneousProtocol proto = tester.make_protocol();
  Rng src_rng(derive_seed(55, 0x50));
  for (int t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(cfg.n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(cfg.n, cfg.eps)(src_rng);
      src = far.get();
    }
    Rng rng_a(derive_seed(55, t));
    Rng rng_b(derive_seed(55, t));
    const std::vector<Message> legacy_msgs = proto.collect(*src, rng_a);
    double legacy_total = 0.0;
    for (const auto& m : legacy_msgs) {
      EXPECT_EQ(m.width, cfg.r);
      legacy_total += static_cast<double>(m.bits);
    }
    const bool legacy_accept = legacy_total < tester.sum_threshold();
    EXPECT_EQ(tester.run(*src, rng_b), legacy_accept) << "trial " << t;
  }
}

TEST_P(SimdLevelParam, AsymmetricTesterMatchesLegacyProtocol) {
  const std::uint64_t n = 256;
  const std::vector<double> rates = {1.0, 2.0, 4.0, 8.0};
  Rng calib_rng(66);
  const AsymmetricRateTester tester(n, rates, 8.0, calib_rng, 200);
  // Legacy comparator: the same per-player vote through the allocating
  // SimultaneousProtocol runner.
  std::vector<double> local_t(tester.qs().size());
  for (std::size_t j = 0; j < local_t.size(); ++j) {
    local_t[j] = expected_collision_pairs_uniform(static_cast<double>(n),
                                                  tester.qs()[j]);
  }
  const SimultaneousProtocol proto(
      tester.qs(), [&](unsigned j) {
        const double t = local_t[j];
        const unsigned q = tester.qs()[j];
        return std::make_unique<CallbackPlayer>(
            [t, q](std::span<const std::uint64_t> samples, Rng&) {
              EXPECT_EQ(samples.size(), q);
              return Message::bit(
                  !(static_cast<double>(collision_pairs(samples)) > t));
            },
            1U);
      });
  Rng src_rng(derive_seed(66, 0x50));
  for (int t = 0; t < 40; ++t) {
    std::unique_ptr<SampleSource> far;
    const UniformSource uniform(n);
    const SampleSource* src = &uniform;
    if (t % 2 == 1) {
      far = workloads::paninski_far_factory(n, 0.5)(src_rng);
      src = far.get();
    }
    Rng rng_a(derive_seed(66, t));
    Rng rng_b(derive_seed(66, t));
    const std::vector<Message> legacy_msgs = proto.collect(*src, rng_a);
    std::uint64_t rejects = 0;
    for (const auto& m : legacy_msgs) rejects += m.as_bit() ? 0U : 1U;
    const bool legacy_accept =
        static_cast<double>(rejects) < tester.referee_threshold();
    EXPECT_EQ(tester.run(*src, rng_b), legacy_accept) << "trial " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, SimdLevelParam,
                         ::testing::Values(SimdLevel::kScalar,
                                           simd_supported_level()),
                         [](const auto& level) {
                           return level.index == 0 ? "off" : "auto";
                         });

TEST(ProtocolBatch, ProbeTalliesIdenticalAcrossThreadPools) {
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_rng(12);
  auto tester = std::make_shared<DistributedThresholdTester>(cfg, calib_rng, 500);
  const TesterRun run = [tester](const SampleSource& s, Rng& r) {
    return tester->run(s, r);
  };
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const ProbeResult a =
      probe_success(run, workloads::uniform_factory(cfg.n),
                    workloads::paninski_far_factory(cfg.n, cfg.eps), 200, 9,
                    pool1);
  const ProbeResult b =
      probe_success(run, workloads::uniform_factory(cfg.n),
                    workloads::paninski_far_factory(cfg.n, cfg.eps), 200, 9,
                    pool8);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.trials, b.trials);
}

TEST(AsymmetricRateTester, RejectsSampleCountsBeyondTheUnsignedRange) {
  // ceil(tau * rate) must fit the per-player unsigned sample count; 1e10
  // and 1e20 do not, and player 1 is the one named.
  for (const double rate : {1e10, 1e20}) {
    Rng calib(5);
    try {
      const AsymmetricRateTester t(256, {1.0, rate}, 1.0, calib, 10);
      ADD_FAILURE() << "rate " << rate << " constructed";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("player 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CalibMemo, ReplayIsIndistinguishableFromFresh) {
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_a(77);
  Rng calib_b(77);
  const DistributedThresholdTester fresh(cfg, calib_a, 500);
  const DistributedThresholdTester memoized(cfg, calib_b, 500);
  EXPECT_EQ(fresh.referee_threshold(), memoized.referee_threshold());
  EXPECT_EQ(fresh.p_reject_uniform(), memoized.p_reject_uniform());
  // The memo hit must leave the calibration stream exactly where the fresh
  // computation left it.
  EXPECT_EQ(calib_a.state(), calib_b.state());
  const CalibMemo::Stats stats = CalibMemo::global().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  const UniformSource uniform(cfg.n);
  for (int t = 0; t < 10; ++t) {
    Rng ra(derive_seed(78, t));
    Rng rb(derive_seed(78, t));
    EXPECT_EQ(fresh.run(uniform, ra), memoized.run(uniform, rb));
  }
}

TEST(CalibMemo, AutoTrialCountResolvesIntoTheKey) {
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  // calib_trials = 0 resolves to max(4000, 30k); the memo key records the
  // RESOLVED count, so auto and the equivalent explicit count share an
  // entry while a different explicit count does not.
  Rng calib_auto(88);
  const DistributedThresholdTester auto_t(cfg, calib_auto);
  EXPECT_EQ(CalibMemo::global().stats().misses, 1u);
  Rng calib_explicit(88);
  const DistributedThresholdTester explicit_t(cfg, calib_explicit, 4000);
  EXPECT_EQ(CalibMemo::global().stats().hits, 1u);
  EXPECT_EQ(auto_t.referee_threshold(), explicit_t.referee_threshold());
  Rng calib_other(88);
  const DistributedThresholdTester other_t(cfg, calib_other, 1234);
  EXPECT_EQ(CalibMemo::global().stats().misses, 2u);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(CalibMemo, PinnedCalibrationsReplayBitForBit) {
  // Every calibrated tester's values (as bit patterns) and the calibration
  // stream's exit state, pinned from the per-tester calibration loops that
  // calibrate_on_uniform replaced. Each row must reproduce its pins fresh,
  // as a memo hit, and fresh again after clear(). The multibit row's
  // uniform mean is exactly 0.0; the asymmetric row calibrates three
  // players from one stream.
  struct Row {
    const char* name;
    std::uint64_t seed;
    std::function<std::vector<std::uint64_t>(Rng&)> build;
    std::vector<std::uint64_t> values;
    Rng::State exit;
  };
  const std::vector<Row> rows = {
      {"threshold, 500 trials", 77,
       [](Rng& calib) {
         const DistributedThresholdTester t({512, 8, 24, 0.5}, calib, 500);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.referee_threshold()};
       },
       {0x3fdac083126e978dULL, 5},
       {0x7412859c194a01f9ULL, 0x664615c1a2750840ULL, 0x0dcb54dfe6ca4d67ULL,
        0xc660a83b8a5d3c8eULL}},
      {"threshold, auto trials", 77,
       [](Rng& calib) {
         const DistributedThresholdTester t({512, 8, 24, 0.5}, calib);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.referee_threshold()};
       },
       {0x3fda624dd2f1a9fcULL, 5},
       {0xb410af02db88f2f3ULL, 0x087e9648f6dc67f9ULL, 0xa810d82636884fa4ULL,
        0xeeff407bed1a11b5ULL}},
      {"robust naive", 78,
       [](Rng& calib) {
         const RobustThresholdTester t({512, 8, 24, 0.5}, FaultPlan{},
                                       RobustThresholdTester::Rule::kNaive,
                                       calib, 500);
         return std::vector<std::uint64_t>{bits_of(t.p_reject_uniform()),
                                           t.naive_referee_threshold()};
       },
       {0x3fda9fbe76c8b439ULL, 5},
       {0x39a7c9dc779f6cc8ULL, 0xe83395cd2c79b95aULL, 0xcf4d1ba9f4e57c42ULL,
        0xeceb0a87e97b1c9fULL}},
      {"tree on a 9-node star", 79,
       [](Rng& calib) {
         Network net(9);
         net.add_star(0);
         const TreeUniformityTester t(net, 0, {512, 24, 0.5}, calib, 500);
         return std::vector<std::uint64_t>{t.referee_threshold()};
       },
       {6},
       {0xb7a60e0521a60d21ULL, 0xc4e06e7aec75d879ULL, 0x72d3f75af1425c74ULL,
        0x47446321aa232186ULL}},
      {"multibit", 2,
       [](Rng& calib) {
         const MultibitSumTester t({4096, 32, 2, 0.5, 8}, calib);
         return std::vector<std::uint64_t>{bits_of(t.sum_threshold())};
       },
       {0x3eb0c6f7a0b5ed8dULL},
       {0x3e0340a37ef8221eULL, 0xe79df4678ecf738bULL, 0x85a07e56fa06f346ULL,
        0x79ad6f91d4581c5cULL}},
      {"asymmetric", 3,
       [](Rng& calib) {
         const AsymmetricRateTester t(256, {1, 2, 4}, 8.0, calib, 50);
         std::vector<std::uint64_t> out;
         for (const double p : t.p_reject_uniform()) out.push_back(bits_of(p));
         out.push_back(bits_of(t.referee_threshold()));
         return out;
       },
       {0x3fc1eb851eb851ecULL, 0x3fd1eb851eb851ecULL, 0x3fe147ae147ae148ULL,
        0x3ffb71a83483940dULL},
       {0x8076eea45c42dd9fULL, 0x6976098182c6e484ULL, 0x5b513064982293f9ULL,
        0x6f6e4638ade442d1ULL}},
  };
  const auto check_rows = [&rows](const char* pass) {
    for (const Row& row : rows) {
      Rng calib(row.seed);
      EXPECT_EQ(row.build(calib), row.values) << row.name << ", " << pass;
      EXPECT_EQ(calib.state(), row.exit) << row.name << ", " << pass;
    }
  };

  // Each construction makes exactly one memo lookup.
  const std::uint64_t lookups = rows.size();
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  check_rows("fresh");
  EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
  EXPECT_EQ(CalibMemo::global().stats().hits, 0u);

  CalibMemo::global().reset_stats();
  check_rows("memo hit");
  EXPECT_EQ(CalibMemo::global().stats().misses, 0u);
  EXPECT_EQ(CalibMemo::global().stats().hits, lookups);

  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  check_rows("after clear");
  EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
  EXPECT_EQ(CalibMemo::global().stats().hits, 0u);
}

TEST(CalibMemo, RobustAndTreeTestersShareTheThresholdCalibration) {
  // The three one-bit testers calibrate the same statistic, so equal
  // (n, q, resolved trials, entry state) is one memo entry. k is not part
  // of it: the tree's 9 voters and the threshold tester's 8 both resolve
  // to the 4000-trial auto count.
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  Rng calib_thr(77);
  const DistributedThresholdTester thr({512, 8, 24, 0.5}, calib_thr);
  Rng calib_robust(77);
  const RobustThresholdTester robust({512, 8, 24, 0.5}, FaultPlan{},
                                     RobustThresholdTester::Rule::kNaive,
                                     calib_robust);
  Network net(9);
  net.add_star(0);
  Rng calib_tree(77);
  const TreeUniformityTester tree(net, 0, {512, 24, 0.5}, calib_tree);
  EXPECT_EQ(CalibMemo::global().stats().misses, 1u);
  EXPECT_EQ(CalibMemo::global().stats().hits, 2u);
  EXPECT_EQ(robust.p_reject_uniform(), thr.p_reject_uniform());
  EXPECT_EQ(robust.naive_referee_threshold(), thr.referee_threshold());
  EXPECT_EQ(calib_robust.state(), calib_thr.state());
  EXPECT_EQ(calib_tree.state(), calib_thr.state());
}

TEST(ProtocolBatch, ChaosLaneCarriesBatchedVotes) {
  // Compose the batched plane with the fault-tolerant network layer: the
  // executor's votes ride a reliable convergecast over a lossy star, and
  // the root's tally must reproduce the referee verdict exactly.
  DistributedTesterConfig cfg;
  cfg.n = 512;
  cfg.k = 8;
  cfg.q = 24;
  cfg.eps = 0.5;
  Rng calib_rng(13);
  const DistributedThresholdTester tester(cfg, calib_rng, 500);

  Rng vote_rng(4242);
  Rng run_rng(4242);
  std::vector<Message> msgs;
  tester.executor().collect(UniformSource(cfg.n), vote_rng, msgs);

  Network net(cfg.k + 1);
  net.add_star(0);
  LinkFault lossy;
  lossy.drop_prob = 0.1;  // within the retransmission budget's tolerance
  net.set_default_fault(lossy);
  const SpanningTree tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values(cfg.k + 1, 0);
  std::uint64_t rejects = 0;
  for (unsigned j = 0; j < cfg.k; ++j) {
    values[j + 1] = msgs[j].as_bit() ? 0 : 1;  // node j+1 carries player j
    rejects += values[j + 1];
  }
  Rng net_rng(31337);
  const ReliableConvergecastResult result =
      convergecast_sum_reliable(net, tree, values, 1, net_rng);
  EXPECT_EQ(result.values_reached, cfg.k + 1);
  EXPECT_EQ(result.root_sum, rejects);
  const bool network_accept = result.root_sum < tester.referee_threshold();
  EXPECT_EQ(network_accept, tester.run(UniformSource(cfg.n), run_rng));
}

}  // namespace
}  // namespace duti
