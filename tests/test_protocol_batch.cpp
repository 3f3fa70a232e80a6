#include "sim/protocol_batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include "sim/convergecast.hpp"
#include "sim/network.hpp"
#include "sim/reliable.hpp"
#include "stats/calibration_persist.hpp"
#include "stats/harness.hpp"
#include "stats/probe_cache.hpp"
#include "stats/workloads.hpp"
#include "testers/asymmetric.hpp"
#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/multibit.hpp"
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
  // Small domain: the tally plane; huge domain: the sort fallback.
  for (const std::uint64_t domain :
       {std::uint64_t{8}, std::uint64_t{512}, kMaxTallyPlaneDomain + 1}) {
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<std::uint64_t> samples(32);
      // Bias into a small range so collisions actually occur.
      for (auto& s : samples) s = rng.next_below(std::min<std::uint64_t>(domain, 16));
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
  EXPECT_EQ(stats.inserts, 1u);

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

TEST(CalibMemo, PersistsThroughProbeCacheSessions) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "duti_calib_persist")
          .string();
  std::filesystem::remove_all(dir);

  // Each construction calibrates from its own stream and reports what it
  // calibrated. Besides the threshold tester: a multibit calibration whose
  // uniform mean is exactly 0.0 (a zero payload word), and an asymmetric
  // one whose payload spills into a second journal record. Each puts a
  // payload word above the stored trial count, so neither may ride in a
  // slot the journal reload Wilson-checks.
  struct Construction {
    std::uint64_t seed;
    std::function<std::vector<double>(Rng&)> build;
  };
  const std::vector<Construction> constructions = {
      {99,
       [](Rng& calib) {
         const DistributedThresholdTester t({512, 8, 32, 0.5}, calib, 500);
         return std::vector<double>{
             t.p_reject_uniform(), static_cast<double>(t.referee_threshold())};
       }},
      {2,
       [](Rng& calib) {
         const MultibitSumTester t({4096, 32, 2, 0.5, 8}, calib);
         return std::vector<double>{t.sum_threshold()};
       }},
      {3,
       [](Rng& calib) {
         const AsymmetricRateTester t(256, {1, 2, 4}, 8.0, calib, 50);
         std::vector<double> out = t.p_reject_uniform();
         out.push_back(t.referee_threshold());
         return out;
       }},
  };
  struct Outcome {
    std::vector<double> calibrated;
    Rng::State exit;
  };
  const auto construct_all = [&] {
    CalibMemo::global().clear();
    CalibMemo::global().reset_stats();
    std::vector<Outcome> out;
    for (const Construction& c : constructions) {
      Rng calib(c.seed);
      std::vector<double> calibrated = c.build(calib);
      out.push_back({std::move(calibrated), calib.state()});
    }
    return out;
  };
  const auto expect_same = [](const std::vector<Outcome>& a,
                              const std::vector<Outcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].calibrated, b[i].calibrated) << "construction " << i;
      // A replay must leave the calibration stream exactly where the fresh
      // computation left it.
      EXPECT_EQ(a[i].exit, b[i].exit) << "construction " << i;
    }
  };

  // Each constructor makes exactly one memo lookup.
  const std::uint64_t lookups = constructions.size();
  std::vector<Outcome> first;
  {
    ProbeCache cache(dir, CacheMode::kReadWrite);
    install_calibration_persistence(cache);
    first = construct_all();
    EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
    uninstall_calibration_persistence();
  }
  {
    // Fresh session over the same directory, empty in-memory memo: the
    // load hook must serve every calibration without recomputation.
    ProbeCache cache(dir, CacheMode::kReadWrite);
    install_calibration_persistence(cache);
    const std::vector<Outcome> replayed = construct_all();
    const CalibMemo::Stats stats = CalibMemo::global().stats();
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.loads, lookups);
    expect_same(first, replayed);
    uninstall_calibration_persistence();
  }
  {
    // Hooks removed: the same constructions are full recomputations again.
    const std::vector<Outcome> recomputed = construct_all();
    EXPECT_EQ(CalibMemo::global().stats().misses, lookups);
    expect_same(first, recomputed);
  }
  std::filesystem::remove_all(dir);
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
