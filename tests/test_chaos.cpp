#include "chaos/engine.hpp"
#include "chaos/oracles.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"

#include <gtest/gtest.h>

#include <set>

namespace duti::chaos {
namespace {

TEST(ChaosSchedule, TokenRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    const std::string token = serialize_token(spec);
    const ScenarioSpec back = parse_token(token);
    EXPECT_EQ(serialize_token(back), token) << "seed " << seed;
    EXPECT_TRUE(back.topo == spec.topo && back.vote_pct == spec.vote_pct &&
                back.vote_seed == spec.vote_seed &&
                back.run_seed == spec.run_seed &&
                back.components == spec.components)
        << "seed " << seed;
  }
}

TEST(ChaosSchedule, GenerationIsDeterministicAndVaried) {
  // The replay token names the whole schedule.
  std::set<std::string> tokens;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    EXPECT_EQ(serialize_token(generate_scenario(seed)),
              serialize_token(generate_scenario(seed)));
    tokens.insert(serialize_token(generate_scenario(seed)));
  }
  // Seeds name distinct schedules (a tiny collision rate would be fine;
  // total collapse would mean the seed is ignored).
  EXPECT_GE(tokens.size(), 35u);
}

TEST(ChaosSchedule, GeneratorRespectsStructuralConstraints) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    ASSERT_GE(spec.components.size(), 1u);
    ASSERT_LE(spec.components.size(), 5u);
    for (const auto& c : spec.components) {
      if (c.kind == FaultComponent::Kind::kCrash ||
          c.kind == FaultComponent::Kind::kByzantine) {
        EXPECT_NE(c.node, 0u) << "referee faulted, seed " << seed;
        EXPECT_LT(c.node, spec.k());
      }
    }
    // apply_schedule validates edges and slot uniqueness; it must accept
    // everything the generator emits.
    Network net = build_network(spec);
    EXPECT_NO_THROW(apply_schedule(spec, net)) << "seed " << seed;
  }
}

TEST(ChaosSchedule, ParseRejectsMalformedTokens) {
  EXPECT_THROW((void)parse_token(""), InvalidArgument);
  EXPECT_THROW((void)parse_token("chaos2;t=star"), InvalidArgument);
  EXPECT_THROW((void)parse_token("chaos1;vp=10"), InvalidArgument);  // no topo
  EXPECT_THROW((void)parse_token("chaos1;t=moebius"), InvalidArgument);
  EXPECT_THROW((void)parse_token("chaos1;t=star;c=warp:1:2"),
               InvalidArgument);
  EXPECT_THROW((void)parse_token("chaos1;t=star;c=crash:1"),
               InvalidArgument);  // arity
  // Star has no 1<->2 edge: a syntactically fine token can still name an
  // impossible fault, and must fail loudly.
  EXPECT_THROW((void)parse_token("chaos1;t=star;c=out:1:2:0:1"),
               InvalidArgument);
  // Two outages on one directed link exceed the LinkFault slot.
  EXPECT_THROW(
      (void)parse_token("chaos1;t=star;c=out:1:0:0:1;c=out:1:0:5:1"),
      InvalidArgument);
}

TEST(ChaosSchedule, BurstWindowOutsideProtocolIsInert) {
  ScenarioSpec spec;
  spec.topo = Topology::kPath;
  spec.vote_pct = 20;
  spec.vote_seed = 9;
  spec.run_seed = 9;
  FaultComponent burst;
  burst.kind = FaultComponent::Kind::kDrop;
  burst.from = 3;
  burst.to = 2;
  burst.pct = 90;
  burst.lo = 100000;  // far beyond any round the protocol executes
  burst.len = 50;
  spec.components.push_back(burst);
  ScenarioSpec clean = spec;
  clean.components.clear();
  EXPECT_EQ(run_scenario(spec).fingerprint(),
            run_scenario(clean).fingerprint());
}

TEST(ChaosPrediction, MatchesHealedRunUnderGridCrash) {
  // Grid 3x4 BFS tree from corner 0: crashing node 1 forces its subtree
  // to heal sideways. The analytic delivery set must match the run.
  ScenarioSpec spec;
  spec.topo = Topology::kGrid;
  spec.vote_pct = 40;
  spec.vote_seed = 17;
  spec.run_seed = 17;
  FaultComponent crash;
  crash.kind = FaultComponent::Kind::kCrash;
  crash.node = 1;
  crash.lo = 0;
  spec.components.push_back(crash);

  const Prediction p = predict(spec, chaos_transport_config());
  ASSERT_TRUE(p.within_tolerance);
  EXPECT_FALSE(p.crash_free);
  const RunResult r = run_scenario(spec);
  EXPECT_EQ(r.values_reached, p.predicted_reached);
  EXPECT_EQ(r.values_lost, p.predicted_lost);
  EXPECT_EQ(r.root_sum, p.predicted_rejects);
  EXPECT_EQ(r.outcome, p.predicted_outcome);

  const ScenarioReport report = check_scenario(spec);
  EXPECT_TRUE(report.violations.empty())
      << describe_failure(report.token, report.violations);
}

TEST(ChaosPrediction, ProbabilisticFaultsAreOutsideTolerance) {
  ScenarioSpec spec = generate_scenario(1);
  FaultComponent burst;
  burst.kind = FaultComponent::Kind::kCorrupt;
  burst.from = spec.topo == Topology::kStar ? 1u : 0u;
  burst.to = spec.topo == Topology::kStar ? 0u : 1u;
  burst.pct = 10;
  burst.lo = 0;
  burst.len = 8;
  spec.components.assign(1, burst);
  EXPECT_FALSE(predict(spec, chaos_transport_config()).within_tolerance);
}

TEST(ChaosOracles, RegistryCoversTheContract) {
  std::set<std::string> names;
  for (const auto& entry : oracle_registry()) names.insert(entry.name);
  EXPECT_TRUE(names.count("net-conservation"));
  EXPECT_TRUE(names.count("transport-accounting"));
  EXPECT_TRUE(names.count("replay-determinism"));
  EXPECT_TRUE(names.count("no-spurious-abort"));
  EXPECT_TRUE(names.count("predicted-verdict"));
  EXPECT_TRUE(names.count("baseline-agreement"));
}

/// The acceptance-criterion reproducer: two in-tolerance outage windows on
/// the path's leaf link — one kills the first DATA attempt, the other
/// kills the surviving attempt's ACK. A healthy transport (4 retries)
/// shrugs; a transport short on retries gives up, re-routes nowhere, and
/// double-counts the leaf value as lost.
ScenarioSpec leaf_link_squeeze() {
  ScenarioSpec spec;
  spec.topo = Topology::kPath;
  spec.vote_pct = 10;
  spec.vote_seed = 42;
  spec.run_seed = 42;
  FaultComponent fwd;  // kills the round-0 DATA attempt 7 -> 6
  fwd.kind = FaultComponent::Kind::kOutage;
  fwd.from = 7;
  fwd.to = 6;
  fwd.lo = 0;
  fwd.len = 1;
  FaultComponent rev;  // kills the round-3 ACK 6 -> 7
  rev.kind = FaultComponent::Kind::kOutage;
  rev.from = 6;
  rev.to = 7;
  rev.lo = 3;
  rev.len = 1;
  spec.components.push_back(fwd);
  spec.components.push_back(rev);
  return spec;
}

TEST(ChaosMetaTest, ShippedTreeSurvivesTheSqueeze) {
  const ScenarioReport report = check_scenario(leaf_link_squeeze());
  EXPECT_TRUE(report.violations.empty())
      << describe_failure(report.token, report.violations);
}

TEST(ChaosMetaTest, InjectedRetryDeficitIsCaughtAndShrunk) {
  // The injected bug: the transport silently gets 3 fewer retries than
  // the tolerance contract advertises.
  ChaosHooks buggy;
  buggy.retry_deficit = 3;

  // Bury the real trigger among decoy components the shrinker must strip:
  // a Byzantine vote (absorbed exactly by the prediction) and an outage in
  // dead air after the protocol has finished.
  ScenarioSpec spec = leaf_link_squeeze();
  FaultComponent byz;
  byz.kind = FaultComponent::Kind::kByzantine;
  byz.node = 3;
  FaultComponent dead_air;
  dead_air.kind = FaultComponent::Kind::kOutage;
  dead_air.from = 0;
  dead_air.to = 1;
  dead_air.lo = 5000;
  dead_air.len = 1;
  spec.components.push_back(byz);
  spec.components.push_back(dead_air);

  // Caught: the oracle registry flags the schedule (it is within the
  // advertised tolerance, so the broken transport cannot hide).
  const ScenarioReport report = check_scenario(spec, buggy);
  ASSERT_FALSE(report.violations.empty());
  bool predicted_verdict_fired = false;
  for (const auto& v : report.violations) {
    if (v.oracle == "predicted-verdict") predicted_verdict_fired = true;
  }
  EXPECT_TRUE(predicted_verdict_fired)
      << describe_failure(report.token, report.violations);

  // Shrunk: to the two-outage core (<= 2 fault components), still failing.
  const ShrinkResult shrunk = shrink_failing(spec, buggy);
  EXPECT_LE(shrunk.minimal.components.size(), 2u);
  ASSERT_FALSE(shrunk.violations.empty());
  EXPECT_GE(shrunk.scenarios_tried, 4u);

  // The printed token reproduces through the public --replay path...
  const ScenarioSpec replayed = parse_token(shrunk.token);
  EXPECT_FALSE(check_scenario(replayed, buggy).violations.empty());
  // ...and the same minimal schedule passes on the shipped (unbroken)
  // transport, pinning the failure on the injected bug.
  EXPECT_TRUE(check_scenario(replayed).violations.empty());
}

TEST(ChaosCampaign, CleanAndBitIdenticalAcrossPoolWidths) {
  CampaignConfig cfg;
  cfg.seed0 = 1;
  cfg.num_seeds = 24;
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const CampaignSummary a = run_campaign(cfg, pool1);
  const CampaignSummary b = run_campaign(cfg, pool4);
  EXPECT_TRUE(a.clean()) << (a.failures.empty()
                                 ? ""
                                 : describe_failure(
                                       a.failures[0].token,
                                       a.failures[0].violations));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.total_components, b.total_components);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.outcome_counts[i], b.outcome_counts[i]);
  }
  // The sweep exercises both verdicts somewhere (sanity on scenario mix).
  EXPECT_GT(a.outcome_counts[0] + a.outcome_counts[1] + a.outcome_counts[2],
            0u);
}

TEST(ChaosCampaign, BuggyTransportFailsSomeSeedAndReportsTokens) {
  // A short sweep with the injected bug must flag at least one seed, and
  // every failure carries a parseable replay token plus a shrunk token no
  // larger than the original schedule.
  CampaignConfig cfg;
  cfg.seed0 = 1;
  cfg.num_seeds = 48;
  cfg.hooks.retry_deficit = 4;  // transport gets ZERO retries
  ThreadPool pool(2);
  const CampaignSummary summary = run_campaign(cfg, pool);
  ASSERT_FALSE(summary.clean());
  for (const auto& f : summary.failures) {
    EXPECT_NO_THROW((void)parse_token(f.token));
    EXPECT_NO_THROW((void)parse_token(f.shrunk_token));
    EXPECT_LE(f.shrunk_components, f.components);
    EXPECT_FALSE(f.violations.empty());
  }
}

}  // namespace
}  // namespace duti::chaos
