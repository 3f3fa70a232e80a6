// Determinism regression for the parallel measurement engine: every probe
// and search result must be bit-for-bit identical to the serial path at any
// thread count (ISSUE 2 acceptance criterion; DESIGN.md §7).
#include <gtest/gtest.h>

#include "stats/harness.hpp"
#include "stats/workloads.hpp"
#include "testers/collision.hpp"
#include "testers/fixed_threshold.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

void expect_probe_equal(const ProbeResult& a, const ProbeResult& b) {
  EXPECT_DOUBLE_EQ(a.uniform_accept_rate, b.uniform_accept_rate);
  EXPECT_DOUBLE_EQ(a.far_reject_rate, b.far_reject_rate);
  EXPECT_DOUBLE_EQ(a.uniform_ci.lo, b.uniform_ci.lo);
  EXPECT_DOUBLE_EQ(a.uniform_ci.hi, b.uniform_ci.hi);
  EXPECT_DOUBLE_EQ(a.far_ci.lo, b.far_ci.lo);
  EXPECT_DOUBLE_EQ(a.far_ci.hi, b.far_ci.hi);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.uniform_successes, b.uniform_successes);
  EXPECT_EQ(a.far_successes, b.far_successes);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.uniform_aborts_quorum, b.uniform_aborts_quorum);
  EXPECT_EQ(a.uniform_aborts_timeout, b.uniform_aborts_timeout);
  EXPECT_EQ(a.far_aborts_quorum, b.far_aborts_quorum);
  EXPECT_EQ(a.far_aborts_timeout, b.far_aborts_timeout);
}

// A representative tester: draws samples and thresholds collision pairs,
// consuming source and run randomness like the real protocol testers do.
TesterRun noisy_collision_tester() {
  return [](const SampleSource& source, Rng& rng) {
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 48, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 48);
    return static_cast<double>(collision_pairs(samples)) <=
           expected + 1.0 + rng.next_double();
  };
}

TEST(ParallelProbe, BitIdenticalAcrossThreadCounts) {
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(tester, workloads::uniform_factory(256),
                    workloads::paninski_far_factory(256, 0.5), 400, 11, serial);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel =
        probe_success(tester, workloads::uniform_factory(256),
                      workloads::paninski_far_factory(256, 0.5), 400, 11, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbe, RealTesterBitIdentical) {
  const FixedThresholdTester tester({64, 8, 16, 0.5, 2});
  const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
    return tester.run(src, rng);
  };
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(run, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 200, 3, serial);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel =
        probe_success(run, workloads::uniform_factory(64),
                      workloads::paninski_far_factory(64, 0.5), 200, 3, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbeEx, AbortAttributionBitIdentical) {
  // Outcome depends on the trial's sample and run streams, with all four
  // referee outcomes reachable — exercises every abort tally.
  const TesterRunEx tester = [](const SampleSource& source, Rng& rng) {
    const std::uint64_t s = source.sample(rng);
    const double u = rng.next_double();
    if (u < 0.10) return RefereeOutcome::kAbortQuorum;
    if (u < 0.25) return RefereeOutcome::kAbortTimeout;
    return (s + static_cast<std::uint64_t>(u * 1000.0)) % 3 == 0
               ? RefereeOutcome::kAccept
               : RefereeOutcome::kReject;
  };
  ThreadPool serial(1);
  const ProbeResult reference = probe_success(
      tester, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 500, 17, serial);
  EXPECT_GT(reference.aborts(), 0u);  // the scenario actually aborts
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel = probe_success(
        tester, workloads::uniform_factory(128),
        workloads::paninski_far_factory(128, 0.5), 500, 17, pool);
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(ParallelProbe, SourceHoistDoesNotChangeResults) {
  // The same uniform factory, once with the trial-invariant promise (per-
  // worker cached source) and once wrapped as trial-varying (fresh heap
  // source per trial): identical results, because the factory ignores rng.
  const TesterRun tester = noisy_collision_tester();
  const SourceSpec invariant = workloads::uniform_factory(256);
  ASSERT_TRUE(invariant.trial_invariant());
  const SourceSpec varying(invariant.factory(), /*trial_invariant=*/false);
  ThreadPool pool(4);
  const ProbeResult a =
      probe_success(tester, invariant,
                    workloads::paninski_far_factory(256, 0.5), 300, 23, pool);
  const ProbeResult b =
      probe_success(tester, varying,
                    workloads::paninski_far_factory(256, 0.5), 300, 23, pool);
  expect_probe_equal(a, b);
}

TEST(ParallelSearch, SpeculativeMinimumMatchesSerial) {
  // Statistically monotone synthetic probe: pure per value, noisy cutoff.
  const ProbeFn probe = [](std::uint64_t value) {
    ProbeResult r;
    r.trials = 1;
    const std::uint64_t cutoff = 93 + (derive_seed(5, value) % 9);
    r.uniform_accept_rate = value >= cutoff ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  ThreadPool serial(1);
  const auto reference = find_min_param(probe, cfg, serial);
  ASSERT_TRUE(reference.found);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const auto speculative = find_min_param(probe, cfg, pool);
    SCOPED_TRACE(threads);
    ASSERT_TRUE(speculative.found);
    EXPECT_EQ(speculative.minimum, reference.minimum);
    // The audit trail replays the serial consultation sequence exactly.
    ASSERT_EQ(speculative.probes.size(), reference.probes.size());
    for (std::size_t i = 0; i < reference.probes.size(); ++i) {
      EXPECT_EQ(speculative.probes[i].first, reference.probes[i].first);
    }
  }
}

TEST(ParallelSearch, SpeculativeProbeFailuresDoNotEscape) {
  // Probes can have validity limits (e.g. a tester config that only exists
  // for small q). Speculation may evaluate values past where the serial
  // search stops; a failure there must stay invisible unless the serial
  // decision sequence actually consults that value. Regression: e3_threshold
  // aborted at DUTI_THREADS=8 because a speculated rung beyond the passing
  // point threw in FixedThresholdTester's Poisson quantile.
  const ProbeFn probe = [](std::uint64_t value) {
    if (value > 128) throw InvalidArgument("probe: value out of range");
    ProbeResult r;
    r.trials = 1;
    r.uniform_accept_rate = value >= 100 ? 1.0 : 0.0;
    r.far_reject_rate = 1.0;
    return r;
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;  // ladder reaches far past the validity limit
  ThreadPool serial(1);
  const auto reference = find_min_param(probe, cfg, serial);
  ASSERT_TRUE(reference.found);
  for (const unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto speculative = find_min_param(probe, cfg, pool);
    ASSERT_TRUE(speculative.found);
    EXPECT_EQ(speculative.minimum, reference.minimum);
    ASSERT_EQ(speculative.probes.size(), reference.probes.size());
  }
  // When the serial sequence itself consults a throwing value, every thread
  // count must surface the same exception.
  cfg.lo = 200;  // first consulted value is already out of range
  EXPECT_THROW(find_min_param(probe, cfg, serial), InvalidArgument);
  ThreadPool wide(8);
  EXPECT_THROW(find_min_param(probe, cfg, wide), InvalidArgument);
}

TEST(ParallelSearch, GivesUpIdentically) {
  const ProbeFn probe = [](std::uint64_t) { return ProbeResult{}; };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 64;
  ThreadPool pool(8);
  const auto result = find_min_param(probe, cfg, pool);
  EXPECT_FALSE(result.found);
}

TEST(AdaptiveProbe, BitIdenticalAcrossThreadCounts) {
  // The stopping point is decided from integer tallies at FIXED batch
  // boundaries, so the adaptive result — including where it stopped — is
  // bit-identical at any thread count (the DUTI_THREADS=1 vs 8 criterion).
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference = probe_success(
      tester, workloads::uniform_factory(256),
      workloads::paninski_far_factory(256, 0.5), 400, 11, serial,
      AdaptiveProbeConfig{});
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ProbeResult parallel = probe_success(
        tester, workloads::uniform_factory(256),
        workloads::paninski_far_factory(256, 0.5), 400, 11, pool,
        AdaptiveProbeConfig{});
    SCOPED_TRACE(threads);
    expect_probe_equal(reference, parallel);
  }
}

TEST(AdaptiveProbe, AgreesWithFullBudgetOnSeedSweep) {
  // On instances away from the knife edge the certified verdict equals the
  // full-budget verdict seed for seed (the certificate soundness claim).
  const TesterRun easy = [](const SampleSource& source, Rng& rng) {
    // Strong separation: far sources (l1 > 0) almost always rejected.
    std::vector<std::uint64_t> samples;
    source.sample_many(rng, 64, samples);
    const double expected = expected_collision_pairs_uniform(
        static_cast<double>(source.domain_size()), 64);
    return static_cast<double>(collision_pairs(samples)) <= expected + 3.0;
  };
  ThreadPool pool(4);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProbeResult full = probe_success(
        easy, workloads::uniform_factory(64),
        workloads::paninski_far_factory(64, 1.0), 320, seed, pool);
    const ProbeResult adaptive = probe_success(
        easy, workloads::uniform_factory(64),
        workloads::paninski_far_factory(64, 1.0), 320, seed, pool,
        AdaptiveProbeConfig{});
    SCOPED_TRACE(seed);
    EXPECT_EQ(full.passes(), adaptive.passes());
    EXPECT_LE(adaptive.trials, adaptive.budget);
    EXPECT_EQ(adaptive.budget, 320u);
  }
}

TEST(AdaptiveProbe, StopsEarlyOnClearFailure) {
  // A tester that always accepts never rejects far sources, so failure is
  // obvious early. With a long budget the Wilson certificate fires first
  // (0/64 far successes is delta-certifiably below 2/3); with a budget too
  // short for confidence checks (first boundary < min_trials), the
  // deterministic seal fires instead.
  const TesterRun always_accept = [](const SampleSource&, Rng&) {
    return true;
  };
  ThreadPool pool(2);
  const ProbeResult confident = probe_success(
      always_accept, workloads::uniform_factory(64),
      workloads::paninski_far_factory(64, 0.5), 300, 5, pool,
      AdaptiveProbeConfig{});
  EXPECT_TRUE(confident.early_stopped());
  EXPECT_EQ(confident.stop, ProbeStop::kConfidence);
  EXPECT_LT(confident.trials, confident.budget);
  EXPECT_FALSE(confident.passes());
  EXPECT_EQ(confident.trials % 32, 0u);  // stopped at a batch boundary

  const ProbeResult sealed = probe_success(
      always_accept, workloads::uniform_factory(64),
      workloads::paninski_far_factory(64, 0.5), 40, 5, pool,
      AdaptiveProbeConfig{});
  // At the only checkpoint (32 trials < min_trials ~ 35) confidence is not
  // consulted, but 0 + 8 remaining < (2/3) * 40 seals the failure.
  EXPECT_EQ(sealed.stop, ProbeStop::kDeterministic);
  EXPECT_EQ(sealed.trials, 32u);
  EXPECT_FALSE(sealed.passes());
}

TEST(AdaptiveProbe, ExMatchesBooleanProbe) {
  // A TesterRunEx that never aborts must reproduce the boolean adaptive
  // probe bit for bit (same seed derivation, same tallies).
  const TesterRun tester = noisy_collision_tester();
  const TesterRunEx ex = [&tester](const SampleSource& source, Rng& rng) {
    return tester(source, rng) ? RefereeOutcome::kAccept
                               : RefereeOutcome::kReject;
  };
  ThreadPool pool(4);
  const ProbeResult b = probe_success(
      tester, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 256, 19, pool,
      AdaptiveProbeConfig{});
  const ProbeResult e = probe_success(
      ex, workloads::uniform_factory(128),
      workloads::paninski_far_factory(128, 0.5), 256, 19, pool,
      AdaptiveProbeConfig{});
  expect_probe_equal(b, e);
  EXPECT_EQ(e.aborts(), 0u);
}

TEST(AdaptiveSearch, BracketedSearchFindsTheSameMinimum) {
  // Synthetic deterministic probes: both flavors agree on the cutoff, so
  // the bracketed search must return exactly the full-budget minimum, at
  // every thread count.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 517 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  // The bracket flavor agrees on the cutoff but reports early-stopped
  // 64-trial tallies, so audit entries reveal which flavor produced them.
  const ProbeFn bracket = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 517 ? 64 : 6, 64, 64, 100,
                                     ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  ThreadPool serial(1);
  const auto reference = find_min_param(full, cfg, serial);
  ASSERT_TRUE(reference.found);
  EXPECT_EQ(reference.minimum, 517u);
  cfg.bracket_probe = bracket;
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto bracketed = find_min_param(full, cfg, pool);
    ASSERT_TRUE(bracketed.found);
    EXPECT_EQ(bracketed.minimum, reference.minimum);
    // The returned minimum carries full-budget evidence in the audit trail.
    bool full_backed = false;
    for (const auto& [value, probe] : bracketed.probes) {
      if (value == bracketed.minimum && probe.trials == 100 &&
          probe.passes()) {
        full_backed = true;
      }
    }
    EXPECT_TRUE(full_backed);
  }
}

TEST(AdaptiveSearch, RefutedBracketMinimumResumesWithFullProbes) {
  // The bracket probe is overly optimistic (passes from 60 up) while the
  // full probe needs 100: the full-budget confirmation refutes the bracket
  // minimum and the search must resume above it, still landing on 100.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 100 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  const ProbeFn bracket = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 60 ? 64 : 6, 64, 64, 100,
                                     ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 1 << 14;
  cfg.bracket_probe = bracket;
  for (const unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(threads);
    const auto result = find_min_param(full, cfg, pool);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.minimum, 100u);
  }
}

TEST(AdaptiveSearch, BracketGiveUpIsConfirmedAtFullBudget) {
  // The bracket probe never passes, but the full probe does: the search
  // must not trust the bracket flavor's give-up at cfg.hi, and falls back
  // to a full-budget search instead of reporting not-found.
  const ProbeFn full = [](std::uint64_t value) {
    return probe_result_from_tallies(value >= 100 ? 100 : 10, 100, 100, 100,
                                     ProbeStop::kExhausted);
  };
  const ProbeFn bracket = [](std::uint64_t) {
    return probe_result_from_tallies(6, 64, 64, 100, ProbeStop::kConfidence);
  };
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = 256;
  cfg.bracket_probe = bracket;
  ThreadPool pool(4);
  const auto result = find_min_param(full, cfg, pool);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.minimum, 100u);
  // And when the full probe also never passes, not-found stands.
  const ProbeFn never = [](std::uint64_t) {
    return probe_result_from_tallies(10, 100, 100, 100, ProbeStop::kExhausted);
  };
  const auto nothing = find_min_param(never, cfg, pool);
  EXPECT_FALSE(nothing.found);
}

TEST(ParallelProbe, DefaultOverloadUsesGlobalPool) {
  // The default pool argument is ThreadPool::global(); results must match
  // an explicit serial pool whatever DUTI_THREADS says.
  const TesterRun tester = noisy_collision_tester();
  ThreadPool serial(1);
  const ProbeResult reference =
      probe_success(tester, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 150, 29, serial);
  const ProbeResult via_global =
      probe_success(tester, workloads::uniform_factory(64),
                    workloads::paninski_far_factory(64, 0.5), 150, 29);
  expect_probe_equal(reference, via_global);
}

}  // namespace
}  // namespace duti
