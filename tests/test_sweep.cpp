// Tests for the deterministic sweep engine (src/stats/sweep.hpp): warm/cold
// identity of minima and audit trails on raw probes (the recorded hint
// steers nothing, monotone family or not), computed work equal to consulted
// work, the cross-thread-count / cross-cache-mode fingerprint invariant,
// and the hint interpolator.
#include "stats/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "stats/probe_cache.hpp"
#include "stats/workloads.hpp"
#include "sweep_specs.hpp"
#include "testers/calibration.hpp"
#include "testers/centralized.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace duti {
namespace {

// --- Raw-probe fixtures ----------------------------------------------------

// A synthetic family of step probes: point i passes iff value >=
// thresholds[i]. Pure functions of the value with no randomness, so audit
// identity checks are exact.
std::vector<SweepPoint> step_points(const std::vector<std::uint64_t>& thresholds,
                                    std::uint64_t hi = 1ULL << 12) {
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const std::uint64_t threshold = thresholds[i];
    SweepPoint p;
    p.label = "step" + std::to_string(i);
    p.axis = static_cast<double>(i + 1);
    p.search.lo = 2;
    p.search.hi = hi;
    p.probe = [threshold](std::uint64_t value) {
      ProbeResult r;
      r.trials = 1;
      r.budget = 1;
      r.uniform_successes = value >= threshold ? 1 : 0;
      r.far_successes = 1;
      r.uniform_accept_rate = value >= threshold ? 1.0 : 0.0;
      r.far_reject_rate = 1.0;
      return r;
    };
    points.push_back(std::move(p));
  }
  return points;
}

void expect_same_audit(const SweepPointResult& a, const SweepPointResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.minimum, b.minimum);
  EXPECT_EQ(a.verdict, b.verdict);
  ASSERT_EQ(a.audit.size(), b.audit.size()) << a.label;
  for (std::size_t i = 0; i < a.audit.size(); ++i) {
    EXPECT_EQ(a.audit[i].first, b.audit[i].first) << a.label << " step " << i;
    EXPECT_EQ(a.audit[i].second.trials, b.audit[i].second.trials);
    EXPECT_EQ(a.audit[i].second.uniform_successes,
              b.audit[i].second.uniform_successes);
    EXPECT_EQ(a.audit[i].second.far_successes,
              b.audit[i].second.far_successes);
    EXPECT_EQ(a.audit[i].second.stop, b.audit[i].second.stop);
  }
}

// --- Hint interpolation ----------------------------------------------------

TEST(SweepInterpolateHint, LogLogPowerLawIsExactAtAnchors) {
  // min = 100 * axis^{-1/2}: axis 4 -> 50, axis 64 -> 12.5. The midpoint
  // axis 16 should land near 25 (log-log interpolation is exact on power
  // laws up to rounding).
  const std::uint64_t h = sweep_interpolate_hint(4.0, 50, 64.0, 13, 16.0, 2,
                                                 1ULL << 16);
  EXPECT_GE(h, 24u);
  EXPECT_LE(h, 27u);
}

TEST(SweepInterpolateHint, ClampsToRange) {
  EXPECT_EQ(sweep_interpolate_hint(1.0, 4, 2.0, 1ULL << 40, 2.0, 2, 100), 100u);
  // Slope -2 power law extrapolated to axis 8 lands at ~0.19 -> clamp lo.
  EXPECT_EQ(sweep_interpolate_hint(1.0, 12, 2.0, 3, 8.0, 10, 100), 10u);
}

TEST(SweepInterpolateHint, NoAnchorsMeansNoHint) {
  EXPECT_EQ(sweep_interpolate_hint(1.0, 0, 2.0, 0, 1.5, 2, 100), 0u);
}

TEST(SweepInterpolateHint, NonPositiveAxisFallsBackToLinear) {
  // axis0 = 0 would break the log path; the linear fallback still lands
  // between the anchor minima.
  const std::uint64_t h = sweep_interpolate_hint(0.0, 10, 2.0, 40, 1.0, 2,
                                                 1ULL << 16);
  EXPECT_GE(h, 10u);
  EXPECT_LE(h, 40u);
}

TEST(SweepInterpolateHint, DegenerateEqualAxes) {
  const std::uint64_t h = sweep_interpolate_hint(3.0, 16, 3.0, 64, 3.0, 2,
                                                 1ULL << 16);
  EXPECT_GE(h, 16u);
  EXPECT_LE(h, 64u);
}

// --- Warm/cold identity on raw probes --------------------------------------

TEST(SweepEngine, WarmEqualsColdOnMonotoneFamily) {
  // Minima follow a smooth decreasing family, the warm-start predictor's
  // best case: the recorded hints land close to the minima.
  const std::vector<std::uint64_t> thresholds{400, 200, 100, 50, 25};
  ThreadPool pool(1);
  ProbeCache off("", CacheMode::kOff);

  SweepEngineConfig cold;
  cold.warm_start = false;
  cold.cache = &off;
  SweepEngineConfig warm;
  warm.warm_start = true;
  warm.cache = &off;

  const SweepResult c = run_sweep(step_points(thresholds), cold, pool);
  const SweepResult w = run_sweep(step_points(thresholds), warm, pool);
  ASSERT_EQ(c.points.size(), thresholds.size());
  ASSERT_EQ(w.points.size(), thresholds.size());
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_TRUE(c.points[i].found);
    EXPECT_EQ(c.points[i].minimum, thresholds[i]);
    // Raw probes carry no adaptive bracket flavor, so warm mode differs
    // from cold ONLY by the recorded hint, which steers nothing the search
    // consults.
    expect_same_audit(c.points[i], w.points[i]);
  }
  // Interior points got nonzero hints (anchors stay cold by construction).
  EXPECT_EQ(w.points.front().hint, 0u);
  EXPECT_EQ(w.points.back().hint, 0u);
  for (std::size_t i = 1; i + 1 < thresholds.size(); ++i) {
    EXPECT_GT(w.points[i].hint, 0u) << i;
  }
  EXPECT_EQ(c.points[1].hint, 0u);  // cold mode never hints
}

TEST(SweepEngine, WarmEqualsColdOnAdversarialNonMonotoneNeighbor) {
  // The interior minimum (200) sits far ABOVE both anchors (10, 12), so
  // log-log interpolation predicts ~11 — maximally wrong. The audit must
  // still match the cold search exactly: the hint is only recorded.
  const std::vector<std::uint64_t> thresholds{10, 200, 12};
  ThreadPool pool(4);
  ProbeCache off("", CacheMode::kOff);

  SweepEngineConfig cold;
  cold.warm_start = false;
  cold.cache = &off;
  SweepEngineConfig warm;
  warm.warm_start = true;
  warm.cache = &off;

  const SweepResult c = run_sweep(step_points(thresholds), cold, pool);
  const SweepResult w = run_sweep(step_points(thresholds), warm, pool);
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    EXPECT_EQ(c.points[i].minimum, thresholds[i]);
    expect_same_audit(c.points[i], w.points[i]);
  }
  // The wrong hint really was wrong (nowhere near 200).
  EXPECT_GT(w.points[1].hint, 0u);
  EXPECT_LT(w.points[1].hint, 50u);
}

TEST(SweepEngine, PointBeyondCapReportsNotFoundWithFalseVerdict) {
  const std::vector<std::uint64_t> thresholds{8, 1ULL << 20, 16};
  ThreadPool pool(1);
  ProbeCache off("", CacheMode::kOff);
  SweepEngineConfig cfg;
  cfg.cache = &off;
  const SweepResult r = run_sweep(step_points(thresholds, /*hi=*/1024), cfg,
                                  pool);
  EXPECT_TRUE(r.points[0].found);
  EXPECT_FALSE(r.points[1].found);
  EXPECT_FALSE(r.points[1].verdict);
  EXPECT_TRUE(r.points[2].found);
  EXPECT_EQ(r.points[2].minimum, 16u);
}

TEST(SweepEngine, ComputesOnlyWhatItConsults) {
  // With the cache off, every probe call is a consulted one: a raw-probe
  // family on a multi-thread pool computes exactly its audit trails.
  const std::vector<std::uint64_t> thresholds{400, 200, 100, 50, 25};
  ThreadPool pool(4);
  ProbeCache off("", CacheMode::kOff);
  SweepEngineConfig cfg;
  cfg.cache = &off;
  const SweepResult r = run_sweep(step_points(thresholds), cfg, pool);
  EXPECT_GT(r.probes_consulted, 0u);
  EXPECT_EQ(r.probes_computed, r.probes_consulted);
  EXPECT_EQ(r.trials_computed, r.trials_consulted);
}

// --- Fingerprint invariance on a real tester --------------------------------

class SweepFingerprintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("duti_sweep_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

std::vector<SweepPoint> collision_points() {
  // Small but real: the centralized collision tester over a 64-element
  // Paninski workload at three n values. Cheap enough for a unit test,
  // random enough to exercise the whole probe path.
  std::vector<SweepPoint> points;
  for (const std::uint64_t n : {32ULL, 64ULL, 128ULL}) {
    SweepPoint p;
    p.label = "n=" + std::to_string(n);
    p.axis = static_cast<double>(n);
    p.search.lo = 2;
    p.search.hi = 512;
    p.search.trials = 60;
    p.search.seed = derive_seed(99, n);
    p.uniform = workloads::uniform_factory(n);
    p.far = workloads::paninski_far_factory(n, 0.5);
    p.make_tester = [n](std::uint64_t q) -> TesterRun {
      auto tester = std::make_shared<CentralizedCollisionTester>(
          n, 0.5, static_cast<unsigned>(q));
      return [tester](const SampleSource& src, Rng& rng) {
        return tester->run(src, rng);
      };
    };
    p.cache_base.workload = "paninski:n=" + std::to_string(n) + ":eps=0.5";
    p.cache_base.tester = "collision";
    points.push_back(std::move(p));
  }
  return points;
}

TEST_F(SweepFingerprintTest, InvariantAcrossThreadsAndCacheModes) {
  ProbeCache off("", CacheMode::kOff);
  ProbeCache rw(dir_, CacheMode::kReadWrite);

  SweepEngineConfig cfg;
  cfg.warm_start = true;
  cfg.cache = &off;

  ThreadPool pool1(1);
  ThreadPool pool8(8);

  const SweepResult t1_off = run_sweep(collision_points(), cfg, pool1);
  const SweepResult t8_off = run_sweep(collision_points(), cfg, pool8);
  cfg.cache = &rw;
  const SweepResult t1_rw = run_sweep(collision_points(), cfg, pool1);
  const SweepResult t8_rw = run_sweep(collision_points(), cfg, pool8);

  EXPECT_NE(t1_off.fingerprint, 0u);
  EXPECT_EQ(t1_off.fingerprint, t8_off.fingerprint);
  EXPECT_EQ(t1_off.fingerprint, t1_rw.fingerprint);
  EXPECT_EQ(t1_off.fingerprint, t8_rw.fingerprint);
  for (std::size_t i = 0; i < t1_off.points.size(); ++i) {
    expect_same_audit(t1_off.points[i], t8_off.points[i]);
    expect_same_audit(t1_off.points[i], t1_rw.points[i]);
    expect_same_audit(t1_off.points[i], t8_rw.points[i]);
  }
  // Consulted totals are part of the invariant. With the cache off every
  // consulted probe is computed, once, at any thread count.
  EXPECT_EQ(t1_off.trials_consulted, t8_off.trials_consulted);
  EXPECT_EQ(t1_off.trials_consulted, t1_rw.trials_consulted);
  EXPECT_EQ(t1_off.trials_computed, t1_off.trials_consulted);
  EXPECT_EQ(t8_off.trials_computed, t8_off.trials_consulted);
  // The rw rerun below answers everything from cache.
  cfg.cache = &rw;
  const SweepResult rerun = run_sweep(collision_points(), cfg, pool1);
  EXPECT_EQ(rerun.fingerprint, t1_off.fingerprint);
  EXPECT_EQ(rerun.trials_computed, 0u);
  EXPECT_EQ(rerun.cache.misses, 0u);
  EXPECT_GT(rerun.cache.hits, 0u);
}

TEST_F(SweepFingerprintTest, WarmMatchesColdMinimaOnRealTester) {
  ProbeCache off("", CacheMode::kOff);
  ThreadPool pool(1);

  SweepEngineConfig cold;
  cold.warm_start = false;
  cold.cache = &off;
  SweepEngineConfig warm;
  warm.warm_start = true;
  warm.cache = &off;

  const SweepResult c = run_sweep(collision_points(), cold, pool);
  const SweepResult w = run_sweep(collision_points(), warm, pool);
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    EXPECT_EQ(c.points[i].found, w.points[i].found);
    EXPECT_EQ(c.points[i].minimum, w.points[i].minimum) << c.points[i].label;
    EXPECT_EQ(c.points[i].verdict, w.points[i].verdict);
  }
  // Warm mode's adaptive bracket certificates consult no more trials than
  // the cold full-budget search.
  EXPECT_LE(w.trials_consulted, c.trials_consulted);
}

TEST_F(SweepFingerprintTest, QuickBenchTablesKeepTheirFingerprints) {
  // The bench tables exactly as the benches build them: e10 at its
  // defaults, the rest at --quick. Fingerprints and minima are pinned with
  // the cache off and on both passes through a fresh rw session. The first
  // rw pass starts from an empty calibration memo, so it computes every
  // referee calibration; on the second pass (a new session over the same
  // journal) the declarative families replay every probe and so build no
  // tester. The raw families (e4, e13) bypass the cache and recompute on
  // every pass they run; e4 runs on the cache-off pass only. Calibration
  // replay from the memo is CalibMemo.PinnedCalibrationsReplayBitForBit's
  // job.
  struct Family {
    const char* name;
    std::vector<SweepPoint> points;
    std::uint64_t fingerprint;
    std::vector<std::uint64_t> minima;
    bool raw = false;
    bool off_pass_only = false;
  };
  const bench::FaultSweepSetup e13_quick{256, 60, 0.5, 60, 1, 1 << 8};
  // e4's probes run their trials on the pool that runs the sweep.
  ThreadPool& pool = ThreadPool::global();
  const std::vector<Family> families = {
      {"e1", bench::e1_points(4096, 0.5, {2, 16, 128}, 150, 1),
       0x9b73e12950f83762ULL, {369, 197, 59}},
      {"e9", bench::e9_points(4096, 32, 0.5, {1, 8}, 150, 1),
       0x247908c4c95728a8ULL, {125, 106}},
      {"e10", bench::e10_points(4096, 0.5, bench::e10_shapes(), 150, 1),
       0x625de3bcb9b8a769ULL, {155, 164, 80, 193}},
      {"e13_crash", bench::e13_crash_points(e13_quick), 0x2f49bc8fae3bec99ULL,
       {21, 21, 14, 22, 0, 24, 0, 29, 0, 31}, true},
      {"e13_byzantine", bench::e13_byzantine_points(e13_quick),
       0x45064704396e0ec5ULL, {21, 37, 21, 13, 65, 33, 0, 97, 0, 0, 81, 0},
       true},
      {"e4", bench::e4_points(pool, 64, 0.3, {1, 4, 16}, 40, 1),
       0xe4b7222d8d55f851ULL, {460, 120, 33}, true, true},
  };
  const auto expect_pinned = [](const Family& f, const SweepResult& r,
                                const std::string& pass) {
    EXPECT_EQ(r.fingerprint, f.fingerprint) << f.name << " " << pass;
    std::vector<std::uint64_t> minima;
    for (const SweepPointResult& p : r.points) minima.push_back(p.minimum);
    EXPECT_EQ(minima, f.minima) << f.name << " " << pass;
  };
  ProbeCache off("", CacheMode::kOff);
  SweepEngineConfig cfg;
  cfg.cache = &off;
  CalibMemo::global().clear();
  for (const Family& f : families) {
    expect_pinned(f, run_sweep(f.points, cfg, pool), "cache off");
  }
  CalibMemo::global().clear();
  for (int pass = 0; pass < 2; ++pass) {
    ProbeCache rw(dir_, CacheMode::kReadWrite);
    cfg.cache = &rw;
    for (const Family& f : families) {
      if (f.off_pass_only) continue;
      const SweepResult r = run_sweep(f.points, cfg, pool);
      expect_pinned(f, r, "rw pass " + std::to_string(pass));
      if (pass == 1 && !f.raw) {
        EXPECT_EQ(r.trials_computed, 0u) << f.name;
      }
    }
  }
}

// --- No session, no cache ----------------------------------------------------

// Without a session run_sweep computes every probe it consults, whatever
// DUTI_CACHE says: the library reads no cache environment. The sweep runs
// in a fresh process that sets the env first, so nothing this process
// opened earlier can answer for it.
TEST(SweepNoSessionDeathTest, DefaultConfigComputesEverythingAndWritesNothing) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "duti_sweep_no_session";
  std::filesystem::remove_all(dir);
  EXPECT_EXIT(
      {
        setenv("DUTI_CACHE", "rw", 1);
        setenv("DUTI_CACHE_DIR", dir.c_str(), 1);
        ThreadPool pool(1);
        const SweepResult r =
            run_sweep(bench::e1_points(4096, 0.5, {16}, 60, 1), {}, pool);
        const bool computed_all = r.trials_consulted > 0 &&
                                  r.trials_computed == r.trials_consulted &&
                                  r.cache.hits == 0 && r.cache.misses == 0;
        std::exit(computed_all ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

TEST(SweepEngine, RejectsAPointThatCarriesABracketProbe) {
  // The engine owns the bracket flavor; a point may not bring its own.
  std::vector<SweepPoint> points = step_points({8});
  points[0].search.bracket_probe = points[0].probe;
  EXPECT_THROW((void)run_sweep(points), InvalidArgument);
}

TEST(SweepFingerprint, SensitiveToResults) {
  SweepPointResult a;
  a.label = "p";
  a.axis = 2.0;
  a.found = true;
  a.minimum = 10;
  std::vector<SweepPointResult> one{a};
  const std::uint64_t f1 = sweep_fingerprint(one);
  one[0].minimum = 11;
  EXPECT_NE(sweep_fingerprint(one), f1);
}

}  // namespace
}  // namespace duti
