// The measurement harness: estimates a tester's two-sided success
// probability (accept uniform AND reject far), and searches for the minimal
// resource (q samples, k nodes, ...) at which the tester clears the paper's
// 2/3 success bar (kSuccessBar). These measured minima are the data points
// every bench compares against the paper's predicted curves. The bar and
// the adaptive schedule are constants: every caller uses the same ones.
//
// Parallelism (DESIGN.md §7): every probe trial derives its RNG streams from
// (seed, salt, trial-index) alone, so trials are order-free and the harness
// shards them across a ThreadPool, one trial per claim. All tallies are
// integer counts, kept per worker slot and merged by addition, which gives
// the same totals in any order, so a ProbeResult is bit-for-bit identical
// at any thread count (enforced by test_harness_parallel). Testers and source
// factories passed to the probe functions must be safe to invoke
// concurrently from several threads (all in-repo ones are: they only read
// captured immutable state).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/sample_source.hpp"
#include "testers/robust_rules.hpp"  // RefereeOutcome
#include "util/confidence.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace duti {

/// One tester execution: true = accept (the tester thinks "uniform").
using TesterRun = std::function<bool(const SampleSource&, Rng&)>;

/// Fault-aware tester execution: accept/reject/abort, with abort reasons
/// (timeout, quorum-not-met) kept distinct from rejections.
using TesterRunEx = std::function<RefereeOutcome(const SampleSource&, Rng&)>;

/// Creates a fresh sample source per trial. For the far side this draws a
/// NEW random far distribution each time (a fresh perturbation z — the
/// hard mixture of Section 3), so the measured rejection rate is over the
/// same ensemble the lower bound argues about.
using SourceFactory = std::function<std::unique_ptr<SampleSource>(Rng&)>;

/// A SourceFactory plus the promise (or not) that it ignores its Rng — i.e.
/// every trial would see an identical source. When the promise holds, a
/// probe builds the source once, before its first batch, and its concurrent
/// workers all read that one source, so the source must be safe to share
/// (UniformSource is: it holds only n). That replaces a heap allocation per
/// trial (measured in micro_substrate).
/// Implicitly convertible from a plain SourceFactory (treated as
/// trial-varying), so existing call sites are unaffected.
class SourceSpec {
 public:
  SourceSpec() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): intentional implicit bridge
  SourceSpec(SourceFactory factory, bool trial_invariant = false)
      : factory_(std::move(factory)), trial_invariant_(trial_invariant) {}

  /// Invoke the underlying factory (keeps `spec(rng)` call sites working).
  [[nodiscard]] std::unique_ptr<SampleSource> operator()(Rng& rng) const {
    return factory_(rng);
  }
  [[nodiscard]] const SourceFactory& factory() const noexcept {
    return factory_;
  }
  [[nodiscard]] bool trial_invariant() const noexcept {
    return trial_invariant_;
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return static_cast<bool>(factory_);
  }

 private:
  SourceFactory factory_;
  bool trial_invariant_ = false;
};

/// The paper's success bar: a tester must accept uniform input and reject
/// far input, each with probability at least 2/3.
inline constexpr double kSuccessBar = 2.0 / 3.0;

/// Why a probe stopped: ran its whole budget, or an early-stopping
/// certificate fired first (DESIGN.md section 8).
enum class ProbeStop : std::uint8_t {
  kExhausted = 0,      // all budgeted trials ran
  kDeterministic = 1,  // remaining trials could not flip the verdict
  kConfidence = 2,     // union-bound-corrected Wilson certificate fired
};

struct ProbeResult {
  double uniform_accept_rate = 0.0;
  double far_reject_rate = 0.0;
  Interval uniform_ci;
  Interval far_ci;
  std::uint64_t trials = 0;
  // Integer tallies behind the rates (rate = successes / trials). Kept so
  // CI-aware decisions and the probe cache can rebuild every derived field
  // bit-for-bit.
  std::uint64_t uniform_successes = 0;
  std::uint64_t far_successes = 0;
  // Budget the probe was allotted; trials < budget iff it stopped early.
  std::uint64_t budget = 0;
  ProbeStop stop = ProbeStop::kExhausted;
  // Abort attribution (filled by the RefereeOutcome probe; zero for the
  // boolean one). Aborted trials fail their side but are NOT rejections.
  std::uint64_t uniform_aborts_quorum = 0;
  std::uint64_t far_aborts_quorum = 0;

  /// Both sides at or above the success bar.
  [[nodiscard]] bool passes() const {
    return uniform_accept_rate >= kSuccessBar &&
           far_reject_rate >= kSuccessBar;
  }
  /// Wilson interval for each side at confidence multiplier `z`, rebuilt
  /// from the integer tallies.
  [[nodiscard]] Interval uniform_wilson(double z) const {
    return wilson_interval(uniform_successes, trials, z);
  }
  [[nodiscard]] Interval far_wilson(double z) const {
    return wilson_interval(far_successes, trials, z);
  }
  /// CI-aware pass: both sides' Wilson LOWER bounds clear the bar — the
  /// single place the 2/3 bar is decided with a margin (the adaptive
  /// certificate).
  [[nodiscard]] bool passes_with_margin(double z) const {
    return uniform_wilson(z).lo >= kSuccessBar &&
           far_wilson(z).lo >= kSuccessBar;
  }
  /// CI-aware fail: either side's Wilson UPPER bound is below the bar.
  [[nodiscard]] bool fails_with_margin(double z) const {
    return uniform_wilson(z).hi < kSuccessBar ||
           far_wilson(z).hi < kSuccessBar;
  }
  [[nodiscard]] bool early_stopped() const noexcept {
    return stop != ProbeStop::kExhausted;
  }
  [[nodiscard]] std::uint64_t aborts() const noexcept {
    return uniform_aborts_quorum + far_aborts_quorum;
  }
};

/// Rebuild the derived fields (rates, default Wilson CIs) from integer
/// tallies with the exact arithmetic the probe engine uses — so a
/// ProbeResult round-tripped through integer storage (the probe cache) is
/// bit-identical to the freshly computed one.
[[nodiscard]] ProbeResult probe_result_from_tallies(
    std::uint64_t uniform_successes, std::uint64_t far_successes,
    std::uint64_t trials, std::uint64_t budget, ProbeStop stop);

/// Which trial schedule a probe runs. kFull runs the whole budget as one
/// batch. kAdaptive runs fixed batches of kAdaptiveBatch trials and may stop
/// at a batch boundary. Batch boundaries never depend on the thread count,
/// and every stopping decision is a function of integer tallies, so an
/// adaptive result, its stopping point included, is bit-identical at any
/// thread count. kFull is 0, so a braced `{}` means the full-budget probe.
enum class ProbeFlavor : std::uint8_t { kFull = 0, kAdaptive = 1 };

/// The adaptive schedule: trials per batch (certificates are checked at
/// batch boundaries only), and the total certificate failure probability
/// across every peek (union-bound corrected). Confidence certificates are
/// first consulted at hoeffding_trials(1 - kSuccessBar, kAdaptiveDelta)
/// trials: below that count not even a perfect run is certifiable.
inline constexpr std::size_t kAdaptiveBatch = 32;
inline constexpr double kAdaptiveDelta = 1e-3;

/// Run up to `trials` independent executions against fresh uniform and far
/// sources and tally both error sides. Trials are sharded across `pool`
/// (default: the global pool, sized by DUTI_THREADS); the result is
/// bit-identical at any thread count.
///
/// kFull runs every trial. kAdaptive stops as soon as either (a) the
/// remaining budget provably cannot flip the full-budget pass/fail verdict
/// (deterministic certificate), or (b) a union-bound-corrected Wilson
/// confidence sequence certifies both sides above — or either side below —
/// the bar (statistical certificate, wrong with probability at most
/// kAdaptiveDelta). Either way trial t's streams derive from (seed, t)
/// alone, so an early-stopped probe ran a prefix of the full probe's trials
/// and its passes() IS the certified verdict.
[[nodiscard]] ProbeResult probe_success(
    const TesterRun& tester, const SourceSpec& uniform_source,
    const SourceSpec& far_source, std::size_t trials, std::uint64_t seed,
    ThreadPool& pool = ThreadPool::global(),
    ProbeFlavor flavor = ProbeFlavor::kFull);

/// The same probe for a tester that reports a full RefereeOutcome: per-trial
/// abort reasons are attributed instead of being conflated with
/// rejections. Same seed derivation, so a boolean tester and its
/// RefereeOutcome wrapping see identical sources and run streams.
[[nodiscard]] ProbeResult probe_success(
    const TesterRunEx& tester, const SourceSpec& uniform_source,
    const SourceSpec& far_source, std::size_t trials, std::uint64_t seed,
    ThreadPool& pool = ThreadPool::global(),
    ProbeFlavor flavor = ProbeFlavor::kFull);

/// Probe at one parameter value (the searched resource). Should be a pure
/// function of the value (all in-repo probes are: they derive their seed
/// from the value), so a search's result depends only on its config.
using ProbeFn = std::function<ProbeResult(std::uint64_t)>;

struct MinSearchConfig {
  std::uint64_t lo = 2;          // smallest candidate value
  std::uint64_t hi = 1ULL << 22; // give-up cap
  std::size_t trials = 400;      // trials per probe
  std::uint64_t seed = 1;
  // Work avoidance (DESIGN.md section 8). When set, this (cheap, typically
  // early-stopping) probe over the same seeds answers the exponential
  // bracketing rungs and the early bisection midpoints; bisection falls
  // back to the full-budget probe once the bracket is at most 8 values
  // wide, and the returned minimum is always confirmed with a full-budget
  // probe. If the confirmation fails (the bracket certificate mis-fired,
  // probability <= the bracket probe's delta), the search resumes above
  // the refuted value with full-budget probes, so the returned minimum's
  // verdict is always full-budget-backed.
  ProbeFn bracket_probe;
};

struct MinSearchResult {
  std::uint64_t minimum = 0;  // smallest passing value found
  bool found = false;         // false if even `hi` fails
  std::vector<std::pair<std::uint64_t, ProbeResult>> probes;  // audit trail
};

/// Find the minimal parameter value whose probe passes, assuming success is
/// (statistically) monotone in the parameter: exponential bracketing from
/// `lo` (doubling, saturated at `hi`), then binary search inside the
/// bracket.
///
/// The search is serial: it calls the probe once per consulted value, in
/// order, and computes nothing else, so `probes` lists every probe call.
/// Parallelism lives inside each probe (probe_success shards its trials
/// over the pool the probe captured) and across points in run_sweep; the
/// search itself runs on the calling thread and does not use `pool`.
[[nodiscard]] MinSearchResult find_min_param(
    const ProbeFn& probe, const MinSearchConfig& cfg,
    ThreadPool& pool = ThreadPool::global());

}  // namespace duti
