// Deterministic sweep engine (DESIGN.md §12): runs a whole family of
// q*-searches — one per sweep point — as a single scheduled computation
// instead of a serial loop of cold find_min_param calls.
//
// Three mechanisms, each individually deterministic:
//
//   1. Point-level parallelism. All points run in one wave of pool tasks
//      layered over the existing trial-level sharding (the pool shares
//      nested chunks with idle workers), and every per-point result is
//      keyed by point index — the reduction order never depends on
//      completion order, so the table is bit-identical at DUTI_THREADS=1
//      and 8. Each point's find_min_param is serial and computes only the
//      probes it consults.
//   2. Warm-start hints. After the wave, every interior point records a
//      predicted minimum: log-log interpolation between the minima of the
//      two axis-extreme points (anchors); the paper's bounds are power
//      laws in n, k, eps, r — see PAPER.md. The hint steers no work: it is
//      a recorded prediction, hashed into the fingerprint and read by the
//      benchmark's hint-error metric. It is computed from anchor RESULTS,
//      so it is deterministic by construction.
//   3. One shared probe-cache session. All points (and both search
//      flavors) go through the same ProbeCache, so repeated probes across
//      points and across reruns hit instead of re-sampling; cached tallies
//      rebuild results bit-for-bit, so DUTI_CACHE=off|rw cannot change a
//      verdict.
//
// Trial-count savings come from the dual-flavor bracket machinery
// (adaptive certificates on the bracketing rungs, full-budget confirmation
// at the minimum) plus cache hits.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "stats/harness.hpp"
#include "stats/probe_cache.hpp"
#include "util/thread_pool.hpp"

namespace duti {

/// One point of a sweep: everything needed to run its q*-search, plus the
/// axis coordinate the warm-start predictor interpolates along.
///
/// Two ways to describe the probe:
///   - Declarative (boolean uniformity testers): supply `make_tester` +
///     `uniform` + `far` (+ `cache_base` identity). The engine derives the
///     per-value seed, builds full and adaptive-bracket probes, and routes
///     both through the shared cache session.
///   - Raw (any other probe, e.g. e4's learning probe or e13's
///     RefereeOutcome probes, and the tests' synthetic ones): supply
///     `probe` (and optionally `search.bracket_probe`). The engine uses
///     them as-is — no cache, no seed derivation — so a raw point without
///     a bracket probe runs exactly the find_min_param search it describes,
///     which also makes audit-trail identity checks exact.
struct SweepPoint {
  std::string label;  // row label, participates in the sweep fingerprint
  double axis = 0.0;  // coordinate on the sweep axis (k, n, eps, r, T, ...)
  MinSearchConfig search;

  // Declarative description.
  std::function<TesterRun(std::uint64_t value)> make_tester;
  SourceSpec uniform;
  SourceSpec far;
  // Per-value probe seed; default derive_seed(search.seed, value).
  std::function<std::uint64_t(std::uint64_t value)> seed_for;
  // Cache identity: workload/tester ids. param/trials/seed/flavor are
  // filled per probe by the engine.
  ProbeKey cache_base;

  // Raw override (must be a pure function of the value).
  ProbeFn probe;
};

struct SweepEngineConfig {
  // Warm mode: adaptive bracket flavor (the default AdaptiveProbeConfig
  // schedule at each point's target) + recorded anchor-interpolated hints.
  // Cold mode (false): every point runs the plain full-budget search with
  // no hint — the baseline the warm results must match bit-for-bit.
  bool warm_start = true;
  // Shared cache session; nullptr = ProbeCache::global() (DUTI_CACHE).
  ProbeCache* cache = nullptr;
};

struct SweepPointResult {
  std::string label;
  double axis = 0.0;
  bool found = false;
  std::uint64_t minimum = 0;
  // passes(search.target) of the final consulted probe at the minimum
  // (false when !found).
  bool verdict = false;
  // Warm-start prediction of the minimum, recorded only (0 = cold mode,
  // an anchor, or no usable anchor pair).
  std::uint64_t hint = 0;
  // Consulted work, summed over the audit trail (identical at any thread
  // count and any cache mode).
  std::uint64_t probes_consulted = 0;
  std::uint64_t trials_consulted = 0;
  std::vector<std::pair<std::uint64_t, ProbeResult>> audit;
};

struct SweepResult {
  std::vector<SweepPointResult> points;  // in input order
  // FNV-1a over every point's label/axis/hint/minimum/verdict and full
  // audit tallies — the cross-thread-count, cross-cache-mode invariant.
  std::uint64_t fingerprint = 0;
  std::uint64_t probes_consulted = 0;
  std::uint64_t trials_consulted = 0;
  // Work actually COMPUTED this run: the consulted work the cache did not
  // answer. Searches compute only what they consult, so with the cache off
  // these equal the consulted numbers.
  std::uint64_t probes_computed = 0;
  std::uint64_t trials_computed = 0;
  CacheStats cache;  // this run's delta on the shared session
};

/// Log-log interpolation between two anchor minima, evaluated at `axis` and
/// clamped to [lo, hi]; falls back to linear-axis interpolation when any
/// coordinate is non-positive. Returns 0 (no hint) when the anchors carry
/// no usable minima. Exposed for tests.
[[nodiscard]] std::uint64_t sweep_interpolate_hint(double axis0,
                                                   std::uint64_t min0,
                                                   double axis1,
                                                   std::uint64_t min1,
                                                   double axis,
                                                   std::uint64_t lo,
                                                   std::uint64_t hi);

/// Fingerprint of a finished sweep (see SweepResult::fingerprint).
[[nodiscard]] std::uint64_t sweep_fingerprint(
    const std::vector<SweepPointResult>& points);

/// Run every point's q*-search and return per-point results in input
/// order. Deterministic contract: for a FIXED engine config, minimum,
/// verdict, audit trail, and fingerprint are identical across
/// DUTI_THREADS and across cache modes. Between warm and cold configs the
/// minima and verdicts still match bit-for-bit, but the audit legitimately
/// differs — adaptive certificates on bracket rungs are exactly where warm
/// mode saves trials — and so does the fingerprint, which also hashes the
/// recorded hints.
[[nodiscard]] SweepResult run_sweep(const std::vector<SweepPoint>& points,
                                    const SweepEngineConfig& cfg = {},
                                    ThreadPool& pool = ThreadPool::global());

}  // namespace duti
