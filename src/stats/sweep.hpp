// Deterministic sweep engine (DESIGN.md §12): runs a whole family of
// q*-searches — one per sweep point — as a single scheduled computation
// instead of a serial loop of cold find_min_param calls.
//
// Three mechanisms, each individually deterministic:
//
//   1. Point-level parallelism. Points run as pool tasks layered over the
//      existing trial-level sharding (the pool shares nested chunks with
//      idle workers), and every per-point result is keyed by point index —
//      the reduction order never depends on completion order, so the table
//      is bit-identical at DUTI_THREADS=1 and 8.
//   2. Warm-start hints. The two axis-extreme points (anchors) run first
//      with no hint; every interior point then gets a predicted minimum by
//      log-log interpolation between the anchor minima (the paper's bounds
//      are power laws in n, k, eps, r — see PAPER.md). The hint feeds
//      MinSearchConfig::hint, which only seeds find_min_param's first
//      speculative wave: the serial decision replay never reads it, so the
//      returned minimum and audit trail are provably identical to the cold
//      search, monotone family or not (the adversarial case just wastes
//      the wave). Hints are computed from anchor RESULTS, not from
//      whichever neighbor happened to finish first — deterministic by
//      construction.
//   3. One shared probe-cache session. All points (and both search
//      flavors) go through the same ProbeCache, so repeated probes across
//      points and across reruns hit instead of re-sampling; cached tallies
//      rebuild results bit-for-bit, so DUTI_CACHE=off|rw cannot change a
//      verdict.
//
// Trial-count savings come from the dual-flavor bracket machinery
// (adaptive certificates on the bracketing rungs, full-budget confirmation
// at the minimum) plus cache hits; the hint converts idle cores into
// wall-clock, never into a different answer.
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
///   - Declarative (the bench path): supply `make_tester` + `uniform` +
///     `far` (+ `cache_base` identity). The engine derives the per-value
///     seed, builds full and adaptive-bracket probes, and routes both
///     through the shared cache session.
///   - Raw (the test path): supply `probe` (and optionally
///     `search.bracket_probe`). The engine uses them as-is — no cache, no
///     seed derivation — which is what makes audit-trail identity checks
///     exact.
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
  // Warm mode: anchor-first scheduling + hints + adaptive bracket flavor.
  // Cold mode (false): every point runs the plain full-budget search with
  // no hint — the baseline the warm results must match bit-for-bit.
  bool warm_start = true;
  // Stopping schedule for the bracket flavor (target is overridden per
  // point from its search config).
  AdaptiveProbeConfig adaptive{};
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
  std::uint64_t hint = 0;  // warm-start prediction used (0 = cold/anchor)
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
  // Work actually COMPUTED this run (cache hits excluded). Deterministic at
  // 1 thread; with speculation it may exceed the consulted numbers.
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
/// minima and verdicts still match bit-for-bit, but the audit (and hence
/// the fingerprint) legitimately differs: that is exactly where warm mode
/// saves trials (adaptive certificates on bracket rungs, hint field).
[[nodiscard]] SweepResult run_sweep(const std::vector<SweepPoint>& points,
                                    const SweepEngineConfig& cfg = {},
                                    ThreadPool& pool = ThreadPool::global());

}  // namespace duti
