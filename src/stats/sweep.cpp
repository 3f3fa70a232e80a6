#include "stats/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>

#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace duti {

namespace {

// Shared per-run tallies of COMPUTED work (cache hits excluded). Updated
// from probe lambdas that may run concurrently across points; relaxed
// ordering is fine — the counters are summed after the run joins, and they
// never feed a determinism-sensitive path.
struct RunCounters {
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> trials{0};

  void record(const ProbeResult& r) {
    probes.fetch_add(1, std::memory_order_relaxed);
    trials.fetch_add(r.trials, std::memory_order_relaxed);
  }
};

std::uint64_t point_seed(const SweepPoint& p, std::uint64_t value) {
  return p.seed_for ? p.seed_for(value) : derive_seed(p.search.seed, value);
}

// Cached probe for a declarative point: the full-budget flavor, or the
// early-stopping bracket flavor over the SAME per-value seed (the adaptive
// engine runs a prefix of the full probe's trial stream, so an exhausted
// bracket probe is bit-identical to the full one). The key pins every
// input that shapes the result, so a hit is bit-identical to the fresh
// computation.
ProbeFn make_probe(const SweepPoint& p, ProbeFlavor flavor, ProbeCache& cache,
                   RunCounters& counters, ThreadPool& pool) {
  return [&p, flavor, &cache, &counters, &pool](std::uint64_t value) {
    const std::uint64_t seed = point_seed(p, value);
    const ProbeKey key =
        probe_key(p.cache_base, value, p.search.trials, seed, flavor);
    return cache.get_or_compute(key, [&] {
      const ProbeResult r = probe_success(p.make_tester(value), p.uniform,
                                          p.far, p.search.trials, seed, pool,
                                          flavor);
      counters.record(r);
      return r;
    });
  };
}

ProbeFn wrap_counting(ProbeFn fn, RunCounters& counters) {
  return [fn = std::move(fn), &counters](std::uint64_t value) {
    const ProbeResult r = fn(value);
    counters.record(r);
    return r;
  };
}

CacheStats stats_delta(const CacheStats& before, const CacheStats& after) {
  CacheStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.inserts = after.inserts - before.inserts;
  return d;
}

}  // namespace

std::uint64_t sweep_interpolate_hint(double axis0, std::uint64_t min0,
                                     double axis1, std::uint64_t min1,
                                     double axis, std::uint64_t lo,
                                     std::uint64_t hi) {
  if (min0 == 0 || min1 == 0 || lo > hi) return 0;
  const auto clamp_to_range = [&](double v) -> std::uint64_t {
    if (!(v >= 1.0)) return lo;  // also catches NaN
    if (v >= static_cast<double>(hi)) return hi;
    const auto u = static_cast<std::uint64_t>(std::llround(v));
    return std::min(hi, std::max(lo, u));
  };
  // Degenerate axis: no direction to extrapolate along — predict the level.
  if (axis0 == axis1) {
    return clamp_to_range(std::sqrt(static_cast<double>(min0) *
                                    static_cast<double>(min1)));
  }
  // The paper's q* curves are power laws in every sweep axis, so fit the
  // straight line in log-log space when the axis allows it; otherwise the
  // minima still vary geometrically, so keep the log on the value side.
  double x0 = axis0;
  double x1 = axis1;
  double x = axis;
  if (axis0 > 0.0 && axis1 > 0.0 && axis > 0.0) {
    x0 = std::log(axis0);
    x1 = std::log(axis1);
    x = std::log(axis);
  }
  const double y0 = std::log(static_cast<double>(min0));
  const double y1 = std::log(static_cast<double>(min1));
  const double t = (x - x0) / (x1 - x0);
  return clamp_to_range(std::exp(y0 + t * (y1 - y0)));
}

std::uint64_t sweep_fingerprint(const std::vector<SweepPointResult>& points) {
  Fnv64 h;
  h.u64(points.size());
  for (const SweepPointResult& p : points) {
    h.str(p.label);
    h.u64(std::bit_cast<std::uint64_t>(p.axis));
    h.u64(p.found ? 1 : 0);
    h.u64(p.minimum);
    h.u64(p.verdict ? 1 : 0);
    h.u64(p.hint);
    h.u64(p.audit.size());
    for (const auto& [value, r] : p.audit) {
      h.u64(value);
      h.u64(r.trials);
      h.u64(r.uniform_successes);
      h.u64(r.far_successes);
      h.u64(r.budget);
      h.u64(static_cast<std::uint64_t>(r.stop));
    }
  }
  return h.value();
}

SweepResult run_sweep(const std::vector<SweepPoint>& points,
                      const SweepEngineConfig& cfg, ThreadPool& pool) {
  for (const SweepPoint& p : points) {
    require(static_cast<bool>(p.probe) ||
                (static_cast<bool>(p.make_tester) &&
                 static_cast<bool>(p.uniform) && static_cast<bool>(p.far)),
            "run_sweep: point needs a raw probe or a full declarative spec");
    require(!p.search.bracket_probe,
            "run_sweep: a point must not carry a bracket_probe; the engine "
            "sets the bracket flavor");
  }

  ProbeCache no_cache("", CacheMode::kOff);
  ProbeCache& cache = cfg.cache != nullptr ? *cfg.cache : no_cache;
  const CacheStats before = cache.stats();
  RunCounters counters;

  SweepResult out;
  out.points.resize(points.size());

  auto run_point = [&](std::size_t i) {
    const SweepPoint& p = points[i];
    MinSearchConfig scfg = p.search;

    ProbeFn full;
    if (p.probe) {
      full = wrap_counting(p.probe, counters);
    } else {
      full = make_probe(p, ProbeFlavor::kFull, cache, counters, pool);
      // Cold mode is the plain full-budget search.
      if (cfg.warm_start) {
        scfg.bracket_probe =
            make_probe(p, ProbeFlavor::kAdaptive, cache, counters, pool);
      }
    }

    const MinSearchResult r = find_min_param(full, scfg, pool);

    SweepPointResult& pr = out.points[i];
    pr.label = p.label;
    pr.axis = p.axis;
    pr.found = r.found;
    pr.minimum = r.found ? r.minimum : 0;
    pr.audit = r.probes;
    pr.probes_consulted = pr.audit.size();
    for (const auto& [value, probe_result] : pr.audit) {
      (void)value;
      pr.trials_consulted += probe_result.trials;
    }
    pr.verdict = false;
    if (r.found) {
      for (auto it = pr.audit.rbegin(); it != pr.audit.rend(); ++it) {
        if (it->first == r.minimum) {
          pr.verdict = it->second.passes();
          break;
        }
      }
    }
  };

  // All points run in one wave, keyed by point index.
  pool.parallel_for(points.size(), 1,
                    [&](std::size_t begin, std::size_t end, unsigned) {
                      for (std::size_t i = begin; i < end; ++i) run_point(i);
                    });

  // Warm-start hints: with >= 3 points, every interior point records the
  // minimum predicted by interpolating between the axis-extreme anchors'
  // results. The hint steers no work; it is a pure function of the spec
  // and the anchor results, recorded so the predictor stays measurable.
  if (cfg.warm_start && points.size() >= 3) {
    std::size_t imin = 0;
    std::size_t imax = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].axis < points[imin].axis) imin = i;
      if (points[i].axis > points[imax].axis) imax = i;
    }
    const SweepPointResult& a = out.points[imin];
    const SweepPointResult& b = out.points[imax];
    if (imin != imax && a.found && b.found) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (i == imin || i == imax) continue;
        const SweepPoint& p = points[i];
        out.points[i].hint =
            sweep_interpolate_hint(a.axis, a.minimum, b.axis, b.minimum,
                                   p.axis, p.search.lo, p.search.hi);
      }
    }
  }

  for (const SweepPointResult& pr : out.points) {
    out.probes_consulted += pr.probes_consulted;
    out.trials_consulted += pr.trials_consulted;
  }
  out.probes_computed = counters.probes.load(std::memory_order_relaxed);
  out.trials_computed = counters.trials.load(std::memory_order_relaxed);
  out.cache = stats_delta(before, cache.stats());
  out.fingerprint = sweep_fingerprint(out.points);
  return out;
}

}  // namespace duti
