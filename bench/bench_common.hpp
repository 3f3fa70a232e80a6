// Shared plumbing for the experiment binaries: banner printing, CSV output
// location, the measured-vs-predicted table assembly used by every
// experiment, the stamped BENCH_*.json emitter, the micro benches' timer,
// the probe-cache session the benches share, and the sweep-engine glue
// (engine config from CLI flags + the one-line sweep summary). Each bench
// prints the same kind of artifact: a table with one row per sweep point
// carrying the measured minimum resource, the paper's predicted curve, and
// the fitted constant/slope comparison.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "stats/harness.hpp"
#include "stats/probe_cache.hpp"
#include "stats/shape.hpp"
#include "stats/sweep.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace duti::bench {

inline void banner(const std::string& id, const std::string& claim) {
  std::cout << "\n=================================================================\n"
            << id << "\n" << claim
            << "\n=================================================================\n";
}

/// Print the shape verdict under a finished sweep table.
inline void print_shape(const std::vector<double>& x,
                        const std::vector<double>& measured,
                        const std::vector<double>& predicted,
                        const std::string& what) {
  const auto cmp = compare_shapes(x, measured, predicted);
  std::cout << "shape check (" << what << "):\n"
            << "  fitted constant c      = " << format_double(cmp.fitted_constant)
            << "\n  measured log-log slope = " << format_double(cmp.measured_slope)
            << "\n  predicted slope        = " << format_double(cmp.predicted_slope)
            << "\n  slope gap              = " << format_double(cmp.slope_gap)
            << "\n  max ratio deviation    = "
            << format_double(cmp.max_ratio_deviation) << "\n";
}

/// Seconds on the monotonic clock since `start`: the one timer the micro
/// benches share. Timings are reported, never fed into a ProbeResult.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  // duti-lint: allow(no-wall-clock) -- bench timing; never feeds a result
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start).count();
}

/// The probe-cache session that the values of DUTI_CACHE and
/// DUTI_CACHE_DIR describe (nullptr = unset). DUTI_CACHE is `off` or `rw`;
/// unset or empty means off. DUTI_CACHE_DIR defaults to ".duti_cache".
/// Any other DUTI_CACHE value throws InvalidArgument naming the variable
/// and the value.
[[nodiscard]] inline ProbeCache open_cache_session(const char* mode,
                                                   const char* dir) {
  const std::string m = mode == nullptr ? "" : mode;
  if (!m.empty() && m != "off" && m != "rw") {
    throw InvalidArgument("DUTI_CACHE must be off|rw, got \"" + m + "\"");
  }
  return ProbeCache(dir == nullptr ? ".duti_cache" : dir,
                    m == "rw" ? CacheMode::kReadWrite : CacheMode::kOff);
}

/// The one probe-cache session every sweep of a bench process shares,
/// opened from the environment on first use.
[[nodiscard]] inline ProbeCache& cache_session() {
  static ProbeCache session = open_cache_session(
      std::getenv("DUTI_CACHE"), std::getenv("DUTI_CACHE_DIR"));
  return session;
}

/// The configuration a bench actually ran under, for emit_bench_json's
/// "env" stamp: the global pool's size, the host's SIMD tier and the shared
/// probe-cache session's mode — resolved values, not the raw DUTI_*
/// strings.
[[nodiscard]] inline JsonFields resolved_env() {
  return {{"threads", json_u64(ThreadPool::global().size())},
          {"simd", json_str(simd_level_name(simd_active_level()))},
          {"cache", json_str(cache_session().enabled() ? "rw" : "off")}};
}

/// `trials` unless it is zero; zero throws InvalidArgument naming --trials.
/// A success rate over zero trials is undefined, and a search over it
/// would print a table of failed rows and exit 0.
[[nodiscard]] inline std::size_t positive_trials(std::size_t trials) {
  require(trials >= 1, "--trials must be >= 1, got " + std::to_string(trials));
  return trials;
}

/// Reads --quick for a bench whose defaults are already quick and ignores
/// it, so Cli::reject_unread accepts it and `<bench> --quick` runs every
/// bench of the table set.
inline void accept_quick(const Cli& cli) { (void)cli.get_bool("quick", false); }

/// Stock flags every sweep bench accepts.
struct CommonFlags {
  std::size_t trials;
  std::uint64_t seed;
  bool quick;

  explicit CommonFlags(const Cli& cli)
      : trials(positive_trials(cli.get_uint<std::size_t>("trials", 150))),
        seed(cli.get_uint<std::uint64_t>("seed", 1)),
        quick(cli.get_bool("quick", false)) {}
};

// --- Sweep-engine glue -----------------------------------------------------

/// Engine config for a sweep bench: warm mode (adaptive bracket + the
/// shared cache session, with anchor-interpolated hints recorded) by
/// default, `--sweep=cold` forces the cold full-budget baseline. Both modes
/// produce bit-identical minima and verdicts — cold exists to prove exactly
/// that. Any other --sweep value throws InvalidArgument naming it.
[[nodiscard]] inline SweepEngineConfig sweep_engine_config(const Cli& cli) {
  const std::string mode = cli.get_string("sweep", "warm");
  require(mode == "warm" || mode == "cold",
          "--sweep must be warm|cold, got \"" + mode + "\"");
  SweepEngineConfig cfg;
  cfg.warm_start = mode == "warm";
  cfg.cache = &cache_session();
  return cfg;
}

/// One-line machine-diffable summary of a finished sweep: fingerprint plus
/// the consulted/computed work ledger. Runs at different DUTI_THREADS or
/// DUTI_CACHE settings must print the same fingerprint.
inline void print_sweep_summary(const std::string& name,
                                const SweepResult& sweep) {
  std::printf(
      "sweep[%s]: fingerprint=%016llx points=%zu probes=%llu "
      "trials_consulted=%llu trials_computed=%llu cache_hits=%llu\n",
      name.c_str(),
      static_cast<unsigned long long>(sweep.fingerprint),
      sweep.points.size(),
      static_cast<unsigned long long>(sweep.probes_consulted),
      static_cast<unsigned long long>(sweep.trials_consulted),
      static_cast<unsigned long long>(sweep.trials_computed),
      static_cast<unsigned long long>(sweep.cache.hits));
}

}  // namespace duti::bench
