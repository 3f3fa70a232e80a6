// Measures the sweep engine (src/stats/sweep.hpp) against its own cold
// serial baseline on the ported benches' quick-mode sweeps, and ENFORCES
// the determinism contract at runtime:
//
//   cold   : warm_start off, cache off, 1-thread pool — the serial
//            full-budget baseline every number must match.
//   warm1  : warm start + fresh rw cache session, 1-thread pool.
//   warm8  : warm start + a second fresh rw cache session, 8-thread pool —
//            must reproduce warm1's minima, verdicts, and fingerprint.
//   rerun  : warm start against warm1's populated cache — the "rerun the
//            bench tomorrow" case; every probe must hit.
//
// Gates (nonzero exit on any failure):
//   - per-point minimum and verdict: warm1 == warm8 == cold
//   - sweep fingerprint: warm1 == warm8 == rerun
//   - rerun computes zero trials (cache covers the whole sweep)
//   - computed trials: warm8 == warm1 (searches compute only what they
//     consult, so thread count cannot add work)
//   - aggregate 2-run trial reduction (2*cold) / (warm1 + rerun) >= 2x
//
// Emits BENCH_sweep.json. Wall-clock numbers are recorded for context
// only (this container is often 1-core); every gate is on trial counts
// and bit-identity, which thread count cannot change.
//
// duti-lint: allow-file(no-wall-clock) -- the point-parallel speedup row
// is a wall-clock measurement by nature; it gates nothing (trial-count
// and bit-identity gates carry the lane) and never feeds a ProbeResult.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sweep_specs.hpp"

namespace {

using namespace duti;

struct FamilyRow {
  std::string name;
  std::size_t points = 0;
  std::uint64_t cold_trials = 0;
  std::uint64_t warm_trials = 0;
  std::uint64_t warm8_trials = 0;
  std::uint64_t rerun_trials = 0;
  std::uint64_t rerun_hits = 0;
  std::uint64_t rerun_misses = 0;
  double single_run_reduction = 0.0;
  double combined_reduction = 0.0;
  std::uint64_t fingerprint = 0;
  bool minima_match = true;
  bool verdicts_match = true;
  bool fingerprints_match = true;
  double seconds_cold = 0.0;
  double seconds_warm1 = 0.0;
  double seconds_warm8 = 0.0;
};

FamilyRow measure_family(const std::string& name,
                         const std::vector<SweepPoint>& points,
                         const std::string& cache_root) {
  FamilyRow row;
  row.name = name;
  row.points = points.size();

  ThreadPool pool1(1);
  ThreadPool pool8(8);
  ProbeCache off_cache("", CacheMode::kOff);

  const std::string dir1 = cache_root + "/" + name + "_t1";
  const std::string dir8 = cache_root + "/" + name + "_t8";
  std::filesystem::remove_all(dir1);
  std::filesystem::remove_all(dir8);

  SweepEngineConfig cold_cfg;
  cold_cfg.warm_start = false;
  cold_cfg.cache = &off_cache;

  auto t0 = std::chrono::steady_clock::now();
  const SweepResult cold = run_sweep(points, cold_cfg, pool1);
  row.seconds_cold = bench::seconds_since(t0);

  ProbeCache cache1(dir1, CacheMode::kReadWrite);
  SweepEngineConfig warm_cfg;
  warm_cfg.warm_start = true;
  warm_cfg.cache = &cache1;

  t0 = std::chrono::steady_clock::now();
  const SweepResult warm1 = run_sweep(points, warm_cfg, pool1);
  row.seconds_warm1 = bench::seconds_since(t0);

  ProbeCache cache8(dir8, CacheMode::kReadWrite);
  SweepEngineConfig warm8_cfg = warm_cfg;
  warm8_cfg.cache = &cache8;

  t0 = std::chrono::steady_clock::now();
  const SweepResult warm8 = run_sweep(points, warm8_cfg, pool8);
  row.seconds_warm8 = bench::seconds_since(t0);

  // Rerun against warm1's populated session: the whole sweep should hit.
  const SweepResult rerun = run_sweep(points, warm_cfg, pool1);

  row.cold_trials = cold.trials_computed;
  row.warm_trials = warm1.trials_computed;
  row.warm8_trials = warm8.trials_computed;
  row.rerun_trials = rerun.trials_computed;
  row.rerun_hits = rerun.cache.hits;
  row.rerun_misses = rerun.cache.misses;
  row.fingerprint = warm1.fingerprint;

  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& c = cold.points[i];
    const auto& w1 = warm1.points[i];
    const auto& w8 = warm8.points[i];
    if (c.found != w1.found || c.minimum != w1.minimum ||
        w1.found != w8.found || w1.minimum != w8.minimum) {
      row.minima_match = false;
    }
    if (c.verdict != w1.verdict || w1.verdict != w8.verdict) {
      row.verdicts_match = false;
    }
  }
  row.fingerprints_match = warm1.fingerprint == warm8.fingerprint &&
                           warm1.fingerprint == rerun.fingerprint;

  const auto warm_total = static_cast<double>(row.warm_trials +
                                              row.rerun_trials);
  row.single_run_reduction =
      row.warm_trials == 0
          ? 0.0
          : static_cast<double>(row.cold_trials) /
                static_cast<double>(row.warm_trials);
  row.combined_reduction =
      warm_total == 0.0 ? 0.0
                        : 2.0 * static_cast<double>(row.cold_trials) /
                              warm_total;

  std::printf(
      "%-14s points=%zu cold=%llu warm=%llu warm8=%llu rerun=%llu "
      "(hits=%llu) 1-run=%.2fx 2-run=%.2fx minima=%s verdicts=%s "
      "fingerprints=%s\n",
      name.c_str(), row.points,
      static_cast<unsigned long long>(row.cold_trials),
      static_cast<unsigned long long>(row.warm_trials),
      static_cast<unsigned long long>(row.warm8_trials),
      static_cast<unsigned long long>(row.rerun_trials),
      static_cast<unsigned long long>(row.rerun_hits),
      row.single_run_reduction, row.combined_reduction,
      row.minima_match ? "OK" : "MISMATCH",
      row.verdicts_match ? "OK" : "MISMATCH",
      row.fingerprints_match ? "OK" : "MISMATCH");
  return row;
}

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::printf("micro_sweep [--quick] [--trials=150] [--seed=1]\n");
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto trials = flags.trials;
  const auto seed = flags.seed;
  cli.reject_unread();

  bench::banner("micro_sweep  warm-start + shared-cache sweep engine",
                "gates: warm minima/verdicts == cold serial baseline at 1 "
                "and 8 threads; fingerprint thread-count- and cache-"
                "invariant; >= 2x 2-run trial reduction; computed trials "
                "equal at 1 and 8 threads");

  // Families mirror the ported benches' --quick sweeps (same dims, same
  // seed derivations; e10, which has no quick mode, at its defaults).
  // --quick here trims to three families so the tier-1 smoke stays fast;
  // the full set is the default.
  using Builder = std::function<std::vector<SweepPoint>()>;
  std::vector<std::pair<std::string, Builder>> families = {
      {"e1_any_rule",
       [&] { return bench::e1_points(4096, 0.5, {2, 16, 128}, trials, seed); }},
      {"e3_threshold",
       [&] { return bench::e3_points(4096, 64, 0.5, {1, 4, 16}, trials, seed); }},
      {"e9_multibit",
       [&] { return bench::e9_points(4096, 32, 0.5, {1, 8}, trials, seed); }},
  };
  if (!flags.quick) {
    families.push_back({"e2_and_rule", [&] {
      return bench::e2_and_points(1024, 0.5, {2, 32, 512}, trials, seed);
    }});
    families.push_back({"e2_threshold", [&] {
      return bench::e2_threshold_points(1024, 0.5, {2, 32, 512}, trials, seed);
    }});
    families.push_back({"e8_collision_n", [&] {
      return bench::e8_n_points<CentralizedCollisionTester>(
          "collision", {256, 4096}, 0.5, trials, seed);
    }});
    families.push_back({"e8_collision_eps", [&] {
      return bench::e8_eps_points(4096, {0.25, 0.5, 1.0}, trials, seed);
    }});
    families.push_back({"e10_asymmetric", [&] {
      return bench::e10_points(4096, 0.5, bench::e10_shapes(), trials, seed);
    }});
  }

  const std::string cache_root = bench::output_dir() + "/micro_sweep_cache";
  std::vector<FamilyRow> rows;
  for (const auto& [name, build] : families) {
    rows.push_back(measure_family(name, build(), cache_root));
  }

  std::uint64_t cold_total = 0;
  std::uint64_t warm_total = 0;
  std::uint64_t rerun_total = 0;
  std::uint64_t rerun_misses = 0;
  bool all_match = true;
  bool computed_invariant = true;
  double speedup_sum = 0.0;
  for (const FamilyRow& r : rows) {
    cold_total += r.cold_trials;
    warm_total += r.warm_trials;
    rerun_total += r.rerun_trials;
    rerun_misses += r.rerun_misses;
    all_match = all_match && r.minima_match && r.verdicts_match &&
                r.fingerprints_match;
    computed_invariant =
        computed_invariant && r.warm8_trials == r.warm_trials;
    speedup_sum += r.seconds_warm8 > 0.0 ? r.seconds_warm1 / r.seconds_warm8
                                         : 0.0;
  }
  const double combined =
      (warm_total + rerun_total) == 0
          ? 0.0
          : 2.0 * static_cast<double>(cold_total) /
                static_cast<double>(warm_total + rerun_total);
  const double single =
      warm_total == 0 ? 0.0
                      : static_cast<double>(cold_total) /
                            static_cast<double>(warm_total);
  const double point_speedup =
      rows.empty() ? 0.0 : speedup_sum / static_cast<double>(rows.size());

  const bool reduction_ok = combined >= 2.0;
  const bool rerun_ok = rerun_misses == 0;

  std::printf(
      "\nTOTAL cold=%llu warm=%llu rerun=%llu  single-run=%.2fx "
      "combined 2-run=%.2fx (gate >= 2x: %s)\n"
      "identity gates (minima/verdicts/fingerprints at 1 and 8 threads): "
      "%s\nrerun served entirely from cache: %s\n"
      "computed trials thread-invariant (warm8 == warm1): %s\n"
      "mean warm1/warm8 wall ratio: %.2fx (context only; "
      "hardware_concurrency=%u)\n",
      static_cast<unsigned long long>(cold_total),
      static_cast<unsigned long long>(warm_total),
      static_cast<unsigned long long>(rerun_total), single, combined,
      reduction_ok ? "PASS" : "FAIL", all_match ? "PASS" : "FAIL",
      rerun_ok ? "PASS" : "FAIL", computed_invariant ? "PASS" : "FAIL",
      point_speedup,
      std::thread::hardware_concurrency());

  // --- BENCH_sweep.json ----------------------------------------------------
  std::string sweeps = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FamilyRow& r = rows[i];
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    sweeps += "    {\"name\": " + bench::json_str(r.name) +
              ", \"points\": " + bench::json_u64(r.points) +
              ", \"cold_trials\": " + bench::json_u64(r.cold_trials) +
              ", \"warm_trials\": " + bench::json_u64(r.warm_trials) +
              ", \"warm8_trials\": " + bench::json_u64(r.warm8_trials) +
              ", \"rerun_trials\": " + bench::json_u64(r.rerun_trials) +
              ", \"rerun_cache_hits\": " + bench::json_u64(r.rerun_hits) +
              ", \"single_run_reduction\": " +
              bench::json_num(r.single_run_reduction) +
              ", \"combined_reduction\": " +
              bench::json_num(r.combined_reduction) +
              ", \"fingerprint\": " + bench::json_str(fp) +
              ", \"minima_match\": " + bench::json_bool(r.minima_match) +
              ", \"verdicts_match\": " + bench::json_bool(r.verdicts_match) +
              ", \"fingerprints_match\": " +
              bench::json_bool(r.fingerprints_match) +
              ", \"seconds_cold\": " + bench::json_num(r.seconds_cold) +
              ", \"seconds_warm1\": " + bench::json_num(r.seconds_warm1) +
              ", \"seconds_warm8\": " + bench::json_num(r.seconds_warm8) +
              "}";
    sweeps += i + 1 < rows.size() ? ",\n" : "\n";
  }
  sweeps += "  ]";
  const std::string path = bench::emit_bench_json(
      "sweep", bench::resolved_env(),
      {{"quick", bench::json_bool(flags.quick)},
       {"trials", bench::json_u64(trials)},
       {"sweeps", sweeps},
       {"total_cold_trials", bench::json_u64(cold_total)},
       {"total_warm_trials", bench::json_u64(warm_total)},
       {"total_rerun_trials", bench::json_u64(rerun_total)},
       {"single_run_reduction", bench::json_num(single)},
       {"combined_reduction", bench::json_num(combined)},
       {"reduction_gate_2x", bench::json_bool(reduction_ok)},
       {"identity_gates", bench::json_bool(all_match)},
       {"rerun_all_hits", bench::json_bool(rerun_ok)},
       {"computed_thread_invariant", bench::json_bool(computed_invariant)},
       {"point_parallel_wall_ratio", bench::json_num(point_speedup)}});
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());

  const bool ok = reduction_ok && all_match && rerun_ok && computed_invariant;
  return ok ? 0 : 1;
} catch (const duti::Error& e) {
  return duti::bench::error_exit(argc, argv, e);
}
