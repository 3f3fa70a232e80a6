// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload qsearch|sweeps|moments --seed N --seconds S
//             --trace 0|1 --refs FILE --scratch DIR [--source-digest HEX]
//   perfbench --record FILE --scratch DIR
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same passes
// untraced and then traced and reports the per-layer metrics. The last line
// of stdout is one JSON object with the keys correct, attempted, failed and
// metrics. Everything before it is a human-readable report: the environment
// stamp, every metric by name with its unit, and any failed check.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "refs.hpp"
#include "summary.hpp"
#include "testers/calibration.hpp"
#include "trace.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::PassStats;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string refs;
  std::string scratch;
  std::string source_digest = "none";
  std::string record;
};

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --name value pairs, got " + key);
    }
    kv[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&kv](const char* name, bool required) -> std::string {
    const auto it = kv.find(name);
    if (it == kv.end()) {
      if (required) throw std::invalid_argument(std::string("missing --") + name);
      return "";
    }
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  Args a;
  a.scratch = take("scratch", true);
  a.record = take("record", false);
  if (a.record.empty()) {
    a.workload = take("workload", true);
    a.seed = std::stoull(take("seed", true));
    a.seconds = std::stod(take("seconds", true));
    const std::string trace = take("trace", true);
    if (trace != "0" && trace != "1") {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    a.trace = trace == "1";
    a.refs = take("refs", true);
    const std::string digest = take("source-digest", false);
    if (!digest.empty()) a.source_digest = digest;
    if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  }
  if (!kv.empty()) {
    throw std::invalid_argument("unknown option --" + kv.begin()->first);
  }
  return a;
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num_, double den) { return den > 0.0 ? num_ / den : 0.0; }

/// Process-wide counters taken around the traced passes only.
struct TracedTotals {
  double cpu_s = 0.0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};

/// Per-layer metrics of the traced passes, each averaged per pass.
std::vector<Metric> layer_metrics(const perfbench::Tracer& tracer,
                                  const std::vector<PassStats>& traced,
                                  const std::vector<PassStats>& untraced,
                                  const TracedTotals& totals, unsigned threads,
                                  const perfbench::ReplayStats* replay) {
  const perfbench::TraceResult tr = tracer.collect();
  const std::vector<std::int64_t> self = perfbench::self_times(tr.spans);
  const std::size_t names = tracer.names().size();
  std::vector<double> dur(names, 0.0);
  std::vector<double> own(names, 0.0);
  std::vector<double> calls(names, 0.0);
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const perfbench::Span& s = tr.spans[i];
    dur[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    own[s.name] += static_cast<double>(self[i]) * 1e-9;
    calls[s.name] += 1.0;
  }
  const double passes = static_cast<double>(traced.size());
  const auto per_pass = [passes](double v) { return v / passes; };
  const auto id = [&tracer](const char* n) { return tracer.id(n); };
  const perfbench::LeafTotals& sample = tr.leaves[id("sim.sample")];

  double walls = 0.0;
  double searches = 0.0;
  double probes_computed = 0.0;
  double probes_consulted = 0.0;
  double trials_computed = 0.0;
  double trials_consulted = 0.0;
  double hint_error = 0.0;
  double hint_points = 0.0;
  double subset_checks = 0.0;
  for (const PassStats& p : traced) {
    walls += p.wall_s;
    searches += static_cast<double>(p.searches);
    probes_computed += static_cast<double>(p.probes_computed);
    probes_consulted += static_cast<double>(p.probes_consulted);
    if (p.searches > 0) {  // stats.search.* describe qsearch passes only
      trials_computed += static_cast<double>(p.trials_computed);
      trials_consulted += static_cast<double>(p.trials_consulted);
    }
    hint_error += p.hint_error_sum;
    hint_points += static_cast<double>(p.hint_points);
    subset_checks += p.subset_checks;
  }

  std::vector<Metric> m = {
      {"sim.sample.busy_s", per_pass(static_cast<double>(sample.ns) * 1e-9), "s"},
      {"sim.sample.calls", per_pass(static_cast<double>(sample.calls)), "count"},
      {"sim.sample.samples", per_pass(static_cast<double>(sample.items)), "count"},
      {"sim.sample.ns_per_sample",
       ratio(static_cast<double>(sample.ns), static_cast<double>(sample.items)),
       "ns"},
      {"sim.tally_vote.busy_s", per_pass(own[id("testers.trial")]), "s"},
      {"sim.source_make.busy_s", per_pass(dur[id("sim.source_make")]), "s"},
      {"sim.source_make.calls", per_pass(calls[id("sim.source_make")]), "count"},
      {"testers.trial.busy_s", per_pass(dur[id("testers.trial")]), "s"},
      {"testers.trial.calls", per_pass(calls[id("testers.trial")]), "count"},
      {"testers.construct.busy_s", per_pass(dur[id("testers.construct")]), "s"},
      {"testers.construct.calls", per_pass(calls[id("testers.construct")]), "count"},
      {"testers.calib_memo.hits", per_pass(static_cast<double>(totals.memo_hits)),
       "count"},
      {"testers.calib_memo.misses",
       per_pass(static_cast<double>(totals.memo_misses)), "count"},
      {"stats.search.busy_s", per_pass(dur[id("stats.search")]), "s"},
      {"stats.search.probes_computed", per_pass(probes_computed), "count"},
      {"stats.search.probes_consulted", per_pass(probes_consulted), "count"},
      {"stats.search.useful_share", ratio(trials_consulted, trials_computed),
       "share"},
      {"stats.search.samples", ratio(static_cast<double>(sample.items), searches),
       "count"},
      {"stats.probe.busy_s", per_pass(dur[id("stats.probe")]), "s"},
  };
  for (const std::string& fam : perfbench::family_names()) {
    double wall = 0.0;
    double computed = 0.0;
    double consulted = 0.0;
    for (const PassStats& p : traced) {
      const auto it = p.families.find(fam);
      if (it == p.families.end()) continue;
      wall += it->second.wall_s;
      computed += static_cast<double>(it->second.trials_computed);
      consulted += static_cast<double>(it->second.trials_consulted);
    }
    const std::string base = "stats.sweep." + fam;
    m.push_back({base + ".wall_s", per_pass(wall), "s"});
    m.push_back({base + ".trials_computed", per_pass(computed), "trials"});
    m.push_back({base + ".trials_consulted", per_pass(consulted), "trials"});
  }
  m.push_back({"stats.sweep.hint_error", ratio(hint_error, hint_points), "ln"});

  const perfbench::ReplayStats none;
  const perfbench::ReplayStats& rp = replay != nullptr ? *replay : none;
  m.push_back({"stats.cache.open_s", rp.open_s, "s"});
  m.push_back({"stats.cache.inserts", static_cast<double>(rp.inserts), "count"});
  m.push_back({"stats.cache.hits", static_cast<double>(rp.hits), "count"});
  m.push_back({"stats.cache.journal_bytes", static_cast<double>(rp.journal_bytes),
               "bytes"});
  m.push_back({"stats.cache.replay_s", rp.replay_s, "s"});
  m.push_back({"stats.cache.replay_failed", static_cast<double>(rp.failed_points),
               "count"});

  m.push_back({"util.pool.threads", static_cast<double>(threads), "count"});
  // Thread 0 created the tracer: it is the client, not a pool worker.
  m.push_back({"util.pool.busy_share",
               ratio(static_cast<double>(perfbench::thread_busy_ns(tr.spans, 0)) *
                         1e-9,
                     walls * threads),
               "share"});
  m.push_back({"util.pool.cpu_s", per_pass(totals.cpu_s), "s"});

  const double moment_s =
      dur[id("fourier.moment_exact")] + dur[id("fourier.moment_mc")];
  m.push_back({"fourier.count_x_s.busy_s", per_pass(dur[id("fourier.count_x_s")]), "s"});
  m.push_back({"fourier.moment_exact.busy_s",
               per_pass(dur[id("fourier.moment_exact")]), "s"});
  m.push_back({"fourier.moment_mc.busy_s", per_pass(dur[id("fourier.moment_mc")]), "s"});
  m.push_back({"fourier.subset_checks", per_pass(subset_checks), "count"});
  m.push_back({"fourier.checks_per_s", ratio(subset_checks, moment_s), "1/s"});

  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  for (const PassStats& p : traced) traced_walls.push_back(p.wall_s);
  for (const PassStats& p : untraced) untraced_walls.push_back(p.wall_s);
  const double base = perfbench::median(untraced_walls);
  const double overhead = perfbench::median(traced_walls) - base;
  m.push_back({"trace.overhead_s", overhead, "s"});
  m.push_back({"trace.overhead_share", ratio(overhead, base), "share"});
  return m;
}

int run(const Args& a) {
  // The benchmark owns its cache sessions; an inherited DUTI_CACHE must not
  // make the library's global cache read or write anywhere.
  unsetenv("DUTI_CACHE");
  unsetenv("DUTI_CACHE_DIR");
  const unsigned threads = online_cpus();

  if (!a.record.empty()) {
    duti::ThreadPool pool(threads);
    const perfbench::References refs =
        perfbench::record_references(pool, a.scratch);
    perfbench::save_references(
        refs, a.record,
        "# perfbench references: expected output of every benchmark "
        "operation.\n# Regenerate with: perfbench --record <file> --scratch "
        "<dir>\n");
    std::printf("recorded %zu searches, %zu sweep points, %zu E7 rows\n",
                refs.searches.size(), refs.points.size(), refs.rows.size());
    return 0;
  }

  std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(a.workload, a.seed, a.seconds);
  if (!workload) throw std::invalid_argument("unknown workload " + a.workload);
  std::vector<std::string> problems;

  // Set-up: pool start, reference load and one untimed warm-up operation,
  // repeated from a cleared calibration memo; setup_s is the median. The
  // first repetitions still pay process warm-up (allocator, page faults),
  // so five keep the median on the settled ones.
  const int setup_reps = a.trace ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<duti::ThreadPool> pool;
  perfbench::References refs;
  bool warm_ok = true;
  for (int rep = 0; rep < setup_reps; ++rep) {
    pool.reset();
    duti::CalibMemo::global().clear();
    const std::int64_t t0 = perfbench::now_ns();
    pool = std::make_unique<duti::ThreadPool>(threads);
    refs = perfbench::load_references(a.refs);
    warm_ok = workload->warmup(*pool, refs, problems) && warm_ok;
    setup_s.push_back(static_cast<double>(perfbench::now_ns() - t0) * 1e-9);
  }

  // With --trace 1 every untraced pass is followed by the same pass traced,
  // so slow drift of the host's speed does not bias the overhead.
  const std::size_t passes = workload->passes(a.seconds);
  std::vector<PassStats> untraced;
  std::vector<PassStats> traced;
  std::optional<perfbench::Tracer> tracer;
  TracedTotals totals;
  if (a.trace) tracer.emplace(perfbench::span_names());
  for (std::size_t p = 0; p < passes; ++p) {
    untraced.push_back(workload->run_pass(*pool, refs, nullptr));
    if (!tracer) continue;
    const duti::CalibMemo::Stats memo0 = duti::CalibMemo::global().stats();
    const double cpu0 = cpu_seconds();
    traced.push_back(workload->run_pass(*pool, refs, &*tracer));
    totals.cpu_s += cpu_seconds() - cpu0;
    const duti::CalibMemo::Stats memo1 = duti::CalibMemo::global().stats();
    totals.memo_hits += memo1.hits - memo0.hits;
    totals.memo_misses += memo1.misses - memo0.misses;
  }

  // The untimed rw-cache replay, once per sweeps invocation.
  std::optional<perfbench::ReplayStats> replay;
  if (a.workload == "sweeps") {
    replay = perfbench::run_replay(
        *pool, refs, a.scratch + "/replay-" + std::to_string(getpid()));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> walls;
  std::vector<double> latencies;
  for (const PassStats& p : untraced) {
    attempted += p.ops;
    failed += p.failed;
    walls.push_back(p.wall_s);
    latencies.insert(latencies.end(), p.latencies_s.begin(), p.latencies_s.end());
    problems.insert(problems.end(), p.problems.begin(), p.problems.end());
  }
  bool consistent = true;
  for (const PassStats& p : untraced) {
    if (p.trials_computed != untraced[0].trials_computed ||
        p.digest != untraced[0].digest) {
      consistent = false;
      problems.push_back("passes differ in trials_computed or outputs");
      break;
    }
  }
  bool traced_identical = true;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    problems.insert(problems.end(), traced[p].problems.begin(),
                    traced[p].problems.end());
    if (traced[p].digest != untraced[p].digest ||
        traced[p].trials_computed != untraced[p].trials_computed ||
        traced[p].failed != 0) {
      traced_identical = false;
      problems.push_back("traced pass " + std::to_string(p) +
                         " differs from the untraced pass");
    }
  }
  if (replay) {
    problems.insert(problems.end(), replay->problems.begin(),
                    replay->problems.end());
  }
  const bool correct = warm_ok && failed == 0 && consistent &&
                       traced_identical && (!replay || replay->ok);

  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"seconds\": %s, "
      "\"trace\": %d, \"threads\": %u, \"simd\": \"%s\", \"nproc\": %u, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"git_rev\": \"%s\", \"source_digest\": \"%s\"}\n",
      a.workload.c_str(), a.seed, num(a.seconds).c_str(), a.trace ? 1 : 0,
      pool->size(), duti::simd_level_name(duti::simd_active_level()),
      online_cpus(), std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_REV, a.source_digest.c_str());

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"wall_s", perfbench::median(walls), "s"},
        {"search_p50_s", perfbench::median(latencies), "s"},
        {"trials_computed", static_cast<double>(untraced[0].trials_computed),
         "trials"},
        {"setup_s", perfbench::median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mib(), "MiB"},
    };
    const perfbench::TailPercentile tail = perfbench::tail_percentile(latencies);
    std::printf("setup_s samples:");
    for (const double v : setup_s) std::printf(" %s", num(v).c_str());
    std::printf("\npass wall_s samples:");
    for (const double v : walls) std::printf(" %s", num(v).c_str());
    std::printf("\nlatency: n=%zu median=%s s", latencies.size(),
                num(perfbench::median(latencies)).c_str());
    if (tail.percentile > 0.0) {
      std::printf(", p%g=%s s (highest percentile with >= 10 beyond: %zu)\n",
                  tail.percentile, num(tail.value).c_str(), tail.beyond);
    } else {
      std::printf(" (fewer than 20 samples: no percentile has 10 beyond)\n");
    }
  } else {
    metrics = layer_metrics(*tracer, traced, untraced, totals,
                            pool->size(), replay ? &*replay : nullptr);
  }
  std::printf("ops: attempted=%" PRIu64 " failed=%" PRIu64 " passes=%zu\n",
              attempted, failed, passes);
  if (replay) {
    std::printf("replay: failed_points=%" PRIu64 " hits=%" PRIu64
                " inserts=%" PRIu64 " replay_s=%s ok=%d\n",
                replay->failed_points, replay->hits, replay->inserts,
                num(replay->replay_s).c_str(), replay->ok ? 1 : 0);
    for (const std::string& fam : replay->failed_families) {
      std::printf("replay: family %s threw (known failure: %s)\n", fam.c_str(),
                  refs.replay_known_failures.count(fam) ? "yes" : "no");
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %s = %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& p : problems) std::printf("FAILED CHECK: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
