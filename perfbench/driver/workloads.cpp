#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "fourier/evenly_covered.hpp"
#include "stats/harness.hpp"
#include "stats/probe_cache.hpp"
#include "stats/sweep.hpp"
#include "stats/workloads.hpp"
#include "sweep_specs.hpp"
#include "testers/calibration.hpp"
#include "testers/centralized.hpp"
#include "testers/distributed.hpp"
#include "traced.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using duti::Rng;

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> shuffled(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(duti::derive_seed(seed, 0x0DE5));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

LayerNames layer_names(const Tracer& t) {
  return {t.id("sim.sample"), t.id("sim.source_make"), t.id("testers.trial"),
          t.id("testers.construct")};
}

std::uint32_t name_or_zero(const Tracer* t, const char* name) {
  return t != nullptr ? t->id(name) : 0;
}

void hash_audit(duti::Fnv64& h,
                const std::vector<std::pair<std::uint64_t, duti::ProbeResult>>&
                    audit) {
  h.u64(audit.size());
  for (const auto& [value, r] : audit) {
    h.u64(value);
    h.u64(r.trials);
    h.u64(r.uniform_successes);
    h.u64(r.far_successes);
    h.u64(r.budget);
    h.u64(static_cast<std::uint64_t>(r.stop));
  }
}

// --- qsearch -----------------------------------------------------------------
// Cold reference q* searches: DistributedThresholdTester at n=4096, k=64,
// eps=0.25, 150 trials per probe, q in [2, 2^12]. The searches of a run are
// drawn (seeded by the workload seed) from a fixed pool of search seeds
// whose minima are recorded in the references.

constexpr std::uint64_t kQsN = 4096;
constexpr unsigned kQsK = 64;
constexpr double kQsEps = 0.25;
constexpr std::size_t kQsTrials = 150;
constexpr std::uint64_t kQsHi = 1ULL << 12;
constexpr std::size_t kSearchPool = 64;
constexpr std::uint64_t kSearchPoolRoot = 0x5EA4C4;
constexpr std::uint64_t kWarmupSearchSeed = 1;
// Nominal cost of one search on the reference host; it only converts
// --seconds into a fixed search count, never a measured one. At least 20
// searches, so the median has ten searches beyond it.
constexpr double kNominalSearchS = 0.9;
constexpr long kMinSearches = 20;

std::uint64_t pool_search_seed(std::size_t j) {
  return duti::derive_seed(kSearchPoolRoot, j);
}

struct SearchOutcome {
  duti::MinSearchResult result;
  std::uint64_t probes_computed = 0;
  std::uint64_t trials_computed = 0;
};

SearchOutcome run_search(std::uint64_t seed, duti::ThreadPool& pool,
                         Tracer* tracer) {
  std::optional<LayerNames> names;
  if (tracer != nullptr) names = layer_names(*tracer);
  const std::uint32_t probe_name = name_or_zero(tracer, "stats.probe");
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> trials{0};

  const Tracer::Scope search_span(tracer,
                                  name_or_zero(tracer, "stats.search"));
  const std::uint64_t search_id = search_span.id();
  const duti::ProbeFn probe = [&](std::uint64_t q) {
    const Tracer::Scope probe_span(tracer, probe_name, search_id);
    duti::DistributedTesterConfig cfg;
    cfg.n = kQsN;
    cfg.k = kQsK;
    cfg.q = static_cast<unsigned>(q);
    cfg.eps = kQsEps;
    Rng calib_rng = duti::make_rng(seed, q, 0xCA11B);
    std::shared_ptr<duti::DistributedThresholdTester> tester;
    {
      const Tracer::Scope construct(tracer, names ? names->construct : 0);
      tester = std::make_shared<duti::DistributedThresholdTester>(cfg, calib_rng);
    }
    duti::TesterRun run = [tester](const duti::SampleSource& s, Rng& r) {
      return tester->run(s, r);
    };
    duti::SourceSpec uniform = duti::workloads::uniform_factory(kQsN);
    duti::SourceSpec far = duti::workloads::paninski_far_factory(kQsN, kQsEps);
    if (tracer != nullptr) {
      run = traced_run(std::move(run), *tracer, *names, probe_span.id());
      uniform = traced_spec(uniform, *tracer, *names, probe_span.id());
      far = traced_spec(far, *tracer, *names, probe_span.id());
    }
    const duti::ProbeResult r = duti::probe_success(
        run, uniform, far, kQsTrials, duti::derive_seed(seed, q), pool);
    probes.fetch_add(1, std::memory_order_relaxed);
    trials.fetch_add(r.trials, std::memory_order_relaxed);
    return r;
  };
  duti::MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = kQsHi;
  cfg.trials = kQsTrials;
  cfg.seed = seed;
  SearchOutcome out;
  out.result = duti::find_min_param(probe, cfg, pool);
  out.probes_computed = probes.load();
  out.trials_computed = trials.load();
  return out;
}

bool check_search(std::uint64_t seed, const duti::MinSearchResult& r,
                  const References& refs, std::vector<std::string>& problems) {
  const auto it = refs.searches.find(seed);
  if (it == refs.searches.end()) {
    problems.push_back("qsearch seed " + std::to_string(seed) +
                       ": no reference");
    return false;
  }
  if (!r.found || !it->second.found || r.minimum != it->second.minimum) {
    problems.push_back("qsearch seed " + std::to_string(seed) + ": minimum " +
                       (r.found ? std::to_string(r.minimum) : "not found") +
                       ", reference " + std::to_string(it->second.minimum));
    return false;
  }
  return true;
}

class QsearchWorkload final : public Workload {
 public:
  QsearchWorkload(std::uint64_t seed, double seconds) {
    const auto count = static_cast<std::size_t>(std::clamp<long>(
        std::lround(seconds / kNominalSearchS), kMinSearches,
        static_cast<long>(kSearchPool)));
    const std::vector<std::size_t> order = shuffled(kSearchPool, seed);
    for (std::size_t i = 0; i < count; ++i) {
      seeds_.push_back(pool_search_seed(order[i]));
    }
  }

  std::size_t passes(double /*seconds*/) const override { return 1; }

  bool warmup(duti::ThreadPool& pool, const References& refs,
              std::vector<std::string>& problems) override {
    const SearchOutcome s = run_search(kWarmupSearchSeed, pool, nullptr);
    return check_search(kWarmupSearchSeed, s.result, refs, problems);
  }

  PassStats run_pass(duti::ThreadPool& pool, const References& refs,
                     Tracer* tracer) override {
    PassStats out;
    duti::Fnv64 h;
    const std::int64_t pass_t0 = now_ns();
    for (const std::uint64_t seed : seeds_) {
      duti::CalibMemo::global().clear();  // every search starts cold
      ++out.ops;
      const std::int64_t t0 = now_ns();
      try {
        const SearchOutcome s = run_search(seed, pool, tracer);
        out.latencies_s.push_back(seconds_between(t0, now_ns()));
        out.probes_computed += s.probes_computed;
        out.trials_computed += s.trials_computed;
        out.probes_consulted += s.result.probes.size();
        for (const auto& [value, r] : s.result.probes) {
          (void)value;
          out.trials_consulted += r.trials;
        }
        h.u64(seed).u64(s.result.found ? 1 : 0).u64(s.result.minimum);
        hash_audit(h, s.result.probes);
        if (!check_search(seed, s.result, refs, out.problems)) ++out.failed;
      } catch (const std::exception& e) {
        ++out.failed;
        out.problems.push_back("qsearch seed " + std::to_string(seed) +
                               ": threw " + e.what());
      }
      ++out.searches;
    }
    out.wall_s = seconds_between(pass_t0, now_ns());
    out.digest = h.value();
    return out;
  }

 private:
  std::vector<std::uint64_t> seeds_;
};

// --- sweeps ------------------------------------------------------------------
// The quick-mode sweep tables exactly as the e-benches build them (150
// trials, seed 1): 23 points in 9 families, run through run_sweep with the
// default warm engine and the cache off. The workload seed orders the
// families.

constexpr std::size_t kSweepTrials = 150;
constexpr std::uint64_t kSweepSeed = 1;
constexpr double kNominalSweepPassS = 3.5;

struct Family {
  const char* name;
  std::function<std::vector<duti::SweepPoint>()> build;
};

const std::vector<Family>& families() {
  using duti::SamplingKernel;
  static const std::vector<Family> all = {
      {"e1",
       [] {
         return duti::bench::e1_points(4096, 0.5, {2, 16, 128}, kSweepTrials,
                                       kSweepSeed);
       }},
      {"e2_and",
       [] {
         return duti::bench::e2_and_points(1024, 0.5, {2, 32, 512},
                                           kSweepTrials, kSweepSeed);
       }},
      {"e2_thr",
       [] {
         return duti::bench::e2_threshold_points(1024, 0.5, {2, 32, 512},
                                                 kSweepTrials, kSweepSeed);
       }},
      {"e3",
       [] {
         return duti::bench::e3_points(4096, 64, 0.5, {1, 4, 16}, kSweepTrials,
                                       kSweepSeed);
       }},
      {"e8_collision",
       [] {
         return duti::bench::e8_n_points<duti::CentralizedCollisionTester>(
             "collision", {256, 4096}, 0.5, kSweepTrials, kSweepSeed,
             SamplingKernel::kPerSample);
       }},
      {"e8_chi",
       [] {
         return duti::bench::e8_n_points<duti::ChiSquaredTester>(
             "chi-squared", {256, 4096}, 0.5, kSweepTrials, kSweepSeed,
             SamplingKernel::kPerSample, 1);
       }},
      {"e8_coincidence",
       [] {
         return duti::bench::e8_n_points<duti::PaninskiCoincidenceTester>(
             "coincidence", {256, 4096}, 0.5, kSweepTrials, kSweepSeed,
             SamplingKernel::kPerSample, 2);
       }},
      {"e8_eps",
       [] {
         return duti::bench::e8_eps_points(4096, {0.25, 0.5, 1.0},
                                           kSweepTrials, kSweepSeed,
                                           SamplingKernel::kPerSample);
       }},
      {"e9",
       [] {
         return duti::bench::e9_points(4096, 32, 0.5, {1, 8}, kSweepTrials,
                                       kSweepSeed);
       }},
  };
  return all;
}

void trace_points(std::vector<duti::SweepPoint>& points, Tracer& tracer,
                  std::uint64_t parent) {
  const LayerNames names = layer_names(tracer);
  for (duti::SweepPoint& p : points) {
    p.make_tester = traced_maker(std::move(p.make_tester), tracer, names, parent);
    p.uniform = traced_spec(p.uniform, tracer, names, parent);
    p.far = traced_spec(p.far, tracer, names, parent);
  }
}

/// Check a finished family against the references. Returns the number of
/// failed points: a point fails on its own minimum or verdict, and every
/// point fails when the family's fingerprint or consulted trials differ.
std::uint64_t check_family(const std::string& family,
                           const duti::SweepResult& r, const References& refs,
                           std::vector<std::string>& problems) {
  std::uint64_t failed = 0;
  for (const duti::SweepPointResult& p : r.points) {
    const auto it = refs.points.find(family + "/" + p.label);
    if (it == refs.points.end() || it->second.found != p.found ||
        it->second.minimum != p.minimum || it->second.verdict != p.verdict) {
      ++failed;
      problems.push_back("sweeps " + family + " " + p.label + ": minimum " +
                         std::to_string(p.minimum) + " differs from reference");
    }
  }
  const auto fam = refs.families.find(family);
  if (fam == refs.families.end() || fam->second.fingerprint != r.fingerprint ||
      fam->second.trials_consulted != r.trials_consulted) {
    failed = r.points.size();
    problems.push_back("sweeps " + family +
                       ": fingerprint or consulted trials differ from reference");
  }
  return failed;
}

class SweepsWorkload final : public Workload {
 public:
  explicit SweepsWorkload(std::uint64_t seed)
      : order_(shuffled(families().size(), seed)),
        off_("", duti::CacheMode::kOff) {}

  std::size_t passes(double seconds) const override {
    return static_cast<std::size_t>(
        std::max(1L, std::lround(seconds / kNominalSweepPassS)));
  }

  // One point of e1 (k=16) as a single-point sweep: cold, so its audit
  // differs from the family's, but the minimum is the same.
  bool warmup(duti::ThreadPool& pool, const References& refs,
              std::vector<std::string>& problems) override {
    duti::SweepEngineConfig cfg;
    cfg.cache = &off_;
    auto points = duti::bench::e1_points(4096, 0.5, {16}, kSweepTrials,
                                         kSweepSeed);
    const duti::SweepResult r = duti::run_sweep(points, cfg, pool);
    const auto it = refs.points.find("e1/" + r.points[0].label);
    if (it == refs.points.end() || it->second.minimum != r.points[0].minimum) {
      problems.push_back("sweeps warm-up e1 k=16: minimum differs");
      return false;
    }
    return true;
  }

  PassStats run_pass(duti::ThreadPool& pool, const References& refs,
                     Tracer* tracer) override {
    PassStats out;
    duti::Fnv64 h;
    duti::SweepEngineConfig cfg;
    cfg.cache = &off_;
    duti::CalibMemo::global().clear();
    const std::int64_t pass_t0 = now_ns();
    for (const std::size_t f : order_) {
      const Family& fam = families()[f];
      std::vector<duti::SweepPoint> points = fam.build();
      out.ops += points.size();
      const Tracer::Scope span(
          tracer, name_or_zero(tracer, ("stats.sweep." + std::string(fam.name)).c_str()));
      if (tracer != nullptr) trace_points(points, *tracer, span.id());
      const std::int64_t t0 = now_ns();
      try {
        const duti::SweepResult r = duti::run_sweep(points, cfg, pool);
        const double wall = seconds_between(t0, now_ns());
        FamilyPass& fp = out.families[fam.name];
        fp.wall_s = wall;
        fp.trials_computed = r.trials_computed;
        fp.trials_consulted = r.trials_consulted;
        out.trials_computed += r.trials_computed;
        for (const duti::SweepPointResult& p : r.points) {
          if (p.hint != 0 && p.found && p.minimum > 0) {
            out.hint_error_sum += std::fabs(std::log(
                static_cast<double>(p.hint) / static_cast<double>(p.minimum)));
            ++out.hint_points;
          }
        }
        h.str(fam.name).u64(r.fingerprint);
        out.failed += check_family(fam.name, r, refs, out.problems);
      } catch (const std::exception& e) {
        out.failed += points.size();
        out.problems.push_back("sweeps " + std::string(fam.name) + ": threw " +
                               e.what());
      }
    }
    out.wall_s = seconds_between(pass_t0, now_ns());
    out.latencies_s.push_back(out.wall_s / static_cast<double>(out.ops));
    out.digest = h.value();
    return out;
  }

 private:
  std::vector<std::size_t> order_;
  duti::ProbeCache off_;
};

// --- moments -----------------------------------------------------------------
// The E7 tables exactly as e7_moments computes them, serially: E7a is the
// count_x_s / prop52_bound grid, E7b the a_r moment grid (exact enumeration
// up to 2^22 tuples, Monte-Carlo with 100 000 trials beyond, one Rng(1)
// threaded through the Monte-Carlo rows in table order). The workload seed
// shuffles the row order; Monte-Carlo rows keep their relative order so
// their shared stream, and hence their values, never change.

constexpr std::size_t kMcTrials = 100000;
constexpr std::uint64_t kE7Seed = 1;
constexpr double kNominalMomentsPassS = 57.0;

struct Row {
  bool e7a = false;
  unsigned ell = 0;
  unsigned q = 0;
  unsigned s_or_r = 0;  // |S| for E7a, r for E7b
  unsigned m = 0;
  bool mc = false;

  [[nodiscard]] std::string key() const {
    std::string k = e7a ? "e7a:" : "e7b:";
    k += std::to_string(ell) + ":" + std::to_string(q) + ":" +
         std::to_string(s_or_r);
    if (!e7a) k += ":" + std::to_string(m);
    return k;
  }
  /// Sample tuples evaluated: the full (2^ell)^q enumeration or the
  /// Monte-Carlo draws (0 for the E7a dynamic program).
  [[nodiscard]] double tuples() const {
    if (e7a) return 0.0;
    return mc ? static_cast<double>(kMcTrials)
              : std::pow(std::ldexp(1.0, static_cast<int>(ell)),
                         static_cast<double>(q));
  }
  /// Tuples times C(q, 2r): the subsets a_r tests per tuple.
  [[nodiscard]] double subset_checks() const {
    if (e7a) return 0.0;
    std::uint64_t subsets = 1;  // C(q, 2r), exact: each prefix is C(q, i)
    for (unsigned i = 1; i <= 2 * s_or_r; ++i) subsets = subsets * (q - 2 * s_or_r + i) / i;
    return tuples() * static_cast<double>(subsets);
  }
};

std::vector<Row> e7_rows() {
  std::vector<Row> rows;
  for (unsigned ell : {2U, 3U, 4U}) {
    for (unsigned q : {4U, 6U}) {
      for (unsigned s = 2; s <= q; s += 2) rows.push_back({true, ell, q, s, 0, false});
    }
  }
  for (unsigned ell : {2U, 3U, 5U}) {
    for (unsigned q : {4U, 6U, 10U}) {
      for (unsigned r : {1U, 2U}) {
        if (2 * r > q) continue;
        const double tuples = std::pow(std::ldexp(1.0, static_cast<int>(ell)),
                                       static_cast<double>(q));
        const bool mc = tuples > static_cast<double>(1ULL << 22);
        for (unsigned m : {1U, 2U, 3U}) rows.push_back({false, ell, q, r, m, mc});
      }
    }
  }
  return rows;
}

struct RowValue {
  double value = 0.0;
  double bound = 0.0;
  bool holds = false;
};

RowValue compute_row(const Row& row, Rng& mc_rng, Tracer* tracer) {
  RowValue v;
  if (row.e7a) {
    {
      const Tracer::Scope span(tracer, name_or_zero(tracer, "fourier.count_x_s"));
      v.value = duti::count_x_s(row.ell, row.q, row.s_or_r);
    }
    v.bound = duti::prop52_bound(row.ell, row.q, row.s_or_r);
    v.holds = !(v.value > v.bound * (1.0 + 1e-12));
    return v;
  }
  if (row.mc) {
    const Tracer::Scope span(tracer, name_or_zero(tracer, "fourier.moment_mc"));
    v.value = duti::a_r_moment_mc(row.ell, row.q, row.s_or_r, row.m, kMcTrials,
                                  mc_rng);
  } else {
    const Tracer::Scope span(tracer,
                             name_or_zero(tracer, "fourier.moment_exact"));
    v.value = duti::a_r_moment_exact(row.ell, row.q, row.s_or_r, row.m);
  }
  const double log_bound =
      duti::lemma55_log_bound(row.ell, row.q, row.s_or_r, row.m);
  const double log_value = v.value > 0.0
                               ? std::log(v.value)
                               : -std::numeric_limits<double>::infinity();
  v.holds = !(log_value > log_bound + 1e-9);
  return v;
}

bool check_row(const Row& row, const RowValue& v, const References& refs,
               std::vector<std::string>& problems) {
  const auto it = refs.rows.find(row.key());
  if (it == refs.rows.end() || it->second.value != v.value ||
      it->second.bound != v.bound || it->second.holds != v.holds ||
      !v.holds) {
    problems.push_back("moments " + row.key() +
                       ": value or bound verdict differs from reference");
    return false;
  }
  return true;
}

class MomentsWorkload final : public Workload {
 public:
  explicit MomentsWorkload(std::uint64_t seed) : rows_(e7_rows()) {
    std::vector<std::size_t> order = shuffled(rows_.size(), seed);
    // Put the Monte-Carlo rows back in table order within the slots the
    // shuffle gave them.
    std::vector<std::size_t> mc_rows;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].mc) mc_rows.push_back(i);
    }
    std::size_t next_mc = 0;
    for (std::size_t& slot : order) {
      if (rows_[slot].mc) slot = mc_rows[next_mc++];
    }
    order_ = std::move(order);
  }

  std::size_t passes(double seconds) const override {
    return static_cast<std::size_t>(
        std::max(1L, std::lround(seconds / kNominalMomentsPassS)));
  }

  // An exact row of 2^20 tuples x 45 subsets (~0.8 s): rows under 0.1 s
  // time host hiccups more than set-up work, so their median is unsteady.
  bool warmup(duti::ThreadPool& /*pool*/, const References& refs,
              std::vector<std::string>& problems) override {
    const Row row{false, 2, 10, 1, 1, false};
    Rng unused(kE7Seed);
    return check_row(row, compute_row(row, unused, nullptr), refs, problems);
  }

  PassStats run_pass(duti::ThreadPool& /*pool*/, const References& refs,
                     Tracer* tracer) override {
    PassStats out;
    duti::Fnv64 h;
    Rng mc_rng(kE7Seed);
    const std::int64_t pass_t0 = now_ns();
    for (const std::size_t i : order_) {
      const Row& row = rows_[i];
      ++out.ops;
      try {
        const RowValue v = compute_row(row, mc_rng, tracer);
        out.trials_computed += static_cast<std::uint64_t>(row.tuples());
        out.subset_checks += row.subset_checks();
        h.str(row.key()).u64(std::bit_cast<std::uint64_t>(v.value));
        if (!check_row(row, v, refs, out.problems)) ++out.failed;
      } catch (const std::exception& e) {
        ++out.failed;
        out.problems.push_back("moments " + row.key() + ": threw " + e.what());
      }
    }
    out.wall_s = seconds_between(pass_t0, now_ns());
    out.latencies_s.push_back(out.wall_s / static_cast<double>(out.ops));
    out.digest = h.value();
    return out;
  }

 private:
  std::vector<Row> rows_;
  std::vector<std::size_t> order_;
};

/// Run every family through `cache` in canonical order; per family the
/// result or the exception message.
struct FamilyRun {
  std::optional<duti::SweepResult> result;
  std::string error;
  std::size_t points = 0;
};

std::vector<FamilyRun> run_all_families(duti::ThreadPool& pool,
                                        duti::ProbeCache& cache) {
  duti::SweepEngineConfig cfg;
  cfg.cache = &cache;
  std::vector<FamilyRun> runs;
  for (const Family& fam : families()) {
    FamilyRun fr;
    const std::vector<duti::SweepPoint> points = fam.build();
    fr.points = points.size();
    try {
      fr.result = duti::run_sweep(points, cfg, pool);
    } catch (const std::exception& e) {
      fr.error = e.what();
    }
    runs.push_back(std::move(fr));
  }
  return runs;
}

}  // namespace

std::vector<std::string> span_names() {
  std::vector<std::string> names = {
      "sim.sample",         "sim.source_make",      "testers.trial",
      "testers.construct",  "stats.search",         "stats.probe",
      "fourier.count_x_s",  "fourier.moment_exact", "fourier.moment_mc"};
  for (const Family& fam : families()) {
    names.push_back("stats.sweep." + std::string(fam.name));
  }
  return names;
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const Family& fam : families()) names.emplace_back(fam.name);
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double seconds) {
  if (name == "qsearch") return std::make_unique<QsearchWorkload>(seed, seconds);
  if (name == "sweeps") return std::make_unique<SweepsWorkload>(seed);
  if (name == "moments") return std::make_unique<MomentsWorkload>(seed);
  return nullptr;
}

ReplayStats run_replay(duti::ThreadPool& pool, const References& refs,
                       const std::string& dir) {
  ReplayStats out;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const auto fail = [&out](const std::string& why) {
    out.ok = false;
    out.problems.push_back("replay: " + why);
  };

  duti::CalibMemo::global().clear();
  std::vector<FamilyRun> first;
  {
    duti::ProbeCache session(dir, duti::CacheMode::kReadWrite);
    first = run_all_families(pool, session);
    out.inserts = session.stats().inserts;
    if (!session.path().empty() && std::filesystem::exists(session.path())) {
      out.journal_bytes = std::filesystem::file_size(session.path());
    }
  }

  duti::CalibMemo::global().clear();
  const std::int64_t t0 = now_ns();
  duti::ProbeCache session(dir, duti::CacheMode::kReadWrite);
  out.open_s = seconds_between(t0, now_ns());
  const std::int64_t t1 = now_ns();
  const std::vector<FamilyRun> second = run_all_families(pool, session);
  out.replay_s = seconds_between(t1, now_ns());
  out.hits = session.stats().hits;

  const std::vector<std::string> names = family_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& fam = names[i];
    if (!first[i].result || !second[i].result) {
      out.failed_points += first[i].points;
      out.failed_families.push_back(fam);
      const std::string& err =
          !first[i].result ? first[i].error : second[i].error;
      if (refs.replay_known_failures.count(fam) == 0) {
        fail(fam + " threw: " + err);
      }
      continue;
    }
    const auto ref = refs.families.find(fam);
    const std::uint64_t want =
        ref != refs.families.end() ? ref->second.fingerprint : 0;
    if (first[i].result->fingerprint != want ||
        second[i].result->fingerprint != want) {
      fail(fam + " fingerprint differs from the cache-off reference");
    }
    if (second[i].result->trials_computed != 0) {
      fail(fam + " replay computed " +
           std::to_string(second[i].result->trials_computed) + " trials");
    }
  }
  std::filesystem::remove_all(dir, ec);
  return out;
}

References record_references(duti::ThreadPool& pool,
                             const std::string& scratch_dir) {
  References refs;
  std::vector<std::uint64_t> seeds = {kWarmupSearchSeed};
  for (std::size_t j = 0; j < kSearchPool; ++j) seeds.push_back(pool_search_seed(j));
  for (const std::uint64_t seed : seeds) {
    duti::CalibMemo::global().clear();
    const SearchOutcome s = run_search(seed, pool, nullptr);
    refs.searches[seed] = {s.result.found, s.result.minimum};
  }

  duti::ProbeCache off("", duti::CacheMode::kOff);
  duti::CalibMemo::global().clear();
  const std::vector<FamilyRun> runs = run_all_families(pool, off);
  const std::vector<std::string> names = family_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!runs[i].result) {
      throw std::runtime_error("record: sweep family " + names[i] +
                               " threw: " + runs[i].error);
    }
    const duti::SweepResult& r = *runs[i].result;
    refs.families[names[i]] = {r.fingerprint, r.trials_consulted};
    for (const duti::SweepPointResult& p : r.points) {
      refs.points[names[i] + "/" + p.label] = {p.found, p.minimum, p.verdict};
    }
  }

  Rng mc_rng(kE7Seed);
  for (const Row& row : e7_rows()) {
    const RowValue v = compute_row(row, mc_rng, nullptr);
    refs.rows[row.key()] = {row.e7a ? "dp" : (row.mc ? "monte-carlo" : "exact"),
                            v.value, v.bound, v.holds};
  }

  const ReplayStats replay =
      run_replay(pool, refs, scratch_dir + "/record-replay");
  for (const std::string& fam : replay.failed_families) {
    refs.replay_known_failures.insert(fam);
  }
  return refs;
}

}  // namespace perfbench
