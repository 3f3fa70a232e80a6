// Perf baseline for the vectorized compute-kernel layer (ISSUE 7): times
// every dispatched kernel against its scalar twin on representative sizes,
// asserts bit-identity of the timed outputs, measures the insertion-sort
// cutoff inside is_evenly_covered, and emits BENCH_kernels.json (per-kernel
// ns/op and speedup, plus the cpu feature levels) so later PRs can track
// the kernel-perf trajectory. Exits nonzero if any SIMD output diverges
// from its scalar twin.
//
// duti-lint: allow-file(no-wall-clock) -- this bench exists to measure
// wall-clock kernel throughput; the timed quantities never feed a
// ProbeResult, and bit-identity is asserted separately on the results.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/cube_domain.hpp"
#include "dist/nu_z.hpp"
#include "fourier/evenly_covered.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace duti;

/// Best-of-`reps` wall time of fn(), in nanoseconds.
template <typename Fn>
double best_ns(std::size_t reps, Fn&& fn) {
  double best = 1e30;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, bench::seconds_since(start) * 1e9);
  }
  return best;
}

struct KernelPoint {
  std::string name;
  std::size_t size;
  double scalar_ns;
  double dispatched_ns;
  bool bit_identical;
  [[nodiscard]] double speedup() const { return scalar_ns / dispatched_ns; }
};

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "micro_kernels --seed=1 --quick\n";
    return 0;
  }
  const bench::CommonFlags flags(cli);
  const auto seed = static_cast<std::uint64_t>(flags.seed);
  const std::size_t reps = flags.quick ? 3 : 7;

  const SimdLevel supported = simd_supported_level();
  bench::banner(
      "micro_kernels  scalar vs runtime-dispatched SIMD kernels",
      std::string("expected: >= 2x on at least one kernel at level '") +
          simd_level_name(supported) + "', all outputs bit-identical");
  std::cout << "cpu supported level: " << simd_level_name(supported)
            << ", active level: " << simd_level_name(simd_active_level())
            << "\n";

  std::vector<KernelPoint> points;
  Rng rng(seed);

  // --- WHT: scalar butterfly vs blocked radix-4 vector path. ---------------
  for (const unsigned logn : {12u, 16u, 20u}) {
    const std::size_t n = std::size_t{1} << logn;
    std::vector<double> input(n);
    for (auto& v : input) v = rng.next_double() * 2.0 - 1.0;
    std::vector<double> scalar_out;
    std::vector<double> simd_out;
    const double s_ns = best_ns(reps, [&] {
      scalar_out = input;
      kernels::wht_scalar(scalar_out);
    });
    simd_set_level(supported);
    const double v_ns = best_ns(reps, [&] {
      simd_out = input;
      kernels::wht(simd_out);
    });
    points.push_back({"wht", n, s_ns, v_ns, bits_equal(scalar_out, simd_out)});
  }

  // --- Integer reductions over counts. -------------------------------------
  {
    const std::size_t len = std::size_t{1} << 16;
    std::vector<std::uint64_t> counts(len);
    for (auto& c : counts) c = rng() % 7;
    std::uint64_t scalar_pairs = 0;
    std::uint64_t simd_pairs = 0;
    const double s_ns = best_ns(reps, [&] {
      scalar_pairs = kernels::collision_pairs_from_counts_scalar(counts);
    });
    simd_set_level(supported);
    const double v_ns = best_ns(
        reps, [&] { simd_pairs = kernels::collision_pairs_from_counts(counts); });
    points.push_back(
        {"collision_pairs", len, s_ns, v_ns, scalar_pairs == simd_pairs});

    std::vector<std::uint64_t> acc_scalar(len, 0);
    std::vector<std::uint64_t> acc_simd(len, 0);
    const double as_ns =
        best_ns(reps, [&] { kernels::add_u64_scalar(acc_scalar, counts); });
    simd_set_level(supported);
    const double av_ns =
        best_ns(reps, [&] { kernels::add_u64(acc_simd, counts); });
    points.push_back(
        {"add_u64", len, as_ns, av_ns, acc_scalar == acc_simd});
  }

  // --- Batched nu_z sampler (outputs AND final rng state must agree). ------
  {
    const std::size_t len = std::size_t{1} << 14;
    const unsigned ell = 12;
    Rng zrng(derive_seed(seed, 0x2));
    const PerturbationVector z = PerturbationVector::random(ell, zrng);
    std::vector<std::uint64_t> out_scalar(len);
    std::vector<std::uint64_t> out_simd(len);
    Rng rng_scalar(seed);
    Rng rng_simd(seed);
    const double s_ns = best_ns(reps, [&] {
      rng_scalar = Rng(seed);
      kernels::nuz_sample_many_scalar(rng_scalar, z.words(), ell, 0.5,
                                      out_scalar);
    });
    simd_set_level(supported);
    const double v_ns = best_ns(reps, [&] {
      rng_simd = Rng(seed);
      kernels::nuz_sample_many(rng_simd, z.words(), ell, 0.5, out_simd);
    });
    const bool same =
        out_scalar == out_simd && rng_scalar() == rng_simd();
    points.push_back({"nuz_sample_many", len, s_ns, v_ns, same});
  }

  Table table({"kernel", "size", "scalar ns", "dispatched ns", "speedup"});
  bool all_identical = true;
  double max_speedup = 0.0;
  for (const auto& p : points) {
    table.add_row({p.name, static_cast<std::int64_t>(p.size), p.scalar_ns,
                   p.dispatched_ns, p.speedup()});
    all_identical = all_identical && p.bit_identical;
    max_speedup = std::max(max_speedup, p.speedup());
  }
  table.print(std::cout, std::string("kernels: scalar vs '") +
                             simd_level_name(supported) + "'");
  std::cout << "all dispatched outputs bit-identical to scalar: "
            << (all_identical ? "YES" : "NO") << "\n";

  // --- is_evenly_covered: insertion sort (|S| <= 16) vs std::sort. ---------
  // The predicate's small-|S| path replaces std::sort's dispatch with a
  // branchy insertion sort; measure both regimes so the cutoff stays an
  // informed choice. The >16 case exercises the std::sort path unchanged.
  struct SortPoint {
    unsigned popcount;
    double ns_per_call;
  };
  std::vector<SortPoint> sort_points;
  for (const unsigned bits : {8u, 16u, 24u}) {
    const unsigned q = 48;
    std::vector<std::uint64_t> x(q);
    for (auto& xi : x) xi = rng() % 7;
    std::uint64_t mask = lowest_mask(bits);
    // A mid-range mask (not the lowest) so positions are spread out.
    for (int skip = 0; skip < 20; ++skip) mask = next_same_popcount(mask);
    const std::size_t calls = flags.quick ? 20000 : 100000;
    bool sink = false;
    const double total_ns = best_ns(reps, [&] {
      for (std::size_t c = 0; c < calls; ++c) {
        sink ^= is_evenly_covered(x, mask);
      }
    });
    if (sink) std::cout << "";  // keep the loop observable
    sort_points.push_back({bits, total_ns / static_cast<double>(calls)});
  }
  Table sort_table({"|S|", "ns/call", "sort path"});
  for (const auto& sp : sort_points) {
    sort_table.add_row({static_cast<std::int64_t>(sp.popcount), sp.ns_per_call,
                        std::string(sp.popcount <= 16 ? "insertion" : "std::sort")});
  }
  sort_table.print(std::cout, "is_evenly_covered sort-path cost");

  // --- Emit BENCH_kernels.json. --------------------------------------------
  std::string kernels = "[\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    kernels += "    {\"name\": " + bench::json_str(p.name) +
               ", \"size\": " + bench::json_u64(p.size) +
               ", \"scalar_ns\": " + bench::json_num(p.scalar_ns) +
               ", \"dispatched_ns\": " + bench::json_num(p.dispatched_ns) +
               ", \"speedup\": " + bench::json_num(p.speedup()) +
               ", \"bit_identical\": " + bench::json_bool(p.bit_identical) +
               "}";
    kernels += i + 1 < points.size() ? ",\n" : "\n";
  }
  kernels += "  ]";
  std::string sort_json = "[\n";
  for (std::size_t i = 0; i < sort_points.size(); ++i) {
    sort_json +=
        "    {\"popcount\": " + bench::json_u64(sort_points[i].popcount) +
        ", \"ns_per_call\": " + bench::json_num(sort_points[i].ns_per_call) +
        ", \"path\": " +
        bench::json_str(sort_points[i].popcount <= 16 ? "insertion"
                                                      : "std_sort") +
        "}";
    sort_json += i + 1 < sort_points.size() ? ",\n" : "\n";
  }
  sort_json += "  ]";
  const std::string path = bench::emit_bench_json(
      "kernels", bench::resolved_env(),
      {{"cpu", "{\"supported_level\": " +
                   bench::json_str(simd_level_name(supported)) +
                   ", \"active_level\": " +
                   bench::json_str(simd_level_name(simd_active_level())) +
                   "}"},
       {"bit_identical", bench::json_bool(all_identical)},
       {"max_speedup", bench::json_num(max_speedup)},
       {"kernels", kernels},
       {"evenly_covered_sort", sort_json}});
  if (!path.empty()) std::cout << "wrote " << path << "\n";

  std::cout << "max speedup vs scalar = " << format_double(max_speedup)
            << "x (acceptance on AVX2 hardware: >= 2x on some kernel)\n";
  return all_identical ? 0 : 1;
}
