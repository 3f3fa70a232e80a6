// Substrate microbenchmarks (google-benchmark): the hot paths every
// experiment turns on. Includes the D2 ablation (alias vs inverse-CDF
// sampling).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "core/message_analysis.hpp"
#include "dist/alias_sampler.hpp"
#include "dist/generators.hpp"
#include "dist/nu_z.hpp"
#include "dist/paninski.hpp"
#include "fourier/evenly_covered.hpp"
#include "fourier/wht.hpp"
#include "sim/protocol_batch.hpp"
#include "stats/workloads.hpp"
#include "sweep_specs.hpp"
#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "testers/fixed_threshold.hpp"
#include "testers/message_maps.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace duti;

void BM_AliasSampler(benchmark::State& state) {
  Rng rng(1);
  const auto dist = gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  const AliasSampler sampler(dist.pmf_vector());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSampler)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// D2 ablation: inverse-CDF sampling via binary search on the cumulative
/// weights — O(log n) per draw where alias is O(1).
void BM_InverseCdfSampler(benchmark::State& state) {
  Rng rng(1);
  const auto dist = gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  std::vector<double> cdf(dist.domain_size());
  double acc = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    acc += dist.pmf(i);
    cdf[i] = acc;
  }
  for (auto _ : state) {
    const double u = rng.next_double();
    benchmark::DoNotOptimize(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
}
BENCHMARK(BM_InverseCdfSampler)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

void BM_NuZSample(benchmark::State& state) {
  Rng rng(2);
  const unsigned ell = static_cast<unsigned>(state.range(0));
  const NuZ nu(CubeDomain(ell), PerturbationVector::random(ell, rng), 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nu.sample(rng));
  }
}
BENCHMARK(BM_NuZSample)->Arg(8)->Arg(16)->Arg(24);

/// A far trial's source as paninski_far_factory builds it: n/2 sign draws
/// and the alias table walked from the pair signs, with no pmf.
void BM_PaninskiBuild(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const PaninskiSource source(Paninski::random(n, 0.25, rng));
    benchmark::DoNotOptimize(source.sample(rng));
  }
}
BENCHMARK(BM_PaninskiBuild)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

/// The same source through the materialized pmf: normalization, then the
/// weights constructor's scans inside the first draw.
void BM_PaninskiPmfBuild(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const DistributionSource source(gen::paninski(n, 0.25, rng));
    benchmark::DoNotOptimize(source.sample(rng));
  }
}
BENCHMARK(BM_PaninskiPmfBuild)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

/// Alias draws from a Paninski table: the index shift, then the integer
/// coin (the raw's top 53 bits against the column's threshold) and a
/// cmov to the alias. At eps = 0.25 the coin sends a quarter of the draws
/// to the alias, unpredictably, so a branch would mispredict.
void BM_PaninskiSampleMany(benchmark::State& state) {
  Rng rng(9);
  const PaninskiSource source(
      Paninski::random(static_cast<std::size_t>(state.range(0)), 0.25, rng));
  std::vector<std::uint64_t> buf;
  for (auto _ : state) {
    source.sample_many(rng, 312, buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 312);
}
BENCHMARK(BM_PaninskiSampleMany)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_Wht(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> data(1ULL << static_cast<unsigned>(state.range(0)));
  for (auto& v : data) v = rng.next_double();
  for (auto _ : state) {
    std::vector<double> copy = data;
    wht_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Wht)->Arg(10)->Arg(16)->Arg(20);

/// is_evenly_covered at |S| = range(0) of q = 48 positions over 7 values:
/// |S| <= 16 gathers through the insertion sort, 24 through std::sort, so
/// the three sizes bracket the cutoff in value_multiplicities.
void BM_IsEvenlyCovered(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::uint64_t> x(48);
  for (auto& xi : x) xi = rng() % 7;
  std::uint64_t mask = lowest_mask(static_cast<unsigned>(state.range(0)));
  // A mid-range mask (not the lowest) so positions are spread out.
  for (int skip = 0; skip < 20; ++skip) mask = next_same_popcount(mask);
  for (auto _ : state) {
    benchmark::DoNotOptimize(is_evenly_covered(x, mask));
  }
}
BENCHMARK(BM_IsEvenlyCovered)->Arg(8)->Arg(16)->Arg(24);

/// E7's Monte-Carlo row (ell, q) = (range(0), range(1)) at r = 2, m = 3
/// (100 000 trials) on a pool of range(2) threads; E7 draws from all
/// three shapes below.
void BM_ArMomentMc(benchmark::State& state) {
  const auto ell = static_cast<unsigned>(state.range(0));
  const auto q = static_cast<unsigned>(state.range(1));
  ThreadPool pool(static_cast<unsigned>(state.range(2)));
  for (auto _ : state) {
    Rng rng(1);
    benchmark::DoNotOptimize(a_r_moment_mc(ell, q, 2, 3, 100000, rng, pool));
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ArMomentMc)
    ->ArgNames({"ell", "q", "threads"})
    ->ArgsProduct({{3}, {10}, {1, 4}})
    ->ArgsProduct({{5}, {6, 10}, {1, 4}})
    ->UseRealTime();

/// One of E9b's exact information rows: the collision count on r =
/// range(0) bits at ell = 3, q = 3, eps = 0.4, from construction (the
/// tuples' symbols) through E_z over all 256 perturbation vectors.
void BM_MultibitDivergenceExact(benchmark::State& state) {
  const SampleTupleCodec codec(CubeDomain(3), 3);
  const auto r = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const MessageAnalysis analysis(codec, r,
                                   collision_count_message(codec, r));
    benchmark::DoNotOptimize(analysis.expected_divergence_exact(0.4));
  }
}
BENCHMARK(BM_MultibitDivergenceExact)->Arg(2)->Arg(8);

/// A jump of range(0) draws: the stride polynomial x^d mod P, then its
/// 256-step application. parallel_for_stream pays the first once per loop
/// and the second once per chunk; 79 872 is one calibration chunk of the
/// reference search (256 trials of q = 312).
void BM_RngJump(benchmark::State& state) {
  const auto draws = static_cast<std::uint64_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    rng.jump(Rng::jump_polynomial(draws));
    benchmark::DoNotOptimize(rng.state());
  }
}
BENCHMARK(BM_RngJump)->Arg(1)->Arg(79872)->Arg(1LL << 40);

void BM_CollisionPairs(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::uint64_t> samples(
      static_cast<std::size_t>(state.range(0)));
  for (auto& s : samples) s = rng.next_below(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(collision_pairs(samples, 4096));
  }
}
BENCHMARK(BM_CollisionPairs)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ProtocolRound(benchmark::State& state) {
  Rng rng(5);
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = 4096;
  const unsigned q = 32;
  const CollisionVote vote = CollisionVote::at_uniform_mean(n, q);
  const ProtocolBatchExecutor executor(
      k, q,
      [vote](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
        return Message::bit(!vote.rejects(pairs));
      },
      vote.decided_above());
  const UniformSource source(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run(source, rng, 2));
  }
}
BENCHMARK(BM_ProtocolRound)->Arg(8)->Arg(64)->Arg(512);

/// One player of the reference search (q = 312): draw and count pairs
/// through count_pairs, on the uniform source (arg 0 = 0) or a Paninski far
/// source (ε = 0.25), with no bound (arg 1 = 0) or the threshold vote's
/// floor(C(q,2)/n) (arg 1 = 1; 11 at both sizes), over n = arg 2. n = 4096
/// (the reference search's) takes the one-shift index draw, n = 4094 (the
/// nearest even size, as Paninski needs) Lemire's multiply.
void BM_PlayerPairs(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(2));
  const unsigned q = 312;
  Rng build(6);
  const std::unique_ptr<SampleSource> source =
      state.range(0) == 0
          ? workloads::uniform_factory(n)(build)
          : workloads::paninski_far_factory(n, 0.25)(build);
  const std::uint64_t bound =
      state.range(1) == 0
          ? kNoPairBound
          : CollisionVote::at_uniform_mean(n, q).decided_above();
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source->count_pairs(rng, q, bound));
  }
}
BENCHMARK(BM_PlayerPairs)->ArgsProduct({{0, 1}, {0, 1}, {4094, 4096}});

/// Batched sample_many on a DistributionSource: one virtual dispatch per
/// batch, alias tables kept hot.
void BM_SampleManyBatched(benchmark::State& state) {
  Rng rng(7);
  const DistributionSource source(
      gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0));
  std::vector<std::uint64_t> buf;
  source.sample_many(rng, 64, buf);  // build the lazy alias table
  for (auto _ : state) {
    source.sample_many(rng, 64, buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SampleManyBatched)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// The pre-batching baseline: one virtual sample() call per draw through the
/// SampleSource base default loop.
void BM_SampleManyPerSample(benchmark::State& state) {
  Rng rng(7);
  const DistributionSource source(
      gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0));
  const SampleSource& base = source;
  std::vector<std::uint64_t> buf(64);
  (void)base.sample(rng);  // build the lazy alias table
  for (auto _ : state) {
    for (auto& s : buf) s = base.sample(rng);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SampleManyPerSample)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// The probe-loop allocation hoist (ISSUE 2 satellite): the same uniform
/// factory with and without the trial-invariant promise. The delta is the
/// per-trial heap allocation + source construction cost.
void BM_ProbeSourceHoisted(benchmark::State& state) {
  const TesterRun run = [](const SampleSource& src, Rng& rng) {
    std::vector<std::uint64_t> s;
    src.sample_many(rng, 16, s);
    return collision_pairs(s, src.domain_size()) == 0;
  };
  ThreadPool pool(1);
  const SourceSpec uniform = workloads::uniform_factory(4096);
  const SourceSpec far = workloads::paninski_far_factory(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_success(run, uniform, far, 64, 1, pool).trials);
  }
}
BENCHMARK(BM_ProbeSourceHoisted);

void BM_ProbeSourceFresh(benchmark::State& state) {
  const TesterRun run = [](const SampleSource& src, Rng& rng) {
    std::vector<std::uint64_t> s;
    src.sample_many(rng, 16, s);
    return collision_pairs(s, src.domain_size()) == 0;
  };
  ThreadPool pool(1);
  const SourceSpec uniform(workloads::uniform_factory(4096).factory(),
                           /*trial_invariant=*/false);
  const SourceSpec far = workloads::paninski_far_factory(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_success(run, uniform, far, 64, 1, pool).trials);
  }
}
BENCHMARK(BM_ProbeSourceFresh);

/// probe_success throughput against the pool size (the argument): one
/// 300-trial probe of the forced-threshold tester at n=4096, k=32, q=64.
/// Every pool size returns the bit-identical result
/// (ParallelProbe.BitIdenticalAcrossThreadCounts); items/s is trials/s.
void BM_ProbeSuccess(benchmark::State& state) {
  constexpr std::uint64_t kN = 4096;
  constexpr std::size_t kTrials = 300;
  const FixedThresholdTester tester({kN, 32, 64, 0.5}, 4);
  const TesterRun run = [&tester](const SampleSource& src, Rng& rng) {
    return tester.run(src, rng);
  };
  const SourceSpec uniform = workloads::uniform_factory(kN);
  const SourceSpec far = workloads::paninski_far_factory(kN, 0.5);
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_success(run, uniform, far, kTrials, 1, pool).uniform_successes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_ProbeSuccess)
    ->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(8)->UseRealTime();

/// One reference-search calibration (n = 4096, q = 312, 4000 trials) on a
/// pool of range(0) threads; the memo is cleared every iteration, so each
/// one computes.
void BM_CalibrateOnUniform(benchmark::State& state) {
  constexpr std::size_t kTrials = 4000;
  const unsigned q = 312;
  ThreadPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    bench::clear_calibration_memo();
    Rng rng(5);
    benchmark::DoNotOptimize(uniform_reject_rates(
        bench::kReferenceN, std::span(&q, 1), kTrials, rng, pool));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTrials));
}
BENCHMARK(BM_CalibrateOnUniform)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_PerturbationVector(benchmark::State& state) {
  Rng rng(6);
  const unsigned ell = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerturbationVector::random(ell, rng));
  }
}
BENCHMARK(BM_PerturbationVector)->Arg(10)->Arg(20)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
