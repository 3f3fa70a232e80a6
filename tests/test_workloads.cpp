#include "stats/workloads.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "dist/generators.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

TEST(Workloads, UniformFactory) {
  const auto factory = workloads::uniform_factory(128);
  Rng rng(1);
  const auto source = factory(rng);
  EXPECT_EQ(source->domain_size(), 128u);
  EXPECT_DOUBLE_EQ(source->l1_from_uniform(), 0.0);
  for (int t = 0; t < 100; ++t) {
    EXPECT_LT(source->sample(rng), 128u);
  }
}

TEST(Workloads, PaninskiFarFactoryFreshPerTrial) {
  const auto factory = workloads::paninski_far_factory(64, 0.5);
  Rng rng(2);
  const auto a = factory(rng);
  const auto b = factory(rng);
  EXPECT_NEAR(a->l1_from_uniform(), 0.5, 1e-12);
  EXPECT_NEAR(b->l1_from_uniform(), 0.5, 1e-12);
  // Fresh perturbations: the two sources' pair signs should differ.
  const auto* pa = dynamic_cast<const PaninskiSource*>(a.get());
  const auto* pb = dynamic_cast<const PaninskiSource*>(b.get());
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  const auto wa = pa->paninski().words();
  const auto wb = pb->paninski().words();
  EXPECT_FALSE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()));
}

TEST(Workloads, NuZFarFactory) {
  const auto factory = workloads::nu_z_far_factory(5, 0.4);
  Rng rng(3);
  const auto source = factory(rng);
  EXPECT_EQ(source->domain_size(), 64u);  // 2^{5+1}
  EXPECT_DOUBLE_EQ(source->l1_from_uniform(), 0.4);
  for (int t = 0; t < 100; ++t) {
    EXPECT_LT(source->sample(rng), 64u);
  }
}

TEST(Workloads, NuZFactoryScalesToLargeDomains) {
  // O(1) per sample regardless of universe size.
  const auto factory = workloads::nu_z_far_factory(24, 0.3);
  Rng rng(4);
  const auto source = factory(rng);
  EXPECT_EQ(source->domain_size(), 1ULL << 25);
  std::vector<std::uint64_t> samples;
  source->sample_many(rng, 1000, samples);
  EXPECT_EQ(samples.size(), 1000u);
}

TEST(Workloads, FixedFactoryReturnsSameDistribution) {
  const auto dist = gen::zipf(32, 1.0);
  const auto factory = workloads::fixed_factory(dist);
  Rng rng(5);
  const auto a = factory(rng);
  const auto b = factory(rng);
  const auto* da = dynamic_cast<const DistributionSource*>(a.get());
  const auto* db = dynamic_cast<const DistributionSource*>(b.get());
  ASSERT_NE(da, nullptr);
  EXPECT_DOUBLE_EQ(da->distribution().l1_distance(db->distribution()), 0.0);
}

TEST(Workloads, TrialInvarianceFlags) {
  // The invariance promise drives the probe loops' per-worker source reuse;
  // rng-consuming factories must NOT carry it.
  EXPECT_TRUE(workloads::uniform_factory(64).trial_invariant());
  EXPECT_TRUE(workloads::fixed_factory(gen::zipf(16, 1.0)).trial_invariant());
  EXPECT_FALSE(workloads::paninski_far_factory(64, 0.5).trial_invariant());
  EXPECT_FALSE(workloads::nu_z_far_factory(5, 0.4).trial_invariant());
}

TEST(SampleSources, BatchedDrawsMatchScalarDraws) {
  // sample_many overrides must consume the RNG exactly like repeated
  // sample() calls — batch and scalar paths are interchangeable bit-for-bit,
  // and leave the RNG in the same state. sample_counts is the tally of the
  // same draws and leaves the same state too, also when the draws outnumber
  // the domain.
  const auto check = [](const SampleSource& source, std::size_t count) {
    Rng scalar_rng(99), batch_rng(99), counts_rng(99);
    std::vector<std::uint64_t> batch;
    source.sample_many(batch_rng, count, batch);
    ASSERT_EQ(batch.size(), count);
    std::vector<std::uint64_t> tally(source.domain_size(), 0);
    for (const std::uint64_t b : batch) {
      EXPECT_EQ(b, source.sample(scalar_rng));
      ++tally[b];
    }
    std::vector<std::uint64_t> counts;
    source.sample_counts(counts_rng, count, counts);
    EXPECT_EQ(counts, tally);
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t next = batch_rng();
      ASSERT_EQ(next, scalar_rng());
      ASSERT_EQ(next, counts_rng());
    }
  };
  check(UniformSource(1000), 257);
  check(UniformSource(64), 257);
  check(DistributionSource(gen::zipf(64, 1.0)), 257);
  Rng rng(7);
  check(PaninskiSource(Paninski::random(64, 0.25, rng)), 257);
  for (unsigned ell = 1; ell <= 10; ++ell) {
    for (const double eps : {0.0, 0.3, 1.0}) {
      SCOPED_TRACE(testing::Message() << "ell=" << ell << " eps=" << eps);
      const NuZSource nu(
          NuZ(CubeDomain(ell), PerturbationVector::random(ell, rng), eps));
      check(nu, 0);
      check(nu, 257);
    }
  }
}

TEST(Counts, OversizedDomainThrowsCapacityError) {
  const UniformSource source(kMaxCountedDomain + 1);
  Rng rng(1);
  std::vector<std::uint64_t> counts;
  EXPECT_THROW(source.sample_counts(rng, kMaxCountedDomain + 2, counts),
               CapacityError);
}

TEST(UniformSampleMany, MatchesNextBelowStreamAndFinalState) {
  // UniformSource's batch draw must consume the RNG exactly like repeated
  // next_below calls: same outputs, same number of raw draws, in the same
  // order. bound = 2^63 + 1 gives a ~50% rejection rate so the stream
  // contract is exercised well past the no-rejection case.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  10,
                                  255,
                                  257,
                                  (std::uint64_t{1} << 32) + 7,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t bound : bounds) {
    const UniformSource uniform(bound);
    for (const std::size_t len : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 16u, 67u, 256u}) {
      SCOPED_TRACE(testing::Message() << "bound=" << bound << " len=" << len);
      Rng batched(derive_seed(23, bound, len));
      Rng serial(derive_seed(23, bound, len));
      std::vector<std::uint64_t> out;
      uniform.sample_many(batched, len, out);
      ASSERT_EQ(out.size(), len);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], serial.next_below(bound)) << i;
        ASSERT_LT(out[i], bound);
      }
      // Same final state: the next raw draws must agree.
      for (int k = 0; k < 4; ++k) ASSERT_EQ(batched(), serial());
    }
  }
}

// --- Boundary rows against next_below ---------------------------------------
//
// Every source's sample, sample_many and count_pairs against a test-local
// loop that draws each index through next_below itself, at domains on both
// sides of a power of two, where the sources take the one-shift index draw
// (with_index_draw, util/rng.hpp). The existing batch-vs-scalar and
// count-vs-sample_many tests compare two paths that both take the new
// draw; these rows compare against Lemire's draw.

using ReferenceDraw = std::function<std::uint64_t(Rng&)>;

/// The alias draw written out over `sampler`'s tables (which must outlive
/// the draw): next_below(n), then the coin.
ReferenceDraw alias_reference(const AliasSampler& sampler) {
  const std::span<const double> prob = sampler.prob_table();
  const std::span<const std::uint64_t> alias = sampler.alias_table();
  return [prob, alias](Rng& rng) {
    const std::uint64_t i = rng.next_below(prob.size());
    return rng.next_double() < prob[i] ? i : alias[i];
  };
}

/// nu_z's draw written out: x = next_below(2^ell), then the side coin.
ReferenceDraw nu_z_reference(const NuZ& nu) {
  return [&nu](Rng& rng) {
    const unsigned ell = nu.domain().ell();
    const std::uint64_t x = rng.next_below(std::uint64_t{1} << ell);
    const double p_plus =
        0.5 * (1.0 + static_cast<double>(nu.z().sign(x)) * nu.eps());
    const bool minus = !(rng.next_double() < p_plus);
    return x | (static_cast<std::uint64_t>(minus) << ell);
  };
}

/// sample, sample_many and count_pairs (no bound, and bounds that stop it
/// early on the plane) equal `reference`'s draws, value for value, and
/// leave the stream where it does.
void expect_draws_like(const SampleSource& source,
                       const ReferenceDraw& reference, std::uint64_t seed) {
  Rng drawn(seed);
  Rng expected(seed);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(source.sample(drawn), reference(expected)) << "sample " << i;
  }
  ASSERT_EQ(drawn.state(), expected.state()) << "sample";

  std::vector<std::uint64_t> out;
  source.sample_many(drawn, 1000, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], reference(expected)) << "sample_many " << i;
  }
  ASSERT_EQ(drawn.state(), expected.state()) << "sample_many";

  // Above the plane cap the count sorts all q draws and ignores the bound.
  const bool on_plane = source.domain_size() <= kMaxTallyPlaneDomain;
  const unsigned q = 8192;
  for (const std::uint64_t bound : {kNoPairBound, std::uint64_t{0},
                                    std::uint64_t{3}}) {
    SCOPED_TRACE(testing::Message() << "count_pairs bound=" << bound);
    const bool stops = on_plane && bound != kNoPairBound;
    std::map<std::uint64_t, std::uint64_t> seen;
    std::uint64_t pairs = 0;
    unsigned made = 0;
    while (made < q) {
      pairs += seen[reference(expected)]++;
      ++made;
      if (stops && pairs > bound) break;
    }
    if (stops) {
      EXPECT_LT(made, q);
    }
    EXPECT_EQ(source.count_pairs(drawn, q, bound), pairs);
    ASSERT_EQ(drawn.state(), expected.state());
  }
}

TEST(SampleSources, UniformBoundaryRowsDrawLikeNextBelow) {
  const std::uint64_t sizes[] = {1,    2,    3,    1023,
                                 1024, 1025, 4095, 4096,
                                 4097, kMaxTallyPlaneDomain,
                                 kMaxTallyPlaneDomain + 1};
  for (const std::uint64_t n : sizes) {
    SCOPED_TRACE(testing::Message() << "uniform n=" << n);
    expect_draws_like(UniformSource(n),
                      [n](Rng& rng) { return rng.next_below(n); }, n);
  }
}

TEST(SampleSources, AliasBoundaryRowsDrawLikeNextBelow) {
  Rng rng(2026);
  const std::size_t paninski_sizes[] = {2, 1022, 1024, 1026, 4094, 4096};
  for (const std::size_t n : paninski_sizes) {
    SCOPED_TRACE(testing::Message() << "paninski n=" << n);
    const PaninskiSource source(Paninski::random(n, 0.25, rng));
    const AliasSampler table = source.paninski().sampler();
    expect_draws_like(source, alias_reference(table), n);
  }
  const std::size_t zipf_sizes[] = {1000, 1024};
  for (const std::size_t n : zipf_sizes) {
    SCOPED_TRACE(testing::Message() << "zipf n=" << n);
    const DistributionSource source(gen::zipf(n, 1.0));
    expect_draws_like(source, alias_reference(source.distribution().sampler()),
                      n);
  }
}

TEST(SampleSources, NuZBoundaryRowsDrawLikeNextBelow) {
  Rng rng(2027);
  for (const unsigned ell : {1U, 12U, 30U}) {
    SCOPED_TRACE(testing::Message() << "nu_z ell=" << ell);
    const NuZSource source(
        NuZ(CubeDomain(ell), PerturbationVector::random(ell, rng), 0.5));
    expect_draws_like(source, nu_z_reference(source.nu()), ell);
  }
}

TEST(Workloads, Validation) {
  EXPECT_THROW(workloads::uniform_factory(0), InvalidArgument);
  EXPECT_THROW(workloads::paninski_far_factory(63, 0.5), InvalidArgument);
  EXPECT_THROW(workloads::paninski_far_factory(64, 0.0), InvalidArgument);
  EXPECT_THROW(workloads::nu_z_far_factory(0, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace duti
