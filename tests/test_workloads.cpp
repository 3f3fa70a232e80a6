#include "stats/workloads.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
  // and leave the RNG in the same state.
  const auto check = [](const SampleSource& source, std::size_t count) {
    Rng scalar_rng(99), batch_rng(99);
    std::vector<std::uint64_t> batch;
    source.sample_many(batch_rng, count, batch);
    ASSERT_EQ(batch.size(), count);
    for (const std::uint64_t b : batch) {
      EXPECT_EQ(b, source.sample(scalar_rng));
    }
    for (int k = 0; k < 4; ++k) ASSERT_EQ(batch_rng(), scalar_rng());
  };
  check(UniformSource(1000), 257);
  check(DistributionSource(gen::zipf(64, 1.0)), 257);
  check(HistogramSource({5, 0, 3, 12, 1}), 257);
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

TEST(SampleSources, HistogramSource) {
  HistogramSource source({0, 10, 0, 0});
  EXPECT_EQ(source.domain_size(), 4u);
  EXPECT_DOUBLE_EQ(source.l1_from_uniform(), 1.5);  // |1-1/4| + 3*|0-1/4|
  Rng rng(11);
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(source.sample(rng), 1u);  // all mass on element 1
  }
  EXPECT_THROW(HistogramSource({0, 0}), InvalidArgument);
}

TEST(SampleSources, HistogramSourceTotalMustFitInUint64) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // A total of exactly 2^64 - 1 fits.
  EXPECT_NO_THROW(HistogramSource({kMax}));
  EXPECT_NO_THROW(HistogramSource({kMax - 1, 1}));
  // One more wraps: 2^64, and the 2^65 - 1 whose wrapped total read
  // l1_from_uniform() as 5/3 instead of 2/3.
  EXPECT_THROW(HistogramSource({kMax, 1}), CapacityError);
  EXPECT_THROW(HistogramSource({kMax, kMax, 1}), CapacityError);
}

TEST(Workloads, Validation) {
  EXPECT_THROW(workloads::uniform_factory(0), InvalidArgument);
  EXPECT_THROW(workloads::paninski_far_factory(63, 0.5), InvalidArgument);
  EXPECT_THROW(workloads::paninski_far_factory(64, 0.0), InvalidArgument);
  EXPECT_THROW(workloads::nu_z_far_factory(0, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace duti
