#include "core/claim31.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

class Claim31Test : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, double>> {};

TEST_P(Claim31Test, ExpansionEqualsDirectProductEverywhere) {
  const auto [ell, q, eps] = GetParam();
  const CubeDomain dom(ell);
  const SampleTupleCodec codec(dom, q);
  Rng rng(derive_seed(31, ell, q, static_cast<std::uint64_t>(eps * 1000)));
  for (int z_trial = 0; z_trial < 3; ++z_trial) {
    const NuZ nu(dom, PerturbationVector::random(ell, rng), eps);
    for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
      const double direct = nu_zq_pmf_direct(codec, nu, t);
      const double expansion = nu_zq_pmf_expansion(codec, nu, t);
      ASSERT_NEAR(direct, expansion, 1e-14)
          << "tuple=" << t << " z_trial=" << z_trial;
    }
  }
}

TEST_P(Claim31Test, ElementTableProductIsTheDirectProductBitForBit) {
  const auto [ell, q, eps] = GetParam();
  const CubeDomain dom(ell);
  const SampleTupleCodec codec(dom, q);
  Rng rng(derive_seed(32, ell, q, static_cast<std::uint64_t>(eps * 1000)));
  for (int z_trial = 0; z_trial < 3; ++z_trial) {
    const NuZ nu(dom, PerturbationVector::random(ell, rng), eps);
    const NuZqPmf pmf(codec, nu);
    for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pmf(t)),
                std::bit_cast<std::uint64_t>(nu_zq_pmf_direct(codec, nu, t)))
          << "tuple=" << t << " z_trial=" << z_trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DomainsAndEps, Claim31Test,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),       // ell
                       ::testing::Values(1u, 2u, 3u),       // q
                       ::testing::Values(0.0, 0.3, 0.9)));  // eps

TEST(Claim31, ProductPmfSumsToOne) {
  const CubeDomain dom(2);
  const SampleTupleCodec codec(dom, 3);
  Rng rng(7);
  const NuZ nu(dom, PerturbationVector::random(2, rng), 0.5);
  double total = 0.0;
  for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
    total += nu_zq_pmf_direct(codec, nu, t);
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Claim31, ElementTableRejectsAnotherDomain) {
  const NuZ nu(CubeDomain(2), PerturbationVector(2), 0.5);
  EXPECT_THROW(NuZqPmf(SampleTupleCodec(CubeDomain(3), 2), nu),
               InvalidArgument);
}

TEST(Claim31, MatchesMaterializedPowerDistribution) {
  // Cross-check against DiscreteDistribution::power with the same index
  // layout (sample j occupies digit j; (ell+1) bits per digit = base n).
  const unsigned ell = 1, q = 2;
  const CubeDomain dom(ell);
  const SampleTupleCodec codec(dom, q);
  Rng rng(8);
  const NuZ nu(dom, PerturbationVector::random(ell, rng), 0.4);
  const auto pow_dist = nu.to_distribution().power(q);
  for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
    // The codec packs with (ell+1)-bit fields; for n a power of two this is
    // the same as base-n digits.
    ASSERT_NEAR(nu_zq_pmf_direct(codec, nu, t), pow_dist.pmf(t), 1e-14);
  }
}

TEST(SampleTupleCodec, PackUnpackRoundTrip) {
  const CubeDomain dom(2);
  const SampleTupleCodec codec(dom, 3);
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint64_t> elements(3);
    for (auto& e : elements) e = rng.next_below(dom.universe_size());
    const auto packed = codec.pack(elements);
    for (unsigned j = 0; j < 3; ++j) {
      ASSERT_EQ(codec.element(packed, j), elements[j]);
      ASSERT_EQ(codec.x_of(packed, j), dom.x_of(elements[j]));
      ASSERT_EQ(codec.s_of(packed, j), dom.s_of(elements[j]));
    }
  }
}

TEST(SampleTupleCodec, SBitsMask) {
  const CubeDomain dom(2);
  const SampleTupleCodec codec(dom, 2);
  // bits per sample = 3; s-bits at positions 2 and 5.
  EXPECT_EQ(codec.s_bits_mask(), 0b100100u);
  EXPECT_EQ(codec.x_part(0b111111), 0b011011u);
}

TEST(SampleTupleCodec, UnpackX) {
  const CubeDomain dom(2);
  const SampleTupleCodec codec(dom, 2);
  const std::vector<std::uint64_t> elements{dom.encode(3, -1),
                                            dom.encode(1, +1)};
  const auto packed = codec.pack(elements);
  std::vector<std::uint64_t> xs;
  codec.unpack_x(packed, xs);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_EQ(xs[0], 3u);
  EXPECT_EQ(xs[1], 1u);
}

TEST(SampleTupleCodec, CapacityGuard) {
  const CubeDomain dom(8);
  EXPECT_THROW(SampleTupleCodec(dom, 3), InvalidArgument);  // 27 bits > 26
  EXPECT_NO_THROW(SampleTupleCodec(dom, 2));
}

}  // namespace
}  // namespace duti
