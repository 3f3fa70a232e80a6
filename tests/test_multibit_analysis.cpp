#include "core/multibit_analysis.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "testers/message_maps.hpp"
#include "util/error.hpp"

namespace duti {
namespace {

SampleTupleCodec small_codec(unsigned ell = 2, unsigned q = 2) {
  return SampleTupleCodec(CubeDomain(ell), q);
}

TEST(MultibitAnalysis, Validation) {
  const auto codec = small_codec();
  EXPECT_THROW(MultibitMessageAnalysis(codec, 0, [](std::uint64_t) {
                 return 0U;
               }),
               InvalidArgument);
  EXPECT_THROW(MultibitMessageAnalysis(codec, 2, nullptr), InvalidArgument);
}

TEST(MultibitAnalysis, UniformPushforwardIsADistribution) {
  const auto codec = small_codec();
  const MultibitMessageAnalysis analysis(
      codec, 3, [](std::uint64_t t) { return static_cast<std::uint32_t>(t % 8); });
  const auto& push = analysis.uniform_pushforward();
  EXPECT_EQ(push.size(), 8u);
  const double total = std::accumulate(push.begin(), push.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MultibitAnalysis, NuZPushforwardIsADistribution) {
  const auto codec = small_codec();
  Rng rng(1);
  const NuZ nu(codec.domain(), PerturbationVector::random(2, rng), 0.5);
  const MultibitMessageAnalysis analysis(
      codec, 2, [](std::uint64_t t) { return static_cast<std::uint32_t>(t % 4); });
  const auto push = analysis.nu_z_pushforward(nu);
  const double total = std::accumulate(push.begin(), push.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MultibitAnalysis, SymbolOutOfRangeThrows) {
  const auto codec = small_codec();
  const MultibitMessageAnalysis analysis(
      codec, 1, [](std::uint64_t t) { return static_cast<std::uint32_t>(t); });
  EXPECT_THROW((void)analysis.uniform_pushforward(), InvalidArgument);
}

TEST(MultibitAnalysis, ConstantMessageHasZeroDivergence) {
  const auto codec = small_codec();
  const MultibitMessageAnalysis analysis(codec, 2,
                                         [](std::uint64_t) { return 3U; });
  EXPECT_NEAR(analysis.expected_divergence_exact(0.8), 0.0, 1e-12);
}

TEST(MultibitAnalysis, PrefixMessageCarriesAlmostNothing) {
  // The first sample's bits are marginally uniform under E_z[nu_z]; per
  // fixed z there is a little divergence, but far less than the collision
  // message extracts.
  const auto codec = small_codec(2, 2);
  const double eps = 0.4;
  // The first 2 bits of the first sample.
  const MultibitMessageAnalysis prefix(codec, 2, [codec](std::uint64_t t) {
    return static_cast<std::uint32_t>(codec.element(t, 0) & 3ULL);
  });
  const MultibitMessageAnalysis collision(
      codec, 2, collision_count_message(codec, 2));
  EXPECT_LT(prefix.expected_divergence_exact(eps),
            collision.expected_divergence_exact(eps));
}

TEST(MultibitAnalysis, DataProcessingInequality) {
  // No message map can exceed the full-tuple divergence. Checked for
  // several maps at several eps.
  const auto codec = small_codec(2, 2);
  for (double eps : {0.2, 0.5, 0.9}) {
    const double ceiling =
        MultibitMessageAnalysis::full_tuple_divergence_exact(codec, eps);
    for (unsigned r : {1u, 2u, 4u}) {
      const MultibitMessageAnalysis analysis(
          codec, r, collision_count_message(codec, r));
      EXPECT_LE(analysis.expected_divergence_exact(eps), ceiling + 1e-12)
          << "r=" << r << " eps=" << eps;
    }
    // Identity-ish map (tuple id truncated to 6 bits = whole tuple here):
    const MultibitMessageAnalysis identity(
        codec, 6,
        [](std::uint64_t t) { return static_cast<std::uint32_t>(t); });
    EXPECT_NEAR(identity.expected_divergence_exact(eps), ceiling, 1e-9);
  }
}

TEST(MultibitAnalysis, MoreBitsNeverLoseInformation) {
  // Refining the collision quantizer (larger r) weakly increases the
  // divergence: coarsening is a data-processing step.
  const auto codec = small_codec(2, 2);
  const double eps = 0.5;
  double prev = -1.0;
  for (unsigned r : {1u, 2u, 3u, 4u}) {
    const MultibitMessageAnalysis analysis(
        codec, r, collision_count_message(codec, r));
    const double d = analysis.expected_divergence_exact(eps);
    EXPECT_GE(d, prev - 1e-12) << "r=" << r;
    prev = d;
  }
}

TEST(MultibitAnalysis, DivergenceGrowsWithEps) {
  const auto codec = small_codec(2, 2);
  const MultibitMessageAnalysis analysis(
      codec, 2, collision_count_message(codec, 2));
  double prev = -1.0;
  for (double eps : {0.0, 0.2, 0.4, 0.8}) {
    const double d = analysis.expected_divergence_exact(eps);
    EXPECT_GE(d, prev - 1e-12) << "eps=" << eps;
    prev = d;
  }
  EXPECT_NEAR(analysis.expected_divergence_exact(0.0), 0.0, 1e-12);
}

TEST(MultibitAnalysis, E9bValuesArePinnedBitForBit) {
  // bench/e9_multibit's information table at ell = 3, q = 3, eps = 0.4:
  // its collision and random-hash messages and the full-tuple ceiling.
  const SampleTupleCodec codec(CubeDomain(3), 3);
  const double eps = 0.4;
  const auto hash_message = [](unsigned r) {
    const std::uint64_t key = derive_seed(0x9E37, r);
    return [key, r](std::uint64_t t) {
      return static_cast<std::uint32_t>(SplitMix64(t ^ key).next() &
                                        ((1ULL << r) - 1));
    };
  };
  const auto expect_bits = [](double got, double want, const char* what,
                              unsigned r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << what << " r=" << r << ": got " << std::hexfloat << got;
  };
  expect_bits(MultibitMessageAnalysis::full_tuple_divergence_exact(codec, eps),
              0x1.6caca2b280441p-2, "ceiling", 0);
  struct Row {
    unsigned r;
    double collision, hash;
  };
  for (const Row& row : {Row{1, 0x1.aa62a517ee837p-9, 0x1.e12ce0e23ecacp-15},
                         Row{2, 0x1.cc0f744f77fc3p-9, 0x1.38436cd0959bcp-12},
                         Row{8, 0x1.cc0f744f77fc3p-9, 0x1.9def678ecdd04p-6}}) {
    const MultibitMessageAnalysis collision(
        codec, row.r, collision_count_message(codec, row.r));
    const MultibitMessageAnalysis hash(codec, row.r, hash_message(row.r));
    expect_bits(collision.expected_divergence_exact(eps), row.collision,
                "collision", row.r);
    expect_bits(hash.expected_divergence_exact(eps), row.hash, "hash", row.r);
  }
}

TEST(MultibitAnalysis, VoteMessageMatchesOneBitAnalysis) {
  // The 1-bit vote map's pushforward under uniform must equal
  // (1 - mu(G), mu(G)) of the corresponding Boolean analysis.
  const auto codec = small_codec(2, 2);
  const auto vote = collision_vote_message(codec);
  const MultibitMessageAnalysis analysis(codec, 1, vote);
  const auto& push = analysis.uniform_pushforward();
  // Count accepting tuples directly.
  double accept = 0.0;
  for (std::uint64_t t = 0; t < codec.num_tuples(); ++t) {
    accept += vote(t);
  }
  accept /= static_cast<double>(codec.num_tuples());
  EXPECT_NEAR(push[1], accept, 1e-12);
  EXPECT_NEAR(push[0], 1.0 - accept, 1e-12);
}

}  // namespace
}  // namespace duti
