#include "dist/cube_domain.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace duti {
namespace {

TEST(CubeDomain, Sizes) {
  const CubeDomain d(3);
  EXPECT_EQ(d.ell(), 3u);
  EXPECT_EQ(d.side_size(), 8u);
  EXPECT_EQ(d.universe_size(), 16u);
}

TEST(CubeDomain, EncodeDecodeRoundTrip) {
  const CubeDomain d(4);
  for (std::uint64_t x = 0; x < d.side_size(); ++x) {
    for (int s : {+1, -1}) {
      const auto e = d.encode(x, s);
      EXPECT_LT(e, d.universe_size());
      EXPECT_EQ(d.x_of(e), x);
      EXPECT_EQ(d.s_of(e), s);
    }
  }
}

TEST(CubeDomain, LeftCubeIsLowHalf) {
  const CubeDomain d(2);
  // s=+1 encodes with bit ell clear: elements 0..3 are the left cube.
  for (std::uint64_t e = 0; e < 4; ++e) EXPECT_EQ(d.s_of(e), +1);
  for (std::uint64_t e = 4; e < 8; ++e) EXPECT_EQ(d.s_of(e), -1);
}

TEST(CubeDomain, EncodeValidation) {
  const CubeDomain d(2);
  EXPECT_THROW((void)d.encode(4, +1), InvalidArgument);
  EXPECT_THROW((void)d.encode(0, 0), InvalidArgument);
  EXPECT_THROW((void)d.encode(0, 2), InvalidArgument);
}

TEST(CubeDomain, EllRangeChecked) {
  EXPECT_THROW(CubeDomain(0), InvalidArgument);
  EXPECT_THROW(CubeDomain(31), InvalidArgument);
  EXPECT_NO_THROW(CubeDomain(30));
}

}  // namespace
}  // namespace duti
