#include "testers/multibit.hpp"

#include <gtest/gtest.h>

#include "dist/generators.hpp"
#include "success_rates.hpp"

namespace duti {
namespace {

using test::success_rates;

TEST(EncodeCount, SaturatesAtRBits) {
  EXPECT_EQ(MultibitSumTester::encode_count(0, 3, 0), 0u);
  EXPECT_EQ(MultibitSumTester::encode_count(6, 3, 0), 6u);
  EXPECT_EQ(MultibitSumTester::encode_count(7, 3, 0), 7u);
  EXPECT_EQ(MultibitSumTester::encode_count(8, 3, 0), 7u);
  EXPECT_EQ(MultibitSumTester::encode_count(1000, 3, 0), 7u);
  EXPECT_EQ(MultibitSumTester::encode_count(1, 1, 0), 1u);
  EXPECT_EQ(MultibitSumTester::encode_count(5, 1, 0), 1u);
}

TEST(EncodeCount, WindowOffsetShiftsAndClamps) {
  EXPECT_EQ(MultibitSumTester::encode_count(10, 3, 8), 2u);
  EXPECT_EQ(MultibitSumTester::encode_count(8, 3, 8), 0u);
  EXPECT_EQ(MultibitSumTester::encode_count(3, 3, 8), 0u);  // below window
  EXPECT_EQ(MultibitSumTester::encode_count(100, 3, 8), 7u);
}

TEST(MultibitSumTester, WindowCenteredAtUniformMean) {
  // n=64, q=32: lambda = 496/64 = 7.75 -> ceil 8; r=3 -> half-window 4,
  // offset 4. r large enough to cover zero -> offset 0.
  EXPECT_EQ(MultibitSumTester::window_offset(64, 32, 3), 4u);
  EXPECT_EQ(MultibitSumTester::window_offset(64, 32, 8), 0u);
}

TEST(MultibitSumTester, ConfigValidation) {
  Rng rng(1);
  EXPECT_THROW(MultibitSumTester({0, 4, 8, 0.5}, 2, rng), InvalidArgument);
  EXPECT_THROW(MultibitSumTester({64, 4, 8, 0.5}, 0, rng), InvalidArgument);
  EXPECT_THROW(MultibitSumTester({64, 4, 8, 0.5}, 25, rng), InvalidArgument);
  EXPECT_THROW(MultibitSumTester({64, 4, 1, 0.5}, 2, rng), InvalidArgument);
  EXPECT_THROW(MultibitSumTester({64, 4, 0, 0.5}, 2, rng), InvalidArgument);
  // The smallest legal shape: one player with one possible pair.
  const MultibitSumTester smallest({64, 1, 2, 0.5}, 2, rng);
  const UniformSource uniform(64);
  Rng run_rng(3);
  (void)smallest.run(uniform, run_rng);
  EXPECT_GT(smallest.sum_threshold(), 0.0);
}

TEST(MultibitSumTester, SucceedsWithGenerousSamples) {
  Rng rng(2);
  const MultibitSumTester tester({1024, 16, 96, 0.5}, 8, rng);
  const auto [u, f] = success_rates(tester, 1024, 0.5, 150, 21);
  EXPECT_GE(u, 0.7);
  EXPECT_GE(f, 0.7);
}

TEST(MultibitSumTester, MoreBitsHelpAtMarginalQ) {
  // At a q where the 1-bit saturating encoding loses most of the signal,
  // wider messages should (weakly) improve far-rejection.
  const std::uint64_t n = 1024;
  const double eps = 0.5;
  const unsigned k = 32, q = 56;
  Rng rng1(3), rng2(4);
  const MultibitSumTester narrow({n, k, q, eps}, 1, rng1);
  const MultibitSumTester wide({n, k, q, eps}, 10, rng2);
  const auto [un, fn_] = success_rates(narrow, n, eps, 250, 22);
  const auto [uw, fw] = success_rates(wide, n, eps, 250, 23);
  EXPECT_GE(uw, 0.6);
  EXPECT_GE(fw + 0.08, fn_);  // wide is not (statistically) worse
  (void)un;
}

TEST(MultibitSumTester, ThresholdScalesWithK) {
  Rng rng1(5), rng2(6);
  const MultibitSumTester k8({512, 8, 32, 0.5}, 4, rng1);
  const MultibitSumTester k64({512, 64, 32, 0.5}, 4, rng2);
  EXPECT_GT(k64.sum_threshold(), k8.sum_threshold());
}

TEST(MultibitSumTester, ProtocolMessagesHaveConfiguredWidth) {
  Rng rng(7);
  const MultibitSumTester tester({256, 4, 16, 0.5}, 5, rng);
  const UniformSource uniform(256);
  Rng run_rng(8);
  const auto& messages = tester.executor().collect(uniform, run_rng);
  ASSERT_EQ(messages.size(), 4u);
  for (const auto& m : messages) {
    EXPECT_EQ(m.width, 5u);
    EXPECT_LT(m.bits, 32u);
  }
}

}  // namespace
}  // namespace duti
