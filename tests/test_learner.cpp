#include "testers/learner.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dist/generators.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {
namespace {

TEST(StochasticRoundingLearner, Validation) {
  EXPECT_THROW(StochasticRoundingLearner(1, 10, 2), InvalidArgument);
  EXPECT_THROW(StochasticRoundingLearner(16, 8, 2), InvalidArgument);  // k < n
  EXPECT_THROW(StochasticRoundingLearner(16, 32, 0), InvalidArgument);
  EXPECT_NO_THROW(StochasticRoundingLearner(16, 16, 1));
}

TEST(StochasticRoundingLearner, OutputIsADistribution) {
  const StochasticRoundingLearner learner(8, 64, 4);
  const DistributionSource source(gen::zipf(8, 1.0));
  Rng rng(1);
  const auto learned = learner.learn(source, rng);
  EXPECT_EQ(learned.domain_size(), 8u);
  double total = 0.0;
  for (double p : learned.pmf_vector()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(StochasticRoundingLearner, ErrorDecreasesWithK) {
  const std::uint64_t n = 16;
  const unsigned q = 8;
  const auto truth = gen::zipf(n, 1.0);
  auto avg_error = [&](std::uint64_t k, std::uint64_t seed) {
    const StochasticRoundingLearner learner(n, k, q);
    std::vector<double> errs;
    for (int t = 0; t < 10; ++t) {
      Rng rng = make_rng(seed, t);
      errs.push_back(learner.learn_l1_error(truth, rng));
    }
    return mean(errs);
  };
  const double e_small = avg_error(64, 2);
  const double e_large = avg_error(4096, 3);
  EXPECT_LT(e_large, e_small);
  EXPECT_LT(e_large, 0.5);
}

TEST(StochasticRoundingLearner, ErrorDecreasesWithQ) {
  const std::uint64_t n = 16, k = 1024;
  const auto truth = gen::bimodal(n, 0.8);
  auto avg_error = [&](unsigned q, std::uint64_t seed) {
    const StochasticRoundingLearner learner(n, k, q);
    std::vector<double> errs;
    for (int t = 0; t < 10; ++t) {
      Rng rng = make_rng(seed, t);
      errs.push_back(learner.learn_l1_error(truth, rng));
    }
    return mean(errs);
  };
  EXPECT_LT(avg_error(32, 5), avg_error(1, 4));
}

TEST(StochasticRoundingLearner, LearnsUniformAccurately) {
  const std::uint64_t n = 8;
  const StochasticRoundingLearner learner(n, 8192, 16);
  const auto truth = DiscreteDistribution::uniform(n);
  Rng rng(6);
  EXPECT_LT(learner.learn_l1_error(truth, rng), 0.15);
}

TEST(PresenceBitLearner, InvertPresenceByHand) {
  // q = 1: identity. p = 1 - (1-mu)^q inverts exactly.
  EXPECT_NEAR(PresenceBitLearner::invert_presence(0.3, 1), 0.3, 1e-12);
  const double mu = 0.02;
  for (unsigned q : {1u, 4u, 32u}) {
    const double p = 1.0 - std::pow(1.0 - mu, static_cast<double>(q));
    EXPECT_NEAR(PresenceBitLearner::invert_presence(p, q), mu, 1e-12)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(PresenceBitLearner::invert_presence(1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(PresenceBitLearner::invert_presence(0.0, 5), 0.0);
  EXPECT_THROW((void)PresenceBitLearner::invert_presence(1.5, 2), InvalidArgument);
}

TEST(PresenceBitLearner, OutputIsADistribution) {
  const PresenceBitLearner learner(8, 64, 4);
  const DistributionSource source(gen::zipf(8, 1.0));
  Rng rng(21);
  const auto learned = learner.learn(source, rng);
  double total = 0.0;
  for (double p : learned.pmf_vector()) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PresenceBitLearner, ErrorDecreasesWithQ) {
  // The headline property the stochastic-rounding learner LACKS: with the
  // presence bit, more samples per node genuinely reduce the error — in
  // the near-uniform regime q*mu_i <~ 1 (the regime the paper's lower
  // bound concerns; on heavy-headed truths like Zipf the presence bit
  // saturates at large q).
  const std::uint64_t n = 16, k = 512;
  const auto truth = gen::bimodal(n, 0.8);
  auto avg_error = [&](unsigned q, std::uint64_t seed) {
    const PresenceBitLearner learner(n, k, q);
    std::vector<double> errs;
    for (int t = 0; t < 12; ++t) {
      Rng rng = make_rng(seed, t);
      errs.push_back(learner.learn_l1_error(truth, rng));
    }
    return mean(errs);
  };
  EXPECT_LT(avg_error(16, 23), avg_error(1, 22) * 0.75);
}

TEST(PresenceBitLearner, BeatsStochasticRoundingAtLargeQ) {
  const std::uint64_t n = 16, k = 512;
  const unsigned q = 16;
  const auto truth = gen::bimodal(n, 0.8);
  std::vector<double> presence_errs, rounding_errs;
  for (int t = 0; t < 12; ++t) {
    Rng r1 = make_rng(24, t);
    presence_errs.push_back(
        PresenceBitLearner(n, k, q).learn_l1_error(truth, r1));
    Rng r2 = make_rng(25, t);
    rounding_errs.push_back(
        StochasticRoundingLearner(n, k, q).learn_l1_error(truth, r2));
  }
  EXPECT_LT(mean(presence_errs), mean(rounding_errs));
}

TEST(PresenceBitLearner, Validation) {
  EXPECT_THROW(PresenceBitLearner(1, 10, 2), InvalidArgument);
  EXPECT_THROW(PresenceBitLearner(16, 8, 2), InvalidArgument);
  EXPECT_THROW(PresenceBitLearner(16, 32, 0), InvalidArgument);
}

TEST(Learners, DomainMismatchThrows) {
  const StochasticRoundingLearner learner(8, 64, 2);
  const UniformSource source(16);
  Rng rng(12);
  EXPECT_THROW((void)learner.learn(source, rng), InvalidArgument);
}

}  // namespace
}  // namespace duti
