#include "sim/protocol_batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace duti {
namespace {

/// Accept iff the player saw no collision.
ProtocolBatchExecutor::Vote no_collision_vote() {
  return [](unsigned /*j*/, std::uint64_t pairs, Rng& /*rng*/) {
    return Message::bit(pairs == 0);
  };
}

/// Uniform draws that record every batch a player requests and every
/// sample it receives.
class RecordingSource final : public SampleSource {
 public:
  explicit RecordingSource(std::uint64_t n) : inner_(n) {}
  [[nodiscard]] std::uint64_t sample(Rng& rng) const override {
    return inner_.sample(rng);
  }
  [[nodiscard]] std::uint64_t domain_size() const override {
    return inner_.domain_size();
  }
  [[nodiscard]] double l1_from_uniform() const override { return 0.0; }
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const override {
    inner_.sample_many(rng, count, out);
    batches.push_back(count);
    pooled.insert(pooled.end(), out.begin(), out.end());
  }

  mutable std::vector<std::size_t> batches;
  mutable std::vector<std::uint64_t> pooled;

 private:
  UniformSource inner_;
};

std::vector<std::uint32_t> bits_of(const std::vector<Message>& messages) {
  std::vector<std::uint32_t> bits;
  for (const Message& m : messages) bits.push_back(m.bits);
  return bits;
}

TEST(Protocol, ConstructionValidation) {
  EXPECT_THROW(ProtocolBatchExecutor(0, 3, no_collision_vote()),
               InvalidArgument);
  EXPECT_THROW(ProtocolBatchExecutor(2, 0, no_collision_vote()),
               InvalidArgument);
  EXPECT_THROW(ProtocolBatchExecutor(std::vector<unsigned>{},
                                     no_collision_vote()),
               InvalidArgument);
  EXPECT_THROW(ProtocolBatchExecutor(2, 2, nullptr), InvalidArgument);
  EXPECT_THROW(ProtocolBatchExecutor(2, 2, no_collision_vote(), 0),
               InvalidArgument);
  EXPECT_THROW(ProtocolBatchExecutor(2, 2, no_collision_vote(), 33),
               InvalidArgument);
  EXPECT_NO_THROW(ProtocolBatchExecutor(2, 2, no_collision_vote(), 32));
}

TEST(Protocol, CollectsOneMessagePerPlayer) {
  const ProtocolBatchExecutor executor(5, 3, no_collision_vote());
  const UniformSource source(8);
  Rng rng(1);
  const auto& messages = executor.collect(source, rng);
  EXPECT_EQ(messages.size(), 5u);
  for (const auto& m : messages) EXPECT_EQ(m.width, 1u);
}

TEST(Protocol, DeterministicUnderSameSeed) {
  const ProtocolBatchExecutor executor(8, 4, no_collision_vote());
  const UniformSource source(16);
  Rng rng1(42), rng2(42);
  const auto m1 = bits_of(executor.collect(source, rng1));
  const auto m2 = bits_of(executor.collect(source, rng2));
  EXPECT_EQ(m1, m2);
}

TEST(Protocol, DifferentSeedsDiffer) {
  const ProtocolBatchExecutor executor(32, 4, no_collision_vote());
  const UniformSource source(16);
  Rng rng1(1), rng2(2);
  const auto m1 = bits_of(executor.collect(source, rng1));
  const auto m2 = bits_of(executor.collect(source, rng2));
  EXPECT_NE(m1, m2);
}

TEST(Protocol, AndRuleMatchesVotes) {
  const ProtocolBatchExecutor executor(10, 2, no_collision_vote());
  const UniformSource source(4);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng collect_rng(seed), run_rng(seed);
    bool expected = true;
    for (const auto& m : executor.collect(source, collect_rng)) {
      if (!m.as_bit()) expected = false;
    }
    EXPECT_EQ(executor.run(source, run_rng, DecisionRule::and_rule()),
              expected);
  }
}

TEST(Protocol, AsymmetricSampleCounts) {
  const std::vector<unsigned> qs{1, 5, 10};
  std::vector<unsigned> voters;
  const ProtocolBatchExecutor executor(
      qs, [&voters](unsigned j, std::uint64_t /*pairs*/, Rng& /*rng*/) {
        voters.push_back(j);
        return Message::bit(true);
      });
  const RecordingSource source(4);
  Rng rng(5);
  EXPECT_TRUE(executor.run(source, rng, DecisionRule::and_rule()));
  EXPECT_EQ(source.batches, (std::vector<std::size_t>{1, 5, 10}));
  EXPECT_EQ(source.pooled.size(), 16u);
  EXPECT_EQ(voters, (std::vector<unsigned>{0, 1, 2}));
}

TEST(Protocol, MultibitMessageWidths) {
  const ProtocolBatchExecutor executor(
      3, 2,
      [](unsigned /*j*/, std::uint64_t /*pairs*/, Rng& /*rng*/) {
        return Message{0b101, 3};
      },
      3);
  const UniformSource source(4);
  Rng collect_rng(6), run_rng(6);
  for (const auto& m : executor.collect(source, collect_rng)) {
    EXPECT_EQ(m.width, 3u);
    EXPECT_EQ(m.bits, 0b101u);
  }
  // Low bit of 0b101 is 1: all votes accept.
  EXPECT_TRUE(executor.run(source, run_rng, DecisionRule::and_rule()));
  // A vote whose width disagrees with the declared one is refused.
  const ProtocolBatchExecutor narrow(
      3, 2,
      [](unsigned /*j*/, std::uint64_t /*pairs*/, Rng& /*rng*/) {
        return Message{0b101, 3};
      },
      2);
  EXPECT_THROW((void)narrow.collect(source, collect_rng), InvalidArgument);
}

TEST(Protocol, PlayersSeeIidSamplesFromSource) {
  // Statistical check: pooled samples across many runs look uniform.
  const ProtocolBatchExecutor executor(4, 8, no_collision_vote());
  const RecordingSource source(4);
  Rng rng(7);
  for (int run = 0; run < 500; ++run) {
    (void)executor.collect(source, rng);
  }
  ASSERT_EQ(source.pooled.size(), 500u * 4u * 8u);
  std::vector<int> counts(4, 0);
  for (auto s : source.pooled) ++counts[s];
  const double expected = static_cast<double>(source.pooled.size()) / 4.0;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.1);
  }
}

}  // namespace
}  // namespace duti
