#include "sim/convergecast.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "dist/generators.hpp"
#include "dist/paninski.hpp"
#include "testers/distributed.hpp"
#include "testers/tree_tester.hpp"
#include "util/confidence.hpp"

namespace duti {
namespace {

/// A path closed into a ring (symmetric edges).
void add_ring(Network& net) {
  add_path(net);
  net.add_edge(net.num_nodes() - 1, 0);
  net.add_edge(0, net.num_nodes() - 1);
}

TEST(SpanningTree, PathFromEnd) {
  Network net(5);
  add_path(net);
  const auto tree = bfs_spanning_tree(net, 0);
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.height, 4u);
  for (NodeId v = 1; v < 5; ++v) {
    EXPECT_EQ(tree.parent[v], v - 1);
    EXPECT_EQ(tree.depth[v], v);
  }
}

TEST(SpanningTree, GridHeightIsManhattanRadius) {
  Network net(16);
  add_grid(net, 4, 4);
  const auto corner = bfs_spanning_tree(net, 0);
  EXPECT_EQ(corner.height, 6u);  // to opposite corner: 3 + 3
  const auto center = bfs_spanning_tree(net, 5);  // (1,1)
  EXPECT_EQ(center.height, 4u);  // to (3,3): 2+2
}

TEST(SpanningTree, BinaryTreeDepths) {
  Network net(7);
  add_binary_tree(net);
  const auto tree = bfs_spanning_tree(net, 0);
  EXPECT_EQ(tree.height, 2u);
  EXPECT_EQ(tree.children(0).size(), 2u);
  EXPECT_EQ(tree.children(1).size(), 2u);
  EXPECT_EQ(tree.children(3).size(), 0u);
}

TEST(SpanningTree, CycleHalvesTheDistance) {
  Network net(8);
  add_ring(net);
  const auto tree = bfs_spanning_tree(net, 0);
  EXPECT_EQ(tree.height, 4u);  // farthest node on an 8-cycle
}

TEST(SpanningTree, DisconnectedThrows) {
  Network net(4);
  net.add_edge(0, 1);
  net.add_edge(1, 0);
  EXPECT_THROW(bfs_spanning_tree(net, 0), Error);
}

TEST(SpanningTree, AsymmetricEdgeThrows) {
  Network net(2);
  net.add_edge(0, 1);  // no reverse edge
  EXPECT_THROW(bfs_spanning_tree(net, 0), Error);
}

TEST(Convergecast, SumsAllValuesOnPath) {
  Network net(6);
  add_path(net);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> values{1, 2, 3, 4, 5, 6};
  Rng rng(1);
  const auto result = convergecast_sum(net, tree, values, 8, rng);
  EXPECT_EQ(result.root_sum, 21u);
  EXPECT_EQ(result.stats.messages_sent, 5u);  // one per non-root node
  EXPECT_EQ(result.stats.bits_sent, 40u);
  // Path of height 5: leaf's message needs 5 hops of pipelining.
  EXPECT_LE(result.stats.rounds_executed, tree.height + 2);
}

TEST(Convergecast, SumsOnGridAndStarAndTree) {
  for (auto topo : {0, 1, 2}) {
    Network net(9);
    NodeId root = 0;
    if (topo == 0) {
      add_grid(net, 3, 3);
    } else if (topo == 1) {
      net.add_star(4);
      root = 4;
    } else {
      add_binary_tree(net);
    }
    const auto tree = bfs_spanning_tree(net, root);
    std::vector<std::uint64_t> values(9);
    std::iota(values.begin(), values.end(), 10);  // 10..18 -> sum 126
    Rng rng(2);
    const auto result = convergecast_sum(net, tree, values, 8, rng);
    EXPECT_EQ(result.root_sum, 126u) << "topo=" << topo;
    EXPECT_EQ(result.stats.messages_sent, 8u);
  }
}

TEST(Convergecast, StarFinishesInTwoRounds) {
  Network net(10);
  net.add_star(0);
  const auto tree = bfs_spanning_tree(net, 0);
  EXPECT_EQ(tree.height, 1u);
  std::vector<std::uint64_t> values(10, 1);
  Rng rng(3);
  const auto result = convergecast_sum(net, tree, values, 1, rng);
  EXPECT_EQ(result.root_sum, 10u);
  EXPECT_LE(result.stats.rounds_executed, 2u);
}

TEST(Convergecast, SizeMismatchThrows) {
  Network net(3);
  add_path(net);
  const auto tree = bfs_spanning_tree(net, 0);
  std::vector<std::uint64_t> wrong(2, 1);
  Rng rng(4);
  EXPECT_THROW((void)convergecast_sum(net, tree, wrong, 1, rng),
               InvalidArgument);
}

TEST(TreeTester, ConfigValidation) {
  Network star(4);
  star.add_star(0);
  Rng rng(2);
  EXPECT_THROW(TreeUniformityTester(star, 0, {64, 0, 0.5}, rng),
               InvalidArgument);
  EXPECT_THROW(TreeUniformityTester(star, 0, {64, 1, 0.5}, rng),
               InvalidArgument);
  // The smallest legal shape: a lone root with one possible pair.
  Network lone(1);
  const TreeUniformityTester smallest(lone, 0, {64, 2, 0.5}, rng);
  const UniformSource uniform(64);
  Rng run_rng(3);
  const TreeTestResult result = smallest.run_epoch(uniform, run_rng);
  EXPECT_LE(result.reject_votes, 1u);
  EXPECT_EQ(smallest.referee_threshold(), 1u);
}

TEST(TreeTester, GridTesterSeparatesUniformFromFar) {
  const std::uint64_t n = 1024;
  const double eps = 0.5;
  const unsigned q = 64;  // generous for k = 36 on n = 1024
  Network net(36);
  add_grid(net, 6, 6);
  Rng calib(5);
  const TreeUniformityTester tester(net, 0, {n, q, eps}, calib);
  SuccessCounter uniform_ok, far_ok;
  const UniformSource uniform(n);
  for (int t = 0; t < 80; ++t) {
    Rng r1 = make_rng(6, t);
    uniform_ok.record(tester.run(uniform, r1));
    Rng g = make_rng(7, t);
    const DistributionSource far(gen::paninski(n, eps, g));
    Rng r2 = make_rng(8, t);
    far_ok.record(!tester.run(far, r2));
  }
  EXPECT_GE(uniform_ok.rate(), 2.0 / 3.0);
  EXPECT_GE(far_ok.rate(), 2.0 / 3.0);
}

TEST(TreeTester, RoundsScaleWithDiameterNotSize) {
  const std::uint64_t n = 256;
  const unsigned q = 16;
  // 64 nodes as a path (height 63) vs as a star (height 1).
  Network path_net(64);
  add_path(path_net);
  Rng c1(9);
  const TreeUniformityTester path_tester(path_net, 0, {n, q, 0.5}, c1, 500);
  Network star_net(64);
  star_net.add_star(0);
  Rng c2(10);
  const TreeUniformityTester star_tester(star_net, 0, {n, q, 0.5}, c2, 500);
  const UniformSource uniform(n);
  Rng r1(11), r2(12);
  const auto path_result = path_tester.run_epoch(uniform, r1);
  const auto star_result = star_tester.run_epoch(uniform, r2);
  EXPECT_GT(path_result.stats.rounds_executed, 30u);
  EXPECT_LE(star_result.stats.rounds_executed, 2u);
  // Same communication volume either way: one message per non-root node.
  EXPECT_EQ(path_result.stats.messages_sent, 63u);
  EXPECT_EQ(star_result.stats.messages_sent, 63u);
}

TEST(TreeTester, VoteCountMatchesDirectComputation) {
  // The convergecast total must equal the reject count that the threshold
  // tester's plane collects, with one player per node, from the same
  // stream: a lossless ring delivers every vote.
  const std::uint64_t n = 128;
  const unsigned q = 16;
  Network net(8);
  add_ring(net);
  Rng calib(13);
  const TreeUniformityTester tester(net, 0, {n, q, 0.5}, calib, 500);
  Rng calib_players(13);
  const DistributedThresholdTester players({n, 8, q, 0.5}, calib_players,
                                           500);
  EXPECT_EQ(tester.referee_threshold(), players.referee_threshold());
  Rng far_rng(14);
  const PaninskiSource far(Paninski::random(n, 0.5, far_rng));
  const UniformSource uniform(n);
  for (const SampleSource* source :
       {static_cast<const SampleSource*>(&uniform),
        static_cast<const SampleSource*>(&far)}) {
    for (std::uint64_t seed = 15; seed < 20; ++seed) {
      Rng r1(seed), r2(seed);
      const auto result = tester.run_epoch(*source, r1);
      std::uint64_t rejects = 0;
      for (const Message& m : players.executor().collect(*source, r2)) {
        if (!m.as_bit()) ++rejects;
      }
      EXPECT_EQ(result.reject_votes, rejects) << "seed=" << seed;
      EXPECT_EQ(result.accept,
                result.reject_votes < tester.referee_threshold());
    }
  }
}

}  // namespace
}  // namespace duti
