// Multi-hop aggregation on the network simulator — the LOCAL/CONGEST-model
// face of distributed uniformity testing (the models [7] studies; our
// simultaneous-message protocol is the one-round star special case).
//
// Given any connected symmetric topology, we build a BFS spanning tree and
// run a convergecast: each node holds a value (its vote, or its local
// collision count), children's partial sums flow up the tree, and the root
// receives the total after (tree height) rounds. This realizes the
// referee's threshold rule on arbitrary networks at O(diameter) rounds and
// O(k log k) bits — the reduction the paper's Section 6.2 alludes to.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.hpp"

namespace duti {

struct SpanningTree {
  NodeId root = 0;
  std::vector<NodeId> parent;    // parent[root] == root
  std::vector<unsigned> depth;   // depth[root] == 0
  unsigned height = 0;

  [[nodiscard]] std::uint32_t num_nodes() const noexcept {
    return static_cast<std::uint32_t>(parent.size());
  }
  /// Children of `node` (computed on demand).
  [[nodiscard]] std::vector<NodeId> children(NodeId node) const;
};

/// BFS spanning tree from `root` over the network's edges. Requires every
/// used edge to exist in both directions; throws Error if the network is
/// not connected from the root.
[[nodiscard]] SpanningTree bfs_spanning_tree(const Network& net, NodeId root);

struct ConvergecastResult {
  std::uint64_t root_sum = 0;
  NetworkStats stats;
};

/// Sum all node values up the tree to the root. `bits_per_value` is the
/// accounted width of each partial-sum message (e.g. ceil(log2(k * max)))
/// for honest CONGEST-style cost accounting. Rounds used = tree height + 1.
[[nodiscard]] ConvergecastResult convergecast_sum(
    Network& net, const SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    Rng& rng);

/// Topology builders (symmetric edges) for experiments and examples.
void add_path(Network& net);
void add_grid(Network& net, std::uint32_t rows, std::uint32_t cols);
void add_binary_tree(Network& net);

}  // namespace duti
