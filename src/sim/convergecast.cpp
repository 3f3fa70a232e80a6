#include "sim/convergecast.hpp"

#include <algorithm>
#include <deque>


namespace duti {

std::vector<NodeId> SpanningTree::children(NodeId node) const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (v != root && parent[v] == node) out.push_back(v);
  }
  return out;
}

SpanningTree bfs_spanning_tree(const Network& net, NodeId root) {
  require(root < net.num_nodes(), "bfs_spanning_tree: root out of range");
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(net.num_nodes(), root);
  tree.depth.assign(net.num_nodes(), 0);
  std::vector<std::uint8_t> visited(net.num_nodes(), 0);
  std::deque<NodeId> frontier{root};
  visited[root] = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (visited[v] || !net.has_edge(u, v)) continue;
      require(net.has_edge(v, u),
              "bfs_spanning_tree: edges must be symmetric");
      visited[v] = 1;
      tree.parent[v] = u;
      tree.depth[v] = tree.depth[u] + 1;
      tree.height = std::max(tree.height, tree.depth[v]);
      frontier.push_back(v);
    }
  }
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!visited[v]) {
      throw Error("bfs_spanning_tree: network not connected from root");
    }
  }
  return tree;
}

ConvergecastResult convergecast_sum(Network& net, const SpanningTree& tree,
                                    const std::vector<std::uint64_t>& values,
                                    std::uint64_t bits_per_value, Rng& rng) {
  require(values.size() == net.num_nodes(),
          "convergecast_sum: one value per node");
  require(tree.num_nodes() == net.num_nodes(),
          "convergecast_sum: tree/network size mismatch");

  // Per-node state captured by the behaviors; the simulation is one-shot.
  std::vector<std::uint64_t> partial(values);
  std::vector<std::uint64_t> pending(net.num_nodes(), 0);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (v != tree.root) ++pending[tree.parent[v]];
  }
  std::uint64_t root_sum = 0;

  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    net.set_behavior(v, [&, v](RoundContext& ctx) {
      for (const auto& m : ctx.inbox()) {
        partial[v] += m.payload.at(0);
        --pending[v];
      }
      if (pending[v] == 0) {
        if (v == tree.root) {
          root_sum = partial[v];
        } else {
          ctx.send(tree.parent[v], {partial[v]}, bits_per_value);
        }
        ctx.halt();
      }
    });
  }
  ConvergecastResult result;
  result.stats = net.run(rng, tree.height + 2);
  result.root_sum = root_sum;
  return result;
}

void add_path(Network& net) {
  for (NodeId v = 0; v + 1 < net.num_nodes(); ++v) {
    net.add_edge(v, v + 1);
    net.add_edge(v + 1, v);
  }
}

void add_grid(Network& net, std::uint32_t rows, std::uint32_t cols) {
  require(rows * cols == net.num_nodes(),
          "add_grid: rows*cols must equal node count");
  auto id = [cols](std::uint32_t r, std::uint32_t c) { return r * cols + c; };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        net.add_edge(id(r, c), id(r, c + 1));
        net.add_edge(id(r, c + 1), id(r, c));
      }
      if (r + 1 < rows) {
        net.add_edge(id(r, c), id(r + 1, c));
        net.add_edge(id(r + 1, c), id(r, c));
      }
    }
  }
}

void add_binary_tree(Network& net) {
  for (NodeId v = 1; v < net.num_nodes(); ++v) {
    const NodeId parent = (v - 1) / 2;
    net.add_edge(v, parent);
    net.add_edge(parent, v);
  }
}

}  // namespace duti
