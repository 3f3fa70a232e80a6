#include "testers/tree_tester.hpp"

#include <span>

#include "testers/calibration.hpp"
#include "testers/collision.hpp"
#include "util/error.hpp"

namespace duti {

TreeTestResult tree_uniformity_test(Network& net, const SpanningTree& tree,
                                    const SampleSource& source, unsigned q,
                                    double local_threshold,
                                    std::uint64_t referee_t, Rng& rng) {
  require(q >= 2, "tree_uniformity_test: q must be >= 2");
  // Every node (including the root, which also holds samples) votes.
  std::vector<std::uint64_t> votes(net.num_nodes(), 0);
  // Nothing reads a node's stream after its vote, so its pair count stops
  // once the vote is decided.
  const std::uint64_t decided_above =
      collision_vote_decided_above(local_threshold);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    Rng node_rng = make_rng(rng(), v);
    const std::uint64_t pairs = source.count_pairs(node_rng, q, decided_above);
    votes[v] = static_cast<double>(pairs) > local_threshold ? 1 : 0;
  }
  // Reject-vote partial sums fit in ceil(log2(k+1)) bits per message.
  std::uint64_t bits = 1;
  while ((1ULL << bits) < net.num_nodes() + 1) ++bits;
  const auto cast = convergecast_sum(net, tree, votes, bits, rng);
  TreeTestResult result;
  result.reject_votes = cast.root_sum;
  result.accept = cast.root_sum < referee_t;
  result.stats = cast.stats;
  return result;
}

TreeUniformityTester::TreeUniformityTester(Network& net, NodeId root,
                                           Config cfg, Rng& calib_rng,
                                           std::size_t calib_trials)
    : net_(&net), tree_(bfs_spanning_tree(net, root)), cfg_(cfg) {
  require(cfg_.n >= 2, "TreeUniformityTester: n must be >= 2");
  require(cfg_.q >= 2, "TreeUniformityTester: q must be >= 2");
  require(cfg_.eps > 0.0 && cfg_.eps <= 1.0,
          "TreeUniformityTester: eps in (0,1]");
  local_t_ = expected_collision_pairs_uniform(static_cast<double>(cfg_.n),
                                              cfg_.q);
  // Every node votes, so the referee is calibrated for num_nodes players.
  const std::uint32_t k = net.num_nodes();
  const double p_u = uniform_reject_rates(
      cfg_.n, std::span(&cfg_.q, 1), calibration_trials(calib_trials, k),
      calib_rng)[0];
  referee_t_ = calibrated_referee_threshold(k, p_u);
}

TreeTestResult TreeUniformityTester::run_epoch(const SampleSource& source,
                                               Rng& rng) const {
  require(source.domain_size() == cfg_.n,
          "TreeUniformityTester: domain size mismatch");
  return tree_uniformity_test(*net_, tree_, source, cfg_.q, local_t_,
                              referee_t_, rng);
}

}  // namespace duti
