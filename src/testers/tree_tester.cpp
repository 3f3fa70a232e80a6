#include "testers/tree_tester.hpp"

#include <vector>

#include "util/error.hpp"

namespace duti {

TreeUniformityTester::TreeUniformityTester(Network& net, NodeId root,
                                           Config cfg, Rng& calib_rng,
                                           std::size_t calib_trials)
    : net_(&net),
      tree_(bfs_spanning_tree(net, root)),
      players_({cfg.n, net.num_nodes(), cfg.q, cfg.eps}, calib_rng,
               calib_trials) {}

TreeTestResult TreeUniformityTester::run_epoch(const SampleSource& source,
                                               Rng& rng) const {
  require(source.domain_size() == players_.config().n,
          "TreeUniformityTester: domain size mismatch");
  const std::vector<Message>& messages =
      players_.executor().collect(source, rng);
  std::vector<std::uint64_t> votes(messages.size());
  for (std::size_t v = 0; v < votes.size(); ++v) {
    votes[v] = messages[v].as_bit() ? 0 : 1;  // 1 = reject
  }
  // Reject-vote partial sums fit in ceil(log2(k+1)) bits per message.
  std::uint64_t bits = 1;
  while ((1ULL << bits) < net_->num_nodes() + 1) ++bits;
  const auto cast = convergecast_sum(*net_, tree_, votes, bits, rng);
  TreeTestResult result;
  result.reject_votes = cast.root_sum;
  result.accept = cast.root_sum < referee_threshold();
  result.stats = cast.stats;
  return result;
}

}  // namespace duti
