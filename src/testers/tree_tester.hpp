// Distributed uniformity testing on multi-hop topologies: every node draws
// q samples, votes on its local collision count, and the votes are summed
// up a BFS spanning tree to a root that applies the threshold rule — the
// LOCAL/CONGEST-model realization of the referee protocols (the models [7]
// studies; the simultaneous-message model is the one-round star case).
// Cost: (tree height + 1) rounds, one O(log k)-bit message per node.
#pragma once

#include <cstdint>

#include "sim/convergecast.hpp"
#include "sim/sample_source.hpp"
#include "testers/distributed.hpp"
#include "util/rng.hpp"

namespace duti {

struct TreeTestResult {
  bool accept = true;
  std::uint64_t reject_votes = 0;
  NetworkStats stats;
};

/// The calibrated threshold tester on a network: a DistributedThresholdTester
/// with one player per node supplies the calibration and, on its protocol
/// plane, the votes; the votes convergecast to the root, which rejects iff
/// at least referee_threshold() rejections arrived.
class TreeUniformityTester {
 public:
  struct Config {
    std::uint64_t n = 0;
    unsigned q = 0;
    double eps = 0.0;
  };

  /// `net` must outlive the tester; `root` is the decision node.
  TreeUniformityTester(Network& net, NodeId root, Config cfg, Rng& calib_rng,
                       std::size_t calib_trials = 0 /* auto */);

  /// One epoch: every node (root included) votes on q samples from
  /// `source`, and the reject votes convergecast to the root.
  [[nodiscard]] TreeTestResult run_epoch(const SampleSource& source,
                                         Rng& rng) const;
  [[nodiscard]] bool run(const SampleSource& source, Rng& rng) const {
    return run_epoch(source, rng).accept;
  }

  [[nodiscard]] const SpanningTree& tree() const noexcept { return tree_; }
  [[nodiscard]] std::uint64_t referee_threshold() const noexcept {
    return players_.referee_threshold();
  }

 private:
  Network* net_;  // not owned
  SpanningTree tree_;
  DistributedThresholdTester players_;
};

}  // namespace duti
