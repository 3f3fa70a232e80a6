// The double-coin alias table, built the classic way: Vose's construction
// with explicit small/large worklists and a scaled copy, as AliasSampler
// built it before its cursors and its integer coins. tests/test_paninski.cpp
// pins AliasSampler's tables against it, and tests/test_workloads.cpp draws
// through it with the `next_double() < p` coin.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace duti::vose_reference {

struct WorklistTable {
  std::vector<double> prob;
  std::vector<std::uint64_t> alias;
};

inline WorklistTable worklist_table(const std::vector<double>& weights) {
  double total = 0.0;
  for (const double w : weights) total += w;
  const std::size_t n = weights.size();
  WorklistTable t{std::vector<double>(n, 0.0),
                  std::vector<std::uint64_t>(n, 0)};
  std::vector<double> scaled(n);
  const double scale = static_cast<double>(n) / total;
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;
  std::vector<std::uint64_t> small;
  std::vector<std::uint64_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::uint64_t s = small.back();
    small.pop_back();
    const std::uint64_t l = large.back();
    t.prob[s] = scaled[s];
    t.alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint64_t l : large) {
    t.prob[l] = 1.0;
    t.alias[l] = l;
  }
  for (const std::uint64_t s : small) {
    t.prob[s] = 1.0;
    t.alias[s] = s;
  }
  return t;
}

/// ⌈p·2^53⌉ for each acceptance probability: the integer coin threshold
/// AliasSampler must hold for that column (Rng::coin_threshold), here
/// through std::ceil.
inline std::vector<std::uint64_t> ceil_thresholds(
    const std::vector<double>& prob) {
  std::vector<std::uint64_t> out;
  out.reserve(prob.size());
  for (const double p : prob) {
    out.push_back(static_cast<std::uint64_t>(std::ceil(p * 0x1p53)));
  }
  return out;
}

}  // namespace duti::vose_reference
