// Canonical source factories shared by the benches and integration tests:
// the uniform null, the random-Paninski far ensemble (flat domain) and the
// structured NuZ far ensemble (cube domain).
#pragma once

#include <cstdint>
#include <memory>

#include "stats/harness.hpp"

namespace duti::workloads {

/// UniformSource on {0,...,n-1}. Trial-invariant: a probe builds it once
/// and every worker reads it, instead of building one per trial.
[[nodiscard]] SourceSpec uniform_factory(std::uint64_t n);

/// Fresh eps-far Paninski distribution with random pair signs per trial
/// (n even). This is the flat-domain version of the paper's hard mixture.
/// Returns a PaninskiSource: no pmf, the alias table built in the factory.
[[nodiscard]] SourceSpec paninski_far_factory(std::uint64_t n, double eps);

/// Fresh nu_z with a uniformly random perturbation vector per trial
/// (universe size 2^{ell+1}); sampling is O(1) per draw, so this scales to
/// large universes.
[[nodiscard]] SourceSpec nu_z_far_factory(unsigned ell, double eps);

}  // namespace duti::workloads
