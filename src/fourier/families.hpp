// Standard Boolean function families, used as test subjects for the Fourier
// machinery and as concrete player message functions G in the lemma benches
// (a highly-biased AND-like G exercises Lemma 4.3; majority/threshold
// exercise Lemma 4.2's variance dependence).
#pragma once

#include <cstdint>

#include "fourier/boolean_function.hpp"
#include "util/rng.hpp"

namespace duti::fn {

/// Constant function c on m variables.
[[nodiscard]] BooleanCubeFunction constant(unsigned m, double c);

/// Parity of the coordinates in `s_mask`, as a {0,1} value (1 when an odd
/// number of the masked coordinates are -1).
[[nodiscard]] BooleanCubeFunction parity(unsigned m, std::uint64_t s_mask);

/// AND of all variables in `s_mask` (1 iff all masked coordinates are -1):
/// mean 2^{-|mask|}, the canonical highly-biased function.
[[nodiscard]] BooleanCubeFunction and_of(unsigned m, std::uint64_t s_mask);

/// Majority over all m coordinates (m odd); 1 when more than half are -1.
[[nodiscard]] BooleanCubeFunction majority(unsigned m);

/// Threshold: 1 iff at least t of the m coordinates are -1.
[[nodiscard]] BooleanCubeFunction threshold_at_least(unsigned m, unsigned t);

/// Tribes with `tribe_size`-wide tribes (m divisible by tribe_size):
/// OR of ANDs, the canonical "sharp threshold" function.
[[nodiscard]] BooleanCubeFunction tribes(unsigned m, unsigned tribe_size);

/// Each point independently 1 with probability p.
[[nodiscard]] BooleanCubeFunction random_boolean(unsigned m, double p,
                                                 Rng& rng);

/// Random real-valued function with values uniform in [lo, hi].
[[nodiscard]] BooleanCubeFunction random_real(unsigned m, double lo,
                                              double hi, Rng& rng);

}  // namespace duti::fn
