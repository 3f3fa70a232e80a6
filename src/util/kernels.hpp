// The vectorized compute-kernel layer (DESIGN.md section 11): one
// runtime-dispatched entry point per hot loop, each with a scalar reference
// twin. Contract: for identical inputs (including RNG state), the
// dispatched kernel and its `_scalar` twin produce bit-identical outputs
// and leave the RNG in the same state, at every SimdLevel — SIMD here is a
// pure reassociation-free speedup, never a numerical variant. The
// equivalence suite (tests/test_kernels.cpp) enforces this across levels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace duti::kernels {

/// In-place unnormalized Walsh-Hadamard transform; data.size() must be a
/// power of two (callers validate). Dispatched: cache-blocked radix-4
/// butterflies; bit-identical to wht_scalar by construction (the fused
/// stages perform exactly the scalar additions, in the scalar order).
void wht(std::span<double> data);

/// Reference: the textbook stage-by-stage butterfly loop.
void wht_scalar(std::span<double> data);

/// Sum over cells of c*(c-1)/2 (wrapping u64 arithmetic, same as scalar).
[[nodiscard]] std::uint64_t collision_pairs_from_counts(
    std::span<const std::uint64_t> counts);
[[nodiscard]] std::uint64_t collision_pairs_from_counts_scalar(
    std::span<const std::uint64_t> counts);

/// Number of cells with a nonzero count.
[[nodiscard]] std::uint64_t distinct_from_counts(
    std::span<const std::uint64_t> counts);
[[nodiscard]] std::uint64_t distinct_from_counts_scalar(
    std::span<const std::uint64_t> counts);

/// Elementwise acc[i] += addend[i]; spans must have equal size. The chunk-
/// reduction primitive of the probe engine.
void add_u64(std::span<std::uint64_t> acc,
             std::span<const std::uint64_t> addend);
void add_u64_scalar(std::span<std::uint64_t> acc,
                    std::span<const std::uint64_t> addend);

/// Batched nu_z sampling over the cube {0,1}^ell with perturbation sign
/// bits `zwords` (bit x set means z(x) = -1, as in PerturbationVector):
/// each sample consumes exactly two raw draws (x, then the Bernoulli
/// uniform), in sample order — identical stream to repeated NuZ::sample.
/// Requires 1 <= ell <= 30 and zwords covering 2^ell bits.
void nuz_sample_many(Rng& rng, std::span<const std::uint64_t> zwords,
                     unsigned ell, double eps, std::span<std::uint64_t> out);
void nuz_sample_many_scalar(Rng& rng, std::span<const std::uint64_t> zwords,
                            unsigned ell, double eps,
                            std::span<std::uint64_t> out);

}  // namespace duti::kernels
