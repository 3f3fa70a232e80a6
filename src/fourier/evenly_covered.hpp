// The "evenly covered" combinatorics at the heart of the lower bound
// (Section 5): for a sample tuple x = (x_1,...,x_q) of cube points and an
// index set S, the multiset {x_j : j in S} is *evenly covered* when every
// value appears an even number of times. Only evenly-covered (x, S) pairs
// contribute to E_z[nu_z(G)] - mu(G) (the "odd cancelation").
//
// This header provides:
//   * the predicate itself,
//   * |X_S| = #{x : x_S evenly covered}, exactly (DP) and brute-force,
//   * the Proposition 5.2 upper bound (|S|-1)!! (n/2)^{q-|S|/2},
//   * a_r(x) = #{S : |S| = 2r, x_S evenly covered} and its moments,
//   * the Lemma 5.5 moment upper bounds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace duti {

/// True iff every value among {x[j] : bit j of s_mask set} appears an even
/// number of times. s_mask = 0 is vacuously evenly covered; positions from
/// 64 on are never in the mask.
[[nodiscard]] bool is_evenly_covered(std::span<const std::uint64_t> x,
                                     std::uint64_t s_mask);

/// Number of sequences of length m over an alphabet of size `alphabet` in
/// which every letter appears an even number of times. The DP accumulates
/// in 128-bit integers, so the returned double is the correctly-rounded
/// exact count whenever it fits 128 bits; past that the computation falls
/// back to log-space (one rounding per transition) and may return inf only
/// when the count exceeds double range.
[[nodiscard]] double count_even_sequences(std::uint64_t alphabet, unsigned m);

/// Natural log of the same count, computed in log-space throughout
/// (-inf for odd m, where the count is zero). Usable at alphabet/length
/// combinations whose counts overflow any fixed-width integer.
[[nodiscard]] double count_even_sequences_log(std::uint64_t alphabet,
                                              unsigned m);

/// |X_S| for |S| = s_size on domain side 2^ell with q samples:
/// count_even_sequences(2^ell, s_size) * (2^ell)^(q - s_size).
/// Depends only on |S| (Prop 5.2(1)). Throws InvalidArgument for ell >= 64.
[[nodiscard]] double count_x_s(unsigned ell, unsigned q, unsigned s_size);

/// Brute-force |X_S| by enumerating all (2^ell)^q tuples; for tests.
/// Throws InvalidArgument for ell >= 64 and CapacityError when the
/// enumeration exceeds 2^26 tuples.
[[nodiscard]] double count_x_s_brute(unsigned ell, unsigned q,
                                     std::uint64_t s_mask);

/// Proposition 5.2(2) upper bound: (s-1)!! * (n/2)^{q - s/2}, where s=|S|
/// (0 when s is odd, since no x is evenly covered then). n = 2^{ell+1}.
[[nodiscard]] double prop52_bound(unsigned ell, unsigned q, unsigned s_size);

/// a_r(x): number of S with |S| = 2r such that x_S is evenly covered, for
/// at most 63 samples. Computed from the multiplicities c_v of x's values
/// as the coefficient of t^{2r} in prod_v sum_{j even} C(c_v, j) t^j.
[[nodiscard]] std::uint64_t a_r(std::span<const std::uint64_t> x, unsigned r);

/// Exact m-th moment E_x[a_r(x)^m] over uniform tuples x in (2^ell)^q.
/// Sums over multiplicity shapes (partitions of q into at most 2^ell
/// parts, each weighted by its tuple count) instead of over tuples. When
/// sum_x a_r(x)^m < 2^53 every term and partial sum is an exact integer,
/// so the result is bit-identical to the tuple-by-tuple sum in any order;
/// every E7 row qualifies (the largest, ell=2 q=10 r=2 m=3, sums to
/// 5.75e10). Throws InvalidArgument for ell >= 64 and CapacityError beyond
/// 2^26 tuples.
[[nodiscard]] double a_r_moment_exact(unsigned ell, unsigned q, unsigned r,
                                      unsigned m);

/// Monte-Carlo estimate of E_x[a_r(x)^m] from `trials` uniform tuples,
/// run on `pool` (parallel_for_stream): bit-identical to the serial fold
/// over one stream at any thread count, with `rng` left where that fold
/// leaves it. Throws InvalidArgument for ell >= 64 or q > 63, before
/// drawing from `rng`.
[[nodiscard]] double a_r_moment_mc(unsigned ell, unsigned q, unsigned r,
                                   unsigned m, std::size_t trials, Rng& rng,
                                   ThreadPool& pool = ThreadPool::global());

/// Lemma 5.5 upper bound on E_x[a_r(x)^m] (log-space to avoid overflow):
/// returns log of (4m)^{2mr} (q/sqrt(n/2))^{2mr}   when q >= sqrt(n/2),
///         log of (4m)^{2mr} (q/sqrt(n/2))^{2r}    when q <  sqrt(n/2).
[[nodiscard]] double lemma55_log_bound(unsigned ell, unsigned q, unsigned r,
                                       unsigned m);

/// Iterate all q-bit masks with exactly `bits` bits set (Gosper's hack).
/// Returns the next mask after `mask`, or 0 when exhausted (mask with all
/// high bits). Initialize with lowest_mask(bits).
[[nodiscard]] std::uint64_t lowest_mask(unsigned bits);
[[nodiscard]] std::uint64_t next_same_popcount(std::uint64_t mask);

}  // namespace duti
