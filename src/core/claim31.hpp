// Claim 3.1: the q-fold product of nu_z has the sparse character expansion
//
//   nu_z^q(x, s) = (1/n^q) sum_{S subseteq [q]} eps^{|S|} chi_S(s)
//                                                 prod_{j in S} z(x_j).
//
// Both sides are computable; tests verify they agree exactly on every tuple.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sample_tuple.hpp"
#include "dist/nu_z.hpp"

namespace duti {

/// Direct product: prod_j (1 + s_j z(x_j) eps) / n.
[[nodiscard]] double nu_zq_pmf_direct(const SampleTupleCodec& codec,
                                      const NuZ& nu, std::uint64_t packed);

/// nu_zq_pmf_direct for every tuple of one (codec, nu), from a table of the
/// 2^(ell+1) element masses built once: the same factors multiplied in the
/// same j order, so every value has the same bits. The exact passes over
/// all tuples build one per perturbation vector z.
class NuZqPmf {
 public:
  /// Throws InvalidArgument when codec and nu have different ell.
  NuZqPmf(const SampleTupleCodec& codec, const NuZ& nu);

  [[nodiscard]] double operator()(std::uint64_t packed) const noexcept {
    double p = 1.0;
    for (unsigned j = 0; j < codec_.q(); ++j) {
      p *= element_pmf_[codec_.element(packed, j)];
    }
    return p;
  }

 private:
  SampleTupleCodec codec_;
  std::vector<double> element_pmf_;  // nu.pmf(e) for every element e
};

/// Character expansion of Claim 3.1, summed over all 2^q subsets S.
[[nodiscard]] double nu_zq_pmf_expansion(const SampleTupleCodec& codec,
                                         const NuZ& nu, std::uint64_t packed);

}  // namespace duti
