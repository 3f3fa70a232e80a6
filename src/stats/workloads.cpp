#include "stats/workloads.hpp"

#include "dist/nu_z.hpp"
#include "dist/paninski.hpp"
#include "util/error.hpp"

namespace duti::workloads {

SourceSpec uniform_factory(std::uint64_t n) {
  require(n >= 1, "uniform_factory: n must be positive");
  return {[n](Rng& /*rng*/) -> std::unique_ptr<SampleSource> {
            return std::make_unique<UniformSource>(n);
          },
          /*trial_invariant=*/true};
}

SourceSpec paninski_far_factory(std::uint64_t n, double eps) {
  require(n >= 2 && n % 2 == 0, "paninski_far_factory: n must be even");
  require(eps > 0.0 && eps <= 1.0, "paninski_far_factory: eps in (0,1]");
  return {[n, eps](Rng& rng) -> std::unique_ptr<SampleSource> {
    return std::make_unique<PaninskiSource>(Paninski::random(n, eps, rng));
  }};
}

SourceSpec nu_z_far_factory(unsigned ell, double eps) {
  require(ell >= 1 && ell <= 30, "nu_z_far_factory: ell in [1,30]");
  require(eps > 0.0 && eps <= 1.0, "nu_z_far_factory: eps in (0,1]");
  return {[ell, eps](Rng& rng) -> std::unique_ptr<SampleSource> {
    auto z = PerturbationVector::random(ell, rng);
    return std::make_unique<NuZSource>(NuZ(CubeDomain(ell), std::move(z), eps));
  }};
}

}  // namespace duti::workloads
