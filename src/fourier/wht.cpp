#include "fourier/wht.hpp"

#include "util/bits.hpp"
#include "util/error.hpp"

namespace duti {

void wht_inplace(std::span<double> data) {
  const std::size_t n = data.size();
  require(n > 0 && is_pow2(n), "wht_inplace: size must be a power of two");
  // Stage-by-stage butterflies: stage `len` folds pairs (i, i + len).
  for (std::size_t len = 1; len < n; len <<= 1) {
    for (std::size_t base = 0; base < n; base += len << 1) {
      for (std::size_t i = base; i < base + len; ++i) {
        const double a = data[i];
        const double b = data[i + len];
        data[i] = a + b;
        data[i + len] = a - b;
      }
    }
  }
}

void wht_normalized(std::span<double> data) {
  wht_inplace(data);
  const double inv = 1.0 / static_cast<double>(data.size());
  for (double& v : data) v *= inv;
}

}  // namespace duti
