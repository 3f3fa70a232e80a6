#include "fourier/evenly_covered.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

namespace {

// Multiplicities of the values {x[j] : bit j of s_mask set}: gathers them
// (only positions below 64 can be in the mask), sorts, and writes each
// run's length to `runs` in ascending value order. Returns the run count.
// The gathered sets are small in the moment sweeps (q <= 10), where
// std::sort's dispatch overhead dominates — insertion sort wins below ~16
// elements (measured by BM_IsEvenlyCovered in bench/micro_substrate) and
// produces the same ordering.
std::size_t value_multiplicities(std::span<const std::uint64_t> x,
                                 std::uint64_t s_mask, unsigned (&runs)[64]) {
  std::uint64_t scratch[64];
  std::size_t count = 0;
  const std::size_t positions = std::min<std::size_t>(x.size(), 64);
  for (std::size_t j = 0; j < positions; ++j) {
    if ((s_mask >> j) & 1ULL) scratch[count++] = x[j];
  }
  if (count <= 16) {
    for (std::size_t i = 1; i < count; ++i) {
      const std::uint64_t v = scratch[i];
      std::size_t j = i;
      while (j > 0 && scratch[j - 1] > v) {
        scratch[j] = scratch[j - 1];
        --j;
      }
      scratch[j] = v;
    }
  } else {
    std::sort(scratch, scratch + count);
  }
  std::size_t n_runs = 0;
  for (std::size_t i = 0; i < count;) {
    unsigned run = 1;
    while (i + run < count && scratch[i + run] == scratch[i]) ++run;
    runs[n_runs++] = run;
    i += run;
  }
  return n_runs;
}

// kPascal[c][k] = C(c, k) for c <= 63; the largest entry, C(63, 31), is
// below 2^63.
constexpr auto kPascal = [] {
  std::array<std::array<std::uint64_t, 64>, 64> t{};
  for (std::size_t c = 0; c < 64; ++c) {
    t[c][0] = 1;
    for (std::size_t k = 1; k <= c; ++k) {
      t[c][k] = t[c - 1][k - 1] + t[c - 1][k];
    }
  }
  return t;
}();

// Trials per chunk of a_r_moment_mc: E7's 100 000-trial rows run as 25
// chunks.
constexpr std::size_t kMomentGrain = 4096;

// True when every partial sum of `trials` terms a_r(x)^m over q <= 63
// samples is an integer below 2^53, so a double holds it exactly: each term
// is at most C(q, 2r)^m (E7's largest Monte-Carlo row gives
// 210^3 * 10^5 ~ 9.3e11).
bool moment_sums_exact(unsigned q, unsigned r, unsigned m,
                       std::size_t trials) {
  constexpr std::uint64_t kExactMax = (1ULL << 53) - 1;
  if (2 * r > q) return true;  // every term is 0
  std::uint64_t cap = trials;
  for (unsigned i = 0; i < m; ++i) {
    if (cap > kExactMax / kPascal[q][2 * r]) return false;
    cap *= kPascal[q][2 * r];
  }
  return cap <= kExactMax;
}

// a_r from the value multiplicities c_v of a tuple of q <= 63 samples
// (2r <= q): an evenly covered 2r-subset takes an even number j_v of the
// c_v positions holding each value v, so a_r is the coefficient of t^{2r}
// in prod_v sum_{j even} C(c_v, j) t^j. poly[d] holds the coefficient of
// t^{2d}; it counts the evenly covered 2d-subsets of the positions
// multiplied in so far, so every partial sum stays below C(63, 2d) < 2^63.
std::uint64_t a_r_from_multiplicities(std::span<const unsigned> mult,
                                      unsigned r) {
  std::uint64_t poly[32] = {1};
  for (const unsigned c : mult) {
    for (unsigned d = r; d >= 1; --d) {  // in place, highest degree first
      for (unsigned i = 1; i <= std::min(d, c / 2); ++i) {
        poly[d] += poly[d - i] * kPascal[c][2 * i];
      }
    }
  }
  return poly[r];
}

// a_r(x) depends on x only through its multiplicity type, the partition of
// q that its value counts c_v form, so a_r_moment_mc computes a_r once per
// type it meets. With K(0) = 0 and K(c) = (q+1)^(c-1), the key
// sum_v K(c_v) writes the type's part counts as base-(q+1) digits, each at
// most q: two tuples share a key exactly when they share a type. The
// largest key, (q+1)^(q-1) for one value drawn q times, fits 64 bits while
// q <= kTypedMaxSamples; the value counts fit a histogram of kTypedMaxSide
// cells. Past either limit the loop computes a_r per tuple.
constexpr unsigned kTypedMaxSamples = 16;
constexpr std::uint64_t kTypedMaxSide = 64;

// steps[c] = K(c+1) - K(c): the key's increment when a value's count goes
// from c to c + 1 <= q (q <= kTypedMaxSamples).
using TypeKeySteps = std::array<std::uint64_t, kTypedMaxSamples>;
TypeKeySteps type_key_steps(unsigned q) {
  TypeKeySteps steps{};
  std::uint64_t k_c = 0;  // K(c)
  for (unsigned c = 0; c < q; ++c) {
    const std::uint64_t k_next = c == 0 ? 1 : k_c * (q + 1);
    steps[c] = k_next - k_c;
    k_c = k_next;
  }
  return steps;
}

// a_r(x)^m of each type a chunk meets, keyed by type key in an open-address
// table: at most p(16) = 231 types can fill its 512 slots.
class TypeTerms {
 public:
  TypeTerms(unsigned q, unsigned r, unsigned m) : q_(q), r_(r), m_(m) {
    keys_.fill(kEmpty);
  }

  // The term of the type with key `key`, whose value counts are the
  // nonzero cells of `counts`. a_r is a product of integer polynomials, so
  // the order in which the counts come out does not change it.
  double term(std::uint64_t key, std::span<const std::uint8_t> counts) {
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits);
    while (keys_[slot] != key) {
      if (keys_[slot] == kEmpty) return insert(slot, key, counts);
      slot = (slot + 1) % kSlots;
    }
    return terms_[slot];
  }

 private:
  static constexpr unsigned kSlotBits = 9;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::uint64_t kEmpty = ~0ULL;  // above every key

  double insert(std::size_t slot, std::uint64_t key,
                std::span<const std::uint8_t> counts) {
    unsigned mult[kTypedMaxSide] = {};
    std::size_t n_mult = 0;
    for (const std::uint8_t c : counts) {
      if (c != 0) mult[n_mult++] = c;
    }
    const std::uint64_t a =
        r_ > q_ / 2 ? 0 : a_r_from_multiplicities({mult, n_mult}, r_);
    keys_[slot] = key;
    terms_[slot] = dpow_int(static_cast<double>(a), m_);
    return terms_[slot];
  }

  unsigned q_, r_, m_;
  std::array<std::uint64_t, kSlots> keys_;
  std::array<double, kSlots> terms_{};
};

// Sum of a_r(x)^m over `trials` tuples of q <= kTypedMaxSamples values
// drawn by `draw` below side <= kTypedMaxSide, in draw order. Each draw
// bumps its value's count and adds the key's step; the term comes from the
// chunk's type table.
template <typename Draw>
double moment_sum_by_type(Draw draw, const TypeKeySteps& steps, unsigned q,
                          unsigned r, unsigned m, std::size_t trials,
                          Rng& stream) {
  TypeTerms terms(q, r, m);
  std::array<std::uint8_t, kTypedMaxSide> counts{};
  return with_register_copy(stream, [&](Rng& local) {
    double sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      std::uint64_t key = 0;
      for (unsigned j = 0; j < q; ++j) key += steps[counts[draw(local)]++];
      sum += terms.term(key, counts);
      counts.fill(0);
    }
    return sum;
  });
}

// The same sum for any q <= 63 and alphabet: a_r per tuple.
template <typename Draw>
double moment_sum_by_tuple(Draw draw, unsigned q, unsigned r, unsigned m,
                           std::size_t trials, Rng& stream) {
  std::vector<std::uint64_t> x(q);
  return with_register_copy(stream, [&](Rng& local) {
    double sum = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      for (auto& xi : x) xi = draw(local);
      sum += dpow_int(static_cast<double>(a_r(x, r)), m);
    }
    return sum;
  });
}

// Calls visit(parts) for each partition of `left` into at most `max_parts`
// more parts, each at most `max_part`, appended to parts[0..n) in
// non-increasing order.
template <typename Visit>
void for_each_partition(unsigned left, unsigned max_part, unsigned max_parts,
                        unsigned (&parts)[64], unsigned n, Visit& visit) {
  if (left == 0) {
    visit(std::span<const unsigned>(parts, n));
    return;
  }
  if (max_parts == 0) return;
  for (unsigned p = std::min(left, max_part); p >= 1; --p) {
    parts[n] = p;
    for_each_partition(left - p, p, max_parts - 1, parts, n + 1, visit);
  }
}

}  // namespace

bool is_evenly_covered(std::span<const std::uint64_t> x,
                       std::uint64_t s_mask) {
  unsigned runs[64];
  const std::size_t n_runs = value_multiplicities(x, s_mask, runs);
  return std::all_of(runs, runs + n_runs,
                     [](unsigned run) { return run % 2 == 0; });
}

namespace {
// log(exp(a) + exp(b)) without overflow; identities with -inf hold.
double log_add_exp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double hi = std::max(a, b);
  return hi + std::log1p(std::exp(std::min(a, b) - hi));
}
}  // namespace

double count_even_sequences(std::uint64_t alphabet, unsigned m) {
  require(alphabet >= 1, "count_even_sequences: alphabet must be non-empty");
  if (m % 2 != 0) return 0.0;
  // DP over sequence positions; state = number of letters seen an odd
  // number of times so far. From state j, appending one of the j "odd"
  // letters moves to j-1; appending one of the (alphabet - j) "even"
  // letters moves to j+1. Sequences are counted exactly because each
  // transition chooses a concrete letter. Counts are accumulated in 128-bit
  // integers, so the only rounding is the final conversion to double; if
  // any intermediate would overflow 128 bits, the whole DP restarts in
  // log-space (count_even_sequences_log).
  std::vector<__uint128_t> ways(m + 1, 0);
  std::vector<__uint128_t> next(m + 1, 0);
  ways[0] = 1;
  for (unsigned pos = 0; pos < m; ++pos) {
    std::fill(next.begin(), next.end(), __uint128_t{0});
    for (unsigned j = 0; j <= std::min(pos, m); ++j) {
      if (ways[j] == 0) continue;
      __uint128_t term = 0;
      if (j >= 1) {
        if (__builtin_mul_overflow(ways[j], static_cast<__uint128_t>(j),
                                   &term) ||
            __builtin_add_overflow(next[j - 1], term, &next[j - 1])) {
          return std::exp(count_even_sequences_log(alphabet, m));
        }
      }
      if (j + 1 <= m && j < alphabet) {
        if (__builtin_mul_overflow(ways[j],
                                   static_cast<__uint128_t>(alphabet - j),
                                   &term) ||
            __builtin_add_overflow(next[j + 1], term, &next[j + 1])) {
          return std::exp(count_even_sequences_log(alphabet, m));
        }
      }
    }
    ways.swap(next);
  }
  return static_cast<double>(ways[0]);
}

double count_even_sequences_log(std::uint64_t alphabet, unsigned m) {
  require(alphabet >= 1,
          "count_even_sequences_log: alphabet must be non-empty");
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  if (m % 2 != 0) return kNegInf;
  // Same DP in log-space: exact counting gives way to one log-sum-exp
  // rounding per transition, but any alphabet/length fits in a double's
  // exponent range.
  std::vector<double> ways(m + 1, kNegInf);
  std::vector<double> next(m + 1, kNegInf);
  ways[0] = 0.0;
  for (unsigned pos = 0; pos < m; ++pos) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (unsigned j = 0; j <= std::min(pos, m); ++j) {
      if (ways[j] == kNegInf) continue;
      if (j >= 1) {
        next[j - 1] =
            log_add_exp(next[j - 1], ways[j] + std::log(static_cast<double>(j)));
      }
      if (j + 1 <= m && j < alphabet) {
        next[j + 1] = log_add_exp(
            next[j + 1],
            ways[j] + std::log(static_cast<double>(alphabet - j)));
      }
    }
    ways.swap(next);
  }
  return ways[0];
}

double count_x_s(unsigned ell, unsigned q, unsigned s_size) {
  require(s_size <= q, "count_x_s: |S| cannot exceed q");
  require(ell < 64, "count_x_s: ell must be below 64");
  const double side = std::ldexp(1.0, static_cast<int>(ell));  // 2^ell
  const double even = count_even_sequences(1ULL << ell, s_size);
  return even * std::pow(side, static_cast<double>(q - s_size));
}

// duti-lint: allow(orphan-function) -- the brute-force reference that
// tests/test_evenly_covered.cpp checks count_x_s against
double count_x_s_brute(unsigned ell, unsigned q, std::uint64_t s_mask) {
  require(q >= 1 && q <= 63, "count_x_s_brute: q in [1,63]");
  require(s_mask < (1ULL << q), "count_x_s_brute: mask out of range");
  require(ell < 64, "count_x_s_brute: ell must be below 64");
  const std::uint64_t side = 1ULL << ell;
  double total_tuples = std::pow(static_cast<double>(side),
                                 static_cast<double>(q));
  if (total_tuples > static_cast<double>(1ULL << 26)) {
    throw CapacityError("count_x_s_brute: enumeration too large");
  }
  const auto total = static_cast<std::uint64_t>(total_tuples);
  std::vector<std::uint64_t> x(q);
  double count = 0.0;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rest = idx;
    for (unsigned j = 0; j < q; ++j) {
      x[j] = rest % side;
      rest /= side;
    }
    if (is_evenly_covered(x, s_mask)) count += 1.0;
  }
  return count;
}

double prop52_bound(unsigned ell, unsigned q, unsigned s_size) {
  require(s_size <= q, "prop52_bound: |S| cannot exceed q");
  if (s_size % 2 != 0) return 0.0;
  const double side = std::ldexp(1.0, static_cast<int>(ell));  // n/2
  const double df = std::exp(log_double_factorial(static_cast<int>(s_size) - 1));
  return df * std::pow(side, static_cast<double>(q) -
                                 static_cast<double>(s_size) / 2.0);
}

std::uint64_t lowest_mask(unsigned bits) {
  return bits == 0 ? 0 : (bits >= 64 ? ~0ULL : (1ULL << bits) - 1);
}

std::uint64_t next_same_popcount(std::uint64_t mask) {
  if (mask == 0) return 0;
  const std::uint64_t c = mask & (~mask + 1);  // lowest set bit
  const std::uint64_t r = mask + c;
  if (r == 0) return 0;  // overflowed past the top
  return (((r ^ mask) >> 2) / c) | r;
}

std::uint64_t a_r(std::span<const std::uint64_t> x, unsigned r) {
  require(x.size() <= 63, "a_r: at most 63 samples");
  const auto q = static_cast<unsigned>(x.size());
  if (r > q / 2) return 0;
  unsigned runs[64];
  const std::size_t n_runs = value_multiplicities(x, lowest_mask(q), runs);
  return a_r_from_multiplicities({runs, n_runs}, r);  // r = 0: just S = {}
}

double a_r_moment_exact(unsigned ell, unsigned q, unsigned r, unsigned m) {
  require(m >= 1, "a_r_moment_exact: m must be >= 1");
  require(ell < 64, "a_r_moment_exact: ell must be below 64");
  const std::uint64_t side = 1ULL << ell;
  const double total_tuples = std::pow(static_cast<double>(side),
                                       static_cast<double>(q));
  if (total_tuples > static_cast<double>(1ULL << 26)) {
    throw CapacityError("a_r_moment_exact: enumeration too large");
  }
  require(q <= 63, "a_r_moment_exact: at most 63 samples");
  if (r > q / 2) return 0.0;
  // a_r(x) depends on x only through its value multiplicities, so sum over
  // their shapes: the partitions of q into at most `side` parts, each
  // weighted by the number of tuples having it. That weight is the ways to
  // split the positions, C(q; parts), times the ways to give the parts
  // distinct values, C(side, k_1) C(side - k_1, k_2) ... over the groups of
  // k_i equal parts. Every partial product is at most the weight, itself at
  // most (2^ell)^q <= 2^26. binomial() takes an int, and side fits one
  // whenever a shape has parts: q >= 1 then forces side <= 2^26.
  double acc = 0.0;
  auto visit = [&](std::span<const unsigned> parts) {
    std::uint64_t tuples = 1;
    unsigned positions = q;
    std::uint64_t values = side;
    for (std::size_t i = 0; i < parts.size();) {
      std::size_t k = 1;
      while (i + k < parts.size() && parts[i + k] == parts[i]) ++k;
      tuples *= binomial(static_cast<int>(values), static_cast<int>(k));
      values -= k;
      for (std::size_t j = i; j < i + k; ++j) {
        tuples *= kPascal[positions][parts[j]];
        positions -= parts[j];
      }
      i += k;
    }
    acc += static_cast<double>(tuples) *
           dpow_int(static_cast<double>(a_r_from_multiplicities(parts, r)), m);
  };
  const auto max_parts =
      static_cast<unsigned>(std::min<std::uint64_t>(side, q));
  unsigned parts[64];
  for_each_partition(q, q, max_parts, parts, 0, visit);
  return acc / total_tuples;
}

double a_r_moment_mc(unsigned ell, unsigned q, unsigned r, unsigned m,
                     std::size_t trials, Rng& rng, ThreadPool& pool) {
  require(trials >= 1, "a_r_moment_mc: need at least one trial");
  require(ell < 64, "a_r_moment_mc: ell must be below 64");
  require(q <= 63, "a_r_moment_mc: at most 63 samples");
  const std::uint64_t side = 1ULL << ell;
  // Folding per-chunk sums in chunk order equals the serial fold bit for
  // bit while every partial sum is an exact integer; past that the loop
  // runs as one chunk, which is the serial fold.
  const std::size_t grain =
      moment_sums_exact(q, r, m, trials) ? kMomentGrain : trials;
  std::vector<double> partial((trials + grain - 1) / grain);
  const bool by_type = side <= kTypedMaxSide && q <= kTypedMaxSamples;
  const TypeKeySteps steps = by_type ? type_key_steps(q) : TypeKeySteps{};
  // The alphabet 2^ell is a power of two, so every draw is one raw output,
  // taken with one shift from ell = 1 on.
  with_index_draw(side, [&](const auto draw) {
    parallel_for_stream(
        pool, trials, grain, q, rng,
        [&](std::size_t begin, std::size_t end, Rng& stream) {
          partial[begin / grain] =
              by_type ? moment_sum_by_type(draw, steps, q, r, m, end - begin,
                                           stream)
                      : moment_sum_by_tuple(draw, q, r, m, end - begin,
                                            stream);
        });
  });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc / static_cast<double>(trials);
}

double lemma55_log_bound(unsigned ell, unsigned q, unsigned r, unsigned m) {
  require(m >= 1 && r >= 1, "lemma55_log_bound: m, r must be >= 1");
  const double half_n = std::ldexp(1.0, static_cast<int>(ell));  // n/2
  const double ratio = static_cast<double>(q) / std::sqrt(half_n);
  const double log_4m = std::log(4.0 * static_cast<double>(m));
  const double mr2 = 2.0 * static_cast<double>(m) * static_cast<double>(r);
  if (ratio >= 1.0) {
    return mr2 * log_4m + mr2 * std::log(ratio);
  }
  return mr2 * log_4m + 2.0 * static_cast<double>(r) * std::log(ratio);
}

}  // namespace duti
