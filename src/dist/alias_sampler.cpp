#include "dist/alias_sampler.hpp"

#include <cmath>

#include "util/error.hpp"

namespace duti {

namespace {

/// Vose's pairing, with the worklists left implicit. The classic build keeps
/// a stack of small (scaled weight < 1) and of large buckets, in index
/// order, and tops up the top small bucket from the top large one. A large
/// bucket demoted below 1 is pushed onto the small stack and popped on the
/// very next step, so each stack is a downward cursor over its class plus
/// one pending slot. `next_small(i, v, t)` and `next_large(i, v)` advance a
/// class's cursor to its next index below, with that column's scaled
/// weight (and, for a small column, its coin threshold
/// t = Rng::coin_threshold(v)), and return false (then and on every later
/// call) once the class is exhausted. The only weight that changes is the
/// current large bucket's, which lives in a register. A demoted bucket's
/// threshold is taken when it is topped up, and is the cursor's last one
/// when its weight is the cursor's last weight: on a Paninski table with
/// no rounding every demoted bucket holds the light weight L, since
/// (H + L) - 1 = 1 and (1 + L) - 1 = L, so no demotion converts.
template <typename NextSmall, typename NextLarge>
void vose(std::uint64_t* threshold, std::uint64_t* alias, NextSmall next_small,
          NextLarge next_large) {
  std::uint64_t s = 0;
  std::uint64_t l = 0;
  double sv = 0.0;
  std::uint64_t st = 0;
  double lv = 0.0;
  std::uint64_t pending = 0;
  double pending_v = 0.0;
  bool has_pending = false;
  double cursor_v = 0.0;
  std::uint64_t cursor_t = 0;  // Rng::coin_threshold(cursor_v)
  bool has_large = next_large(l, lv);
  while (has_large) {
    if (has_pending) {
      s = pending;
      sv = pending_v;
      st = sv == cursor_v ? cursor_t : Rng::coin_threshold(sv);
      has_pending = false;
    } else if (next_small(s, cursor_v, cursor_t)) {
      sv = cursor_v;
      st = cursor_t;
    } else {
      break;
    }
    threshold[s] = st;
    alias[s] = l;
    lv = (lv + sv) - 1.0;
    if (lv < 1.0) {
      pending = l;
      pending_v = lv;
      has_pending = true;
      has_large = next_large(l, lv);
    }
  }
  // Remaining buckets are exactly 1 up to float round-off: every raw keeps
  // them.
  const std::uint64_t always = Rng::coin_threshold(1.0);
  const auto keep = [threshold, alias, always](std::uint64_t i) {
    threshold[i] = always;
    alias[i] = i;
  };
  if (has_large) keep(l);
  while (next_large(l, lv)) keep(l);
  if (has_pending) keep(pending);
  while (next_small(s, sv, st)) keep(s);
}

}  // namespace

void AliasSampler::allocate(std::size_t n) {
  n_ = n;
  threshold_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  alias_ = std::make_unique_for_overwrite<std::uint64_t[]>(n);
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  require(!weights.empty(), "AliasSampler: empty weight vector");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "AliasSampler: negative weight");
    total += w;
  }
  require(total > 0.0, "AliasSampler: all weights are zero");
  // An infinite total would scale every weight to 0: all small, all kept,
  // a uniform table whatever the weights.
  require(std::isfinite(total), "AliasSampler: weight total overflows");

  const std::size_t n = weights.size();
  allocate(n);
  // Scaled weights have mean 1; each cursor rescans the caller's weights
  // for its class.
  const double scale = static_cast<double>(n) / total;
  const double* w = weights.data();
  const auto scan = [w, scale](std::size_t& cursor, bool small) {
    return [w, scale, &cursor, small](std::uint64_t& i, double& v) {
      while (cursor > 0) {
        v = w[--cursor] * scale;
        if ((v < 1.0) == small) {
          i = cursor;
          return true;
        }
      }
      return false;
    };
  };
  std::size_t small_cursor = n;
  std::size_t large_cursor = n;
  const auto next_small = [small = scan(small_cursor, true)](
                              std::uint64_t& i, double& v,
                              std::uint64_t& t) {
    if (!small(i, v)) return false;
    t = Rng::coin_threshold(v);
    return true;
  };
  vose(threshold_.get(), alias_.get(), next_small, scan(large_cursor, false));
}

AliasSampler::AliasSampler(std::span<const std::uint64_t> heavy_odd,
                           std::size_t pairs, double heavy, double light) {
  require(pairs > 0, "AliasSampler: no pairs");
  require(heavy_odd.size() >= (pairs + 63) / 64,
          "AliasSampler: fewer sign words than pairs");
  require(heavy >= light, "AliasSampler: heavy column below light column");
  const std::size_t n = 2 * pairs;
  allocate(n);
  if (heavy < 1.0 || !(light < 1.0)) {
    // Both columns on one side of 1: one class is empty and every bucket
    // is kept, as in the weights constructor.
    const std::uint64_t always = Rng::coin_threshold(1.0);
    for (std::size_t i = 0; i < n; ++i) {
      threshold_[i] = always;
      alias_[i] = i;
    }
    return;
  }
  // Every pair holds exactly one small (light) and one large (heavy)
  // column, so both cursors walk the pairs from the top, without scanning;
  // `flip` turns a pair's heavy column into its light partner. Every light
  // column has the one threshold of `light`, converted once here.
  const std::uint64_t* words = heavy_odd.data();
  const auto walk = [words](std::size_t& pair, std::uint64_t flip,
                            double value) {
    return [words, &pair, flip, value](std::uint64_t& i, double& v) {
      if (pair == 0) return false;
      --pair;
      i = 2 * pair + (((words[pair / 64] >> (pair % 64)) & 1U) ^ flip);
      v = value;
      return true;
    };
  };
  std::size_t small_pair = pairs;
  std::size_t large_pair = pairs;
  const auto next_light = [light_walk = walk(small_pair, 1U, light),
                           t_light = Rng::coin_threshold(light)](
                              std::uint64_t& i, double& v,
                              std::uint64_t& t) {
    t = t_light;
    return light_walk(i, v);
  };
  vose(threshold_.get(), alias_.get(), next_light,
       walk(large_pair, 0U, heavy));
}

}  // namespace duti
