// Exact samplers for the discrete distributions the synchronous engines and
// workload generators need: binomial, multinomial, hypergeometric.
//
// Exactness matters: the Gossip engine's correctness proof (tests/
// gossip_test.cpp) relies on each round being distributed *exactly* as the
// model prescribes, so approximations (normal/Poisson) are not used here.
//
// Binomial is the repo's own sampler, not the standard library's binomial
// distribution, whose algorithm is implementation-defined and would make
// every golden pin depend on the library. One draw reflects p > ½ to 1 − p, then:
//   * n·p < 10: inversion — a CDF walk from k = 0 with one uniform;
//   * n·p ≥ 10: BTRS transformed rejection (Hörmann, "The generation of
//     binomial random variates", J. Stat. Comput. Simul. 1993), with the
//     acceptance bound built from Stirling-series tails, so no lgamma and
//     no per-draw distribution object on the hot path.
// Uniform contract (part of the draw sequence every golden pin and archive
// depends on): every attempt consumes one (u, v) pair of 52-bit uniforms
// uniform52(rng()), inversion included (it reads u only); the trivial cases
// n = 0 and p ∈ {0, 1} (after clamping) consume nothing.
//
// Multinomial and hypergeometric reduce to sequential conditional binomial
// and inverse-CDF draws.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ppsim/util/rng.hpp"

namespace ppsim {

/// Exact Binomial(trials, p) sample (the sampler described above). p is
/// clamped to [0, 1]; NaN p throws (it would silently pass the clamp).
///
/// Stability at paper scale (n up to 2^53, the engines' count cap): the
/// reflection keeps p ≤ ½, inversion only runs while q^n cannot underflow,
/// and BTRS works in log space — tests/random_variates_test.cpp pins
/// moments and tails at exactly those parameters.
std::int64_t binomial(Xoshiro256pp& rng, std::int64_t trials, double p);

/// The sampler's uniform: the top 52 bits of a generator output spliced
/// into the mantissa of a double in [1, 2), minus 1 — a value in [0, 1).
inline double uniform52(std::uint64_t bits) noexcept {
  return std::bit_cast<double>((bits >> 12) | 0x3FF0000000000000ull) - 1.0;
}

// The pieces of one binomial draw: binomial() runs them, and
// tests/random_variates_test.cpp drives them directly.
namespace binomial_detail {
namespace {

/// Stirling series tail t(k) = lgamma(k+1) − (k+½)·log(k) + k − ½·log(2π):
/// tabulated for k < 10, three-term asymptotic series beyond. The BTRS
/// acceptance bound is built from these tails instead of lgamma calls.
inline double stirling_tail(double k) {
  static constexpr double kTable[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double inv = 1.0 / (k + 1.0);
  const double inv2 = inv * inv;
  return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0) * inv2) * inv2) * inv;
}

/// BTRS per-(n, p) setup, shared by every attempt of one draw. Requires
/// 0 < p ≤ 0.5 and n·p ≥ 10.
struct BtrsSetup {
  double r, b, a, c, vr, alpha, m;
  double n;

  void init(std::int64_t trials, double p) {
    n = static_cast<double>(trials);
    const double q = 1.0 - p;
    r = p / q;
    const double spq = std::sqrt(n * p * q);
    b = 1.15 + 2.53 * spq;
    a = -0.0873 + 0.0248 * b + 0.01 * p;
    c = n * p + 0.5;
    vr = 0.92 - 4.2 / b;
    alpha = (2.83 + 5.1 / b) * spq;
    m = std::floor((n + 1.0) * p);
  }

  /// One transformed-rejection attempt from the uniform pair (u, v).
  bool attempt(double u, double v, std::int64_t& out) const {
    u -= 0.5;
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > n) return false;
    if (us >= 0.07 && v <= vr) {
      out = static_cast<std::int64_t>(kd);
      return true;
    }
    const double lv = std::log(v * alpha / (a / (us * us) + b));
    const double bound =
        (m + 0.5) * std::log((m + 1.0) / (r * (n - m + 1.0))) +
        (n + 1.0) * std::log((n - m + 1.0) / (n - kd + 1.0)) +
        (kd + 0.5) * std::log(r * (n - kd + 1.0) / (kd + 1.0)) +
        stirling_tail(m) + stirling_tail(n - m) - stirling_tail(kd) -
        stirling_tail(n - kd);
    if (lv > bound) return false;
    out = static_cast<std::int64_t>(kd);
    return true;
  }
};

/// Inversion sampler: walks the CDF with a single uniform. Requires
/// 0 < p ≤ 0.5 and n·p < 10 (so the start probability q^n cannot
/// underflow: n·|log1p(−p)| ≤ 2·n·p < 20). The walk also stops once the
/// pmf underflows to 0, so a u above the rounded CDF total ends in the far
/// tail instead of stepping on to k = n.
inline std::int64_t binomial_inversion(std::int64_t n, double p, double u) {
  const double r = p / (1.0 - p);
  const double nd = static_cast<double>(n);
  double pmf = std::exp(nd * std::log1p(-p));
  double cdf = pmf;
  std::int64_t k = 0;
  while (u > cdf && k < n && pmf > 0.0) {
    ++k;
    pmf *= (nd - static_cast<double>(k) + 1.0) * r / static_cast<double>(k);
    cdf += pmf;
  }
  return k;
}

/// One Binomial(n, p) draw split into setup and attempts; binomial() feeds
/// attempt() uniform pairs until one is accepted.
struct BinomialDraw {
  std::int64_t n = 0;
  double p = 0.0;      ///< min(p, 1−p) after the reflection
  bool flip = false;   ///< result = n − draw(n, 1−p)
  bool use_btrs = false;
  BtrsSetup btrs;
  std::int64_t result = 0;

  /// Clamps p and sets the draw up. Returns false when the draw is trivial
  /// (n ≤ 0 or p ∈ {0, 1}): value() is then final and no uniform is due.
  bool init(std::int64_t trials, double prob) {
    prob = std::clamp(prob, 0.0, 1.0);
    n = trials;
    flip = false;
    result = 0;
    if (trials <= 0 || prob == 0.0) return false;
    if (prob == 1.0) {
      result = trials;
      return false;
    }
    flip = prob > 0.5;
    p = flip ? 1.0 - prob : prob;
    use_btrs = static_cast<double>(n) * p >= 10.0;
    if (use_btrs) btrs.init(n, p);
    return true;
  }

  /// One attempt on the uniform pair (u, v); true when it produced a value.
  /// Inversion always accepts and reads u only.
  bool attempt(double u, double v) {
    if (use_btrs) return btrs.attempt(u, v, result);
    result = binomial_inversion(n, p, u);
    return true;
  }

  std::int64_t value() const { return flip ? n - result : result; }
};

}  // namespace
}  // namespace binomial_detail

/// Exact multinomial: partitions `trials` into weights.size() buckets where
/// bucket i receives each trial independently with probability
/// weights[i] / sum(weights). Implemented as sequential conditional
/// binomials, so the result is an exact multinomial sample.
/// Throws CheckFailure on negative weights or zero total with trials > 0.
std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<double>& weights);

/// multinomial() into a caller-owned buffer (resized to weights.size()),
/// so per-round callers — the round kernel — don't allocate on the
/// hot path. Identical draw sequence to multinomial(): the vector-returning
/// overload is a wrapper around this.
void multinomial_into(Xoshiro256pp& rng, std::int64_t trials,
                      const std::vector<double>& weights,
                      std::vector<std::int64_t>& out);

/// Convenience overload with integer weights (counts).
std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<std::int64_t>& weights);

/// Exact hypergeometric: number of "successes" when drawing `draws` items
/// without replacement from a pool of `successes` + `failures` items.
/// Implemented by inverse-CDF walk from the mode-adjacent tail; O(result).
std::int64_t hypergeometric(Xoshiro256pp& rng, std::int64_t successes,
                            std::int64_t failures, std::int64_t draws);

}  // namespace ppsim
