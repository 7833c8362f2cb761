#include "ppsim/util/random_variates.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ppsim/util/check.hpp"

namespace ppsim {

std::int64_t binomial(Xoshiro256pp& rng, std::int64_t trials, double p) {
  PPSIM_CHECK(trials >= 0, "binomial trials must be non-negative");
  PPSIM_CHECK(!std::isnan(p), "binomial p must not be NaN");
  binomial_detail::BinomialDraw draw;
  if (draw.init(trials, p)) {
    for (;;) {
      const double u = uniform52(rng());
      const double v = uniform52(rng());
      if (draw.attempt(u, v)) break;
    }
  }
  return draw.value();
}

void multinomial_into(Xoshiro256pp& rng, std::int64_t trials,
                      const std::vector<double>& weights,
                      std::vector<std::int64_t>& out) {
  PPSIM_CHECK(trials >= 0, "multinomial trials must be non-negative");
  double total = 0.0;
  for (const double w : weights) {
    PPSIM_CHECK(w >= 0.0, "multinomial weights must be non-negative");
    total += w;
  }
  PPSIM_CHECK(trials == 0 || total > 0.0,
              "multinomial needs positive total weight to place trials");

  out.assign(weights.size(), 0);
  std::int64_t remaining = trials;
  double mass = total;
  for (std::size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    // Conditional law of bucket i given what earlier buckets consumed is
    // Binomial(remaining, w_i / remaining-mass); this chain is exact.
    const double p = mass > 0.0 ? weights[i] / mass : 0.0;
    const std::int64_t draw = binomial(rng, remaining, p);
    out[i] = draw;
    remaining -= draw;
    mass -= weights[i];
  }
  if (!weights.empty()) out.back() += remaining;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<double>& weights) {
  std::vector<std::int64_t> out;
  multinomial_into(rng, trials, weights, out);
  return out;
}

std::vector<std::int64_t> multinomial(Xoshiro256pp& rng, std::int64_t trials,
                                      const std::vector<std::int64_t>& weights) {
  std::vector<double> w(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    PPSIM_CHECK(weights[i] >= 0, "multinomial weights must be non-negative");
    w[i] = static_cast<double>(weights[i]);
  }
  return multinomial(rng, trials, w);
}

std::int64_t hypergeometric(Xoshiro256pp& rng, std::int64_t successes,
                            std::int64_t failures, std::int64_t draws) {
  PPSIM_CHECK(successes >= 0 && failures >= 0, "pool sizes must be non-negative");
  PPSIM_CHECK(draws >= 0 && draws <= successes + failures,
              "draws must not exceed the pool");

  // Symmetry reductions keep the inverse-CDF walk short.
  const std::int64_t pool = successes + failures;
  if (draws == 0 || successes == 0) return 0;
  if (failures == 0) return draws;
  if (draws > pool / 2) {
    // Drawing d is the complement of leaving pool-d behind.
    return successes - hypergeometric(rng, successes, failures, pool - draws);
  }

  // Inverse CDF from k = max(0, draws - failures) upward using the ratio
  //   P(k+1)/P(k) = (successes-k)(draws-k) / ((k+1)(failures-draws+k+1)).
  const std::int64_t lo = std::max<std::int64_t>(0, draws - failures);
  const std::int64_t hi = std::min(successes, draws);

  // log P(lo) via lgamma to avoid underflow for large pools.
  auto lchoose = [](std::int64_t a, std::int64_t b) {
    return std::lgamma(static_cast<double>(a + 1)) -
           std::lgamma(static_cast<double>(b + 1)) -
           std::lgamma(static_cast<double>(a - b + 1));
  };
  double logp = lchoose(successes, lo) + lchoose(failures, draws - lo) - lchoose(pool, draws);
  double p = std::exp(logp);
  double u = rng.canonical();
  std::int64_t k = lo;
  while (k < hi && u >= p) {
    u -= p;
    const double ratio =
        (static_cast<double>(successes - k) * static_cast<double>(draws - k)) /
        (static_cast<double>(k + 1) * static_cast<double>(failures - draws + k + 1));
    p *= ratio;
    ++k;
  }
  return k;
}

}  // namespace ppsim
