// Sensor-network plurality consensus — the motivating scenario of Angluin
// et al.'s original population-protocol paper: tiny passively-mobile sensors
// that can only run constant-state pairwise protocols.
//
// Scenario: n sensors each take one noisy scalar reading of a physical
// quantity (ground truth 42.0, Gaussian noise), quantize it into k bins, and
// must agree on the plurality bin using only USD interactions. The demo
// shows the full pipeline: measurement -> quantization -> initial
// configuration -> USD -> validated consensus.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"
#include "ppsim/util/table.hpp"

namespace {

using namespace ppsim;

/// Box-Muller Gaussian from two uniform draws.
double gaussian(Xoshiro256pp& rng, double mean, double stddev) {
  const double u1 = rng.canonical();
  const double u2 = rng.canonical();
  const double r = std::sqrt(-2.0 * std::log(std::max(u1, 1e-300)));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

}  // namespace

int main() {
  const Count n = 50'000;       // sensors
  const std::size_t k = 8;      // quantization bins over [38, 46)
  const double truth = 42.0;    // physical quantity being sensed
  const double noise = 1.5;     // sensor noise (std dev)
  const double lo = 38.0;
  const double hi = 46.0;

  std::cout << "=== sensor-network plurality consensus ===\n"
            << n << " sensors, truth " << truth << ", noise sd " << noise << ", "
            << k << " bins over [" << lo << ", " << hi << ")\n\n";

  // 1. Each sensor measures and quantizes independently.
  Xoshiro256pp rng(7);
  std::vector<Count> bin_counts(k, 0);
  const double width = (hi - lo) / static_cast<double>(k);
  for (Count i = 0; i < n; ++i) {
    const double reading = gaussian(rng, truth, noise);
    auto bin = static_cast<std::int64_t>((reading - lo) / width);
    bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(k) - 1);
    ++bin_counts[static_cast<std::size_t>(bin)];
  }

  Table table({"bin", "range", "sensors"});
  std::size_t true_plurality = 0;
  for (std::size_t b = 0; b < k; ++b) {
    if (bin_counts[b] > bin_counts[true_plurality]) true_plurality = b;
    std::string range = "[";
    range += format_double(lo + width * static_cast<double>(b), 1);
    range += ", ";
    range += format_double(lo + width * static_cast<double>(b + 1), 1);
    range += ")";
    table.row()
        .cell(static_cast<std::int64_t>(b))
        .cell(range)
        .cell(bin_counts[b])
        .done();
  }
  table.write_pretty(std::cout);
  std::cout << "ground-truth plurality bin: " << true_plurality << "\n\n";

  // 2. Run USD: each sensor's opinion is its bin index.
  UsdEngine engine(bin_counts, /*seed=*/2025);
  const bool stabilized = engine.run_until_stable(5000 * n);

  // 3. Report and validate.
  if (!stabilized || !engine.winner().has_value()) {
    std::cout << "no consensus (tie-like start?); re-run with more sensors\n";
    return 1;
  }
  const Opinion winner = *engine.winner();
  std::cout << "consensus reached after " << engine.time()
            << " parallel time on bin " << winner << "\n";
  std::cout << (winner == true_plurality
                    ? "=> matches the ground-truth plurality bin\n"
                    : "=> MISMATCH with ground truth (insufficient bias)\n");
  return winner == true_plurality ? 0 : 1;
}
