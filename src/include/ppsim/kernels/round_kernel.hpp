// The round-sampling kernel of the counts-space engines.
//
// One simulated round of the collapsed engine (both round policies) is two
// draws against the frozen start-of-round PairLaw:
//
//   active ~ Binomial(batch, active_weight / total_weight)   // null split
//   draws  ~ Multinomial(active, class weights)              // class split
//
// That sampling step — not the O(S²) law rebuild or the count updates — is
// the hot path at paper scale (n ≥ 10⁹, many trials per sweep cell), and it
// is what RoundKernel::advance implements: one binomial() draw for the null
// split, then the conditional-binomial multinomial chain (multinomial_into)
// over PairLaw's classes — one binomial per class, so merging each mirrored
// pair into one class halves the chain for USD — both on
// util/random_variates' own sampler, so the draw sequence does not
// depend on which standard library built it. tests/engine_equivalence_test
// .cpp pins golden trajectories against it, and
// tests/kernel_distribution_test.cpp checks its output law.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ppsim/core/types.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {

/// The one round kernel. The enum and the auto_kind() policy remain so
/// option structs and reports can keep naming it ("kernel": "scalar").
enum class KernelKind {
  kScalar,
};

/// "scalar" (the JSON field value).
std::string to_string(KernelKind kind);

/// The kernel an unconfigured run uses: always kScalar.
constexpr KernelKind auto_kind() noexcept { return KernelKind::kScalar; }

/// One staged round: the kernel reads (law, batch, rng) and writes (active,
/// draws). `draws` is engine-owned scratch resized by the kernel to
/// law->size(); it is filled only when active > 0.
struct RoundTask {
  const PairLaw* law = nullptr;
  Interactions batch = 0;
  Xoshiro256pp* rng = nullptr;
  std::vector<std::int64_t>* draws = nullptr;
  Interactions active = 0;  ///< out: non-null interactions this round
};

class RoundKernel {
 public:
  KernelKind kind() const noexcept { return KernelKind::kScalar; }

  /// Samples one round into task.active / *task.draws.
  void advance(RoundTask& task) const;
};

}  // namespace ppsim::kernels
