// The round-sampling kernel of the counts-space engines.
//
// One simulated round of the collapsed engine (both round policies) is three
// draws against the frozen start-of-round PairLaw:
//
//   active      ~ Binomial(batch, active_weight / total_weight)  // null split
//   draws       ~ Multinomial(active, class weights)             // class split
//   involvement ~ the block's chain, given draws[block] clashes  // endpoints
//
// That sampling step is the hot path at paper scale (n ≥ 10⁹, many trials
// per sweep cell), and it is what RoundKernel::advance implements: one
// binomial() draw for the null split, the conditional-binomial multinomial
// chain (multinomial_into) over PairLaw's classes — one binomial per class —
// and, when the law has a block, sample_involvement's two binomials per live
// block member. For USD at k opinions that is about 3k binomials (k + 1
// classes, then the chain over the opinions), all on util/random_variates'
// own sampler, so the draw sequence does not depend on which standard
// library built it. tests/engine_equivalence_test.cpp pins golden
// trajectories against it, and tests/kernel_distribution_test.cpp checks its
// output law.
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
/// draws, involvement). `draws` and `involvement` are engine-owned scratch
/// the kernel resizes to law->size() and law->block_steps().size(); both are
/// filled only when active > 0, and `involvement` is required only when the
/// law has a block.
struct RoundTask {
  const PairLaw* law = nullptr;
  Interactions batch = 0;
  Xoshiro256pp* rng = nullptr;
  std::vector<std::int64_t>* draws = nullptr;
  std::vector<std::int64_t>* involvement = nullptr;
  Interactions active = 0;  ///< out: non-null interactions this round
};

class RoundKernel {
 public:
  KernelKind kind() const noexcept { return KernelKind::kScalar; }

  /// Samples one round into task.active / *task.draws / *task.involvement.
  void advance(RoundTask& task) const;
};

}  // namespace ppsim::kernels
