// The scalar baseline kernel: always built, and the determinism anchor.
//
// One binomial() draw for the null split, then the conditional-binomial
// multinomial chain (multinomial_into), both on util/random_variates' own
// sampler — so the draw sequence is the same on every standard library
// (tests/engine_equivalence_test.cpp pins golden trajectories against this
// kernel). The AVX2 kernel runs the same sampler per lane and is
// byte-identical to this one, one trial or a lockstep group at a time.
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {
namespace {

class ScalarKernel final : public RoundKernel {
 public:
  KernelKind kind() const noexcept override { return KernelKind::kScalar; }

  void advance(RoundTask& task) const override {
    const PairLaw& law = *task.law;
    task.active = binomial(*task.rng, task.batch,
                           law.active_weight() / law.total_weight());
    if (task.active > 0) {
      multinomial_into(*task.rng, task.active, law.weights(), *task.draws);
    }
  }
};

}  // namespace

const RoundKernel& scalar_kernel() noexcept {
  static const ScalarKernel kernel;
  return kernel;
}

}  // namespace ppsim::kernels
