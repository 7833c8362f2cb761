#include "ppsim/kernels/round_kernel.hpp"

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {

std::string to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar:
      return "scalar";
  }
  return "unknown";
}

void RoundKernel::advance(RoundTask& task) const {
  const PairLaw& law = *task.law;
  task.active = binomial(*task.rng, task.batch,
                         law.active_weight() / law.total_weight());
  if (task.active > 0) {
    multinomial_into(*task.rng, task.active, law.weights(), *task.draws);
    if (law.has_block()) {
      PPSIM_CHECK(task.involvement != nullptr,
                  "a law with a block needs involvement scratch");
      sample_involvement(law, *task.rng, (*task.draws)[law.block()],
                         *task.involvement);
    }
  }
}

}  // namespace ppsim::kernels
