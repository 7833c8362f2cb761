#include "ppsim/core/scheduler.hpp"

#include "ppsim/util/check.hpp"

namespace ppsim {

PairSampler::PairSampler(const std::vector<Count>& counts)
    : weights_(counts), population_(weights_.total()) {
  PPSIM_CHECK(population_ >= 2, "pair sampling needs at least two agents");
}

}  // namespace ppsim
