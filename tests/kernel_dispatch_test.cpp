// The kernels layer's plumbing: the kernel's report name, PairLaw's
// generation-counter invalidation, and the collapsed engine's staging API
// (stage_round + kernel().advance + commit_round ≡ step_round).
#include <gtest/gtest.h>

#include <vector>

#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/usd.hpp"
#include "ppsim/util/rng.hpp"

namespace ppsim::kernels {
namespace {

TEST(KernelRegistryTest, NamesRoundTrip) {
  // The name is part of every sweep report and cell-cache key.
  EXPECT_EQ(to_string(KernelKind::kScalar), "scalar");
}

TEST(KernelRegistryTest, ScalarIsAlwaysAvailable) {
  EXPECT_EQ(auto_kind(), KernelKind::kScalar);
  const UndecidedStateDynamics usd(3);
  const CollapsedSimulator sim(usd, Configuration({0, 4, 3, 3}), 1);
  EXPECT_EQ(sim.kernel().kind(), KernelKind::kScalar);
}

// ------------------------------------------------------------- pair law --

TEST(PairLawTest, GenerationAdvancesPerRebuildAndAliasFollowsLazily) {
  const UndecidedStateDynamics usd(2);
  const TransitionTable table(usd);
  PairLaw law;
  EXPECT_EQ(law.generation(), 0u);
  EXPECT_TRUE(law.empty());

  const Configuration config({0, 6, 4});
  law.rebuild(table, config);
  EXPECT_EQ(law.generation(), 1u);
  ASSERT_FALSE(law.empty());
  EXPECT_GT(law.active_weight(), 0.0);
  EXPECT_DOUBLE_EQ(law.total_weight(), 10.0 * 9.0);

  // The alias table is built lazily and cached per generation: the same
  // object comes back until a rebuild bumps the generation.
  const AliasTable* alias = &law.alias();
  EXPECT_EQ(alias, &law.alias());
  law.rebuild(table, config);
  EXPECT_EQ(law.generation(), 2u);
  EXPECT_EQ(alias, &law.alias());  // same storage, rebuilt in place
}

TEST(PairLawTest, WeightsMatchTheOrderedPairCounts) {
  const UndecidedStateDynamics usd(2);
  const TransitionTable table(usd);
  PairLaw law;
  law.rebuild(table, Configuration({2, 5, 3}));
  // Every listed pair must carry weight c_a·c_b (c_a·(c_a−1) on the
  // diagonal) and the total must be n(n−1).
  double active = 0.0;
  const std::vector<Count> counts = {2, 5, 3};
  for (std::size_t i = 0; i < law.size(); ++i) {
    const double ca = static_cast<double>(counts[law.a(i)]);
    const double cb = static_cast<double>(counts[law.b(i)]);
    const double expect = law.a(i) == law.b(i) ? ca * (ca - 1.0) : ca * cb;
    EXPECT_DOUBLE_EQ(law.weight(i), expect);
    active += law.weight(i);
  }
  EXPECT_DOUBLE_EQ(law.active_weight(), active);
}

// ---------------------------------------------------------------- staging --

TEST(ScalarLockstepTest, StagedPathMatchesStepRound) {
  // stage_round + kernel.advance + commit_round must equal step_round draw
  // for draw: run the same seed both ways and compare the trajectory.
  const UndecidedStateDynamics usd(3);
  CollapsedSimulator direct(usd, Configuration({0, 400, 350, 250}), 77);
  CollapsedSimulator staged(usd, Configuration({0, 400, 350, 250}), 77);
  for (int r = 0; r < 60; ++r) {
    direct.step_round(1'000'000);
    RoundTask task;
    if (staged.stage_round(1'000'000, task)) {
      staged.kernel().advance(task);
      staged.commit_round(task);
    }
    ASSERT_EQ(direct.configuration().counts(), staged.configuration().counts());
    ASSERT_EQ(direct.interactions(), staged.interactions());
  }
}

}  // namespace
}  // namespace ppsim::kernels
