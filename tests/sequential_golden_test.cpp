// Golden outcomes of the two exact sequential engines, UsdEngine and
// Engine(kSequential), on the Figure-1 configuration at n = 10^4, k = 3.
// Both engines draw their pairs through the same PairSampler, so from one
// seed they follow the same trajectory. The values were recorded before the
// index-shift responder draw replaced the remove/draw/re-add urn and must
// not move: a changed pair draw, Fenwick lookup or bounded() shows up here
// as a different configuration.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "ppsim/analysis/initial.hpp"
#include "ppsim/core/engine.hpp"
#include "ppsim/protocols/usd.hpp"

namespace ppsim {
namespace {

constexpr Count kN = 10000;
constexpr std::size_t kK = 3;

struct Golden {
  std::uint64_t seed;
  std::vector<Count> counts_at_1e5;  ///< ⊥ first, then the opinions
  Interactions usd_stable_at;        ///< UsdEngine checks every interaction
  Interactions table_stable_at;      ///< Simulator checks every n interactions
};

const std::vector<Golden>& goldens() {
  static const std::vector<Golden> kGoldens = {
      {1, {520, 9402, 32, 46}, 141013, 150000},
      {2, {90, 9903, 6, 1}, 127616, 130000},
      {3, {211, 9769, 10, 10}, 131672, 140000},
  };
  return kGoldens;
}

Engine table_engine(const UndecidedStateDynamics& usd, std::uint64_t seed) {
  const InitialConfig init = figure1_configuration(kN, kK);
  return Engine(EngineKind::kSequential, usd,
                UndecidedStateDynamics::initial_configuration(init.opinion_counts), seed);
}

TEST(SequentialGoldenTest, CountsAfter1e5Interactions) {
  const InitialConfig init = figure1_configuration(kN, kK);
  const UndecidedStateDynamics usd(kK);
  for (const Golden& g : goldens()) {
    UsdEngine fast(init.opinion_counts, g.seed);
    EXPECT_FALSE(fast.run_until_stable(100000)) << "seed " << g.seed;
    EXPECT_EQ(fast.interactions(), 100000);
    EXPECT_EQ(fast.winner(), std::nullopt);
    EXPECT_EQ(fast.counts(), g.counts_at_1e5) << "seed " << g.seed;

    Engine table = table_engine(usd, g.seed);
    const RunOutcome out = table.run_until_stable(100000);
    EXPECT_FALSE(out.stabilized);
    EXPECT_EQ(out.interactions, 100000);
    EXPECT_EQ(out.consensus, std::nullopt);
    EXPECT_EQ(table.configuration().counts(), g.counts_at_1e5) << "seed " << g.seed;
  }
}

TEST(SequentialGoldenTest, StabilizationPoints) {
  // Same trajectory, two clocks: UsdEngine stops on the interaction that
  // stabilizes, the table engine on its next every-n stability check.
  const InitialConfig init = figure1_configuration(kN, kK);
  const UndecidedStateDynamics usd(kK);
  const std::vector<Count> consensus = {0, kN, 0, 0};
  for (const Golden& g : goldens()) {
    UsdEngine fast(init.opinion_counts, g.seed);
    EXPECT_TRUE(fast.run_until_stable(10000000));
    EXPECT_EQ(fast.interactions(), g.usd_stable_at) << "seed " << g.seed;
    EXPECT_EQ(fast.winner(), std::optional<Opinion>{0});
    EXPECT_EQ(fast.counts(), consensus);

    Engine table = table_engine(usd, g.seed);
    const RunOutcome out = table.run_until_stable(10000000);
    EXPECT_TRUE(out.stabilized);
    EXPECT_EQ(out.interactions, g.table_stable_at) << "seed " << g.seed;
    EXPECT_EQ(out.consensus, std::optional<Opinion>{0});
    EXPECT_EQ(table.configuration().counts(), consensus);
  }
}

}  // namespace
}  // namespace ppsim
