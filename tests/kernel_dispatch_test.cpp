// The kernels layer's plumbing: the kernel's report name, PairLaw's
// generation-counter invalidation, its mirror-class grouping (checked against
// the ordered law in ordered_pair_law.hpp, and apply_one's clamp against the
// ordered members), and the collapsed engine's staging API
// (stage_round + kernel().advance + commit_round ≡ step_round).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "ordered_pair_law.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/four_state_majority.hpp"
#include "ppsim/protocols/leader_election.hpp"
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

/// One-way adoption: the responder adopts the initiator's state,
/// f(x, y) = (x, x). (a, b) and (b, a) are both active but not mirrors:
/// f(b, a) = (b, b) is not the swap of (a, a).
class OneWayAdoption final : public Protocol {
 public:
  std::size_t num_states() const override { return 3; }
  Transition apply(State initiator, State) const override {
    return {initiator, initiator};
  }
  std::optional<Opinion> output(State s) const override {
    return static_cast<Opinion>(s);
  }
  std::string name() const override { return "one-way adoption"; }
};

/// Swap: f(x, y) = (y, x). f(b, a) is the mirror of f(a, b), but each side
/// an interaction drains is refilled by the other, so the pairs stay
/// ordered (a merged clamp could differ from the two ordered clamps).
class Swap final : public Protocol {
 public:
  std::size_t num_states() const override { return 2; }
  Transition apply(State initiator, State responder) const override {
    return {responder, initiator};
  }
  std::optional<Opinion> output(State) const override { return 0; }
  std::string name() const override { return "swap"; }
};

/// USD with ordered pair (a, b) made null, so its mirror (b, a) is no
/// longer merged and PairLaw lists it as a lone ordered entry.
class UsdWithoutPair final : public Protocol {
 public:
  UsdWithoutPair(std::size_t k, State a, State b) : usd_(k), a_(a), b_(b) {}
  std::size_t num_states() const override { return usd_.num_states(); }
  Transition apply(State initiator, State responder) const override {
    if (initiator == a_ && responder == b_) return {initiator, responder};
    return usd_.apply(initiator, responder);
  }
  std::optional<Opinion> output(State s) const override {
    return usd_.output(s);
  }
  std::string name() const override { return "usd-without-pair"; }

 private:
  UndecidedStateDynamics usd_;
  State a_;
  State b_;
};

/// Checks PairLaw's classes for (protocol, config) against the ordered
/// enumeration built independently from the TransitionTable.
void expect_classes_cover_the_ordered_law(const Protocol& protocol,
                                          const Configuration& config) {
  SCOPED_TRACE(protocol.name());
  const TransitionTable table(protocol);
  PairLaw law;
  law.rebuild(table, config);
  const auto pairs = testutil::ordered_active_pairs(table, config);

  std::vector<double> class_weight(law.size(), 0.0);
  std::vector<bool> lists_itself(law.size(), false);
  std::vector<double> consumption(config.num_states(), 0.0);
  double active = 0.0;
  for (const testutil::OrderedPair& p : pairs) {
    // Each live ordered pair lands in exactly one class: the one listing
    // it, else the one listing its mirror — which must truly be a mirror.
    const std::size_t i = testutil::class_of(law, p.a, p.b);
    ASSERT_LT(i, law.size()) << "(" << p.a << ", " << p.b << ") has no class";
    if (law.a(i) == p.a && law.b(i) == p.b) {
      lists_itself[i] = true;
    } else {
      EXPECT_EQ(p.t, (Transition{law.transition(i).responder,
                                 law.transition(i).initiator}))
          << "(" << p.a << ", " << p.b << ") merged into a non-mirror";
    }
    class_weight[i] += p.weight;
    active += p.weight;
    if (p.t.initiator != p.a) consumption[p.a] += p.weight;
    if (p.t.responder != p.b) consumption[p.b] += p.weight;
  }
  for (std::size_t i = 0; i < law.size(); ++i) {
    EXPECT_TRUE(lists_itself[i]) << "class " << i << " lists a dead pair";
    EXPECT_EQ(law.transition(i), table.apply(law.a(i), law.b(i)));
    EXPECT_EQ(law.weight(i), class_weight[i]) << "class " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_FALSE(law.a(i) == law.a(j) && law.b(i) == law.b(j));
    }
  }
  // The sums are the ordered law's, bit for bit.
  const auto n = static_cast<double>(config.population());
  EXPECT_EQ(law.active_weight(), active);
  EXPECT_EQ(law.total_weight(), n * (n - 1.0));
  for (std::size_t s = 0; s < config.num_states(); ++s) {
    EXPECT_EQ(law.consumption(s), consumption[s]) << "state " << s;
  }

  // So the τ controller picks the round length the ordered sums give.
  constexpr double kEps = CollapsedSimulator::Options{}.tau_epsilon;
  double tau = kEps * n;
  for (std::size_t s = 0; s < config.num_states(); ++s) {
    if (consumption[s] <= 0.0) continue;
    tau = std::min(tau, kEps * static_cast<double>(config.count(
                                   static_cast<State>(s))) *
                            n * (n - 1.0) / consumption[s]);
  }
  CollapsedSimulator sim(protocol, config, 1);
  sim.step_round(Interactions{1} << 40);
  EXPECT_EQ(sim.last_round_size(),
            std::max<Interactions>(1, static_cast<Interactions>(tau)));
}

TEST(PairLawTest, WeightsMatchTheOrderedPairCounts) {
  expect_classes_cover_the_ordered_law(UndecidedStateDynamics(2),
                                       Configuration({2, 5, 3}));
  expect_classes_cover_the_ordered_law(
      UndecidedStateDynamics(4), Configuration({600, 3000, 2500, 2000, 1900}));
  expect_classes_cover_the_ordered_law(FourStateMajority(),
                                       Configuration({400, 300, 200, 100}));
  expect_classes_cover_the_ordered_law(LeaderElection(),
                                       Configuration({300, 700}));
  expect_classes_cover_the_ordered_law(OneWayAdoption(),
                                       Configuration({500, 300, 200}));
  expect_classes_cover_the_ordered_law(Swap(), Configuration({400, 300}));
}

TEST(PairLawTest, UsdMergesEveryMirroredPairIntoOneClass) {
  // k = 4 with undecided agents: 6 clash classes (i, j) and 4 adoption
  // classes (⊥, i), each listed once as (min, max) with weight 2·c_a·c_b.
  const UndecidedStateDynamics usd(4);
  const TransitionTable table(usd);
  const std::vector<Count> counts = {12, 40, 30, 25, 18};
  PairLaw law;
  law.rebuild(table, Configuration(counts));
  ASSERT_EQ(law.size(), 10u);
  for (std::size_t i = 0; i < law.size(); ++i) {
    EXPECT_LT(law.a(i), law.b(i));
    EXPECT_EQ(law.weight(i), 2.0 * static_cast<double>(counts[law.a(i)]) *
                                 static_cast<double>(counts[law.b(i)]));
  }
}

TEST(PairLawTest, AsymmetricPairsStayOrdered) {
  // One-way adoption: every off-diagonal ordered pair is active, no two are
  // mirrors, so each keeps its own entry with its ordered weight c_a·c_b.
  const OneWayAdoption adoption;
  const TransitionTable table(adoption);
  const std::vector<Count> counts = {5, 3, 2};
  PairLaw law;
  law.rebuild(table, Configuration(counts));
  ASSERT_EQ(law.size(), 6u);
  for (State a = 0; a < 3; ++a) {
    for (State b = 0; b < 3; ++b) {
      if (a == b) continue;
      const std::size_t i = testutil::class_of(law, a, b);
      ASSERT_LT(i, law.size());
      EXPECT_EQ(law.a(i), a);
      EXPECT_EQ(law.b(i), b);
      EXPECT_EQ(law.transition(i), (Transition{a, a}));
      EXPECT_EQ(law.weight(i), static_cast<double>(counts[a] * counts[b]));
    }
  }
}

TEST(PairLawTest, MirroredPairsThatRefillADrainedSideStayOrdered) {
  const Swap swap;
  const TransitionTable table(swap);
  PairLaw law;
  law.rebuild(table, Configuration({4, 3}));
  ASSERT_EQ(law.size(), 2u);
  EXPECT_EQ(testutil::class_of(law, 0, 1), 0u);
  EXPECT_EQ(testutil::class_of(law, 1, 0), 1u);
  EXPECT_EQ(law.weight(0), 12.0);
  EXPECT_EQ(law.weight(1), 12.0);
}

TEST(PairLawTest, MergedClassClampEqualsItsOrderedMembersInSequence) {
  // m interactions of a merged USD class through apply_one must leave the
  // same counts and clamp count as m1 interactions of (a, b) followed by
  // m − m1 of (b, a), each through apply_one on its own ordered entry, for
  // every split — including overdraws ({0, 3, 2}: class (1, 2) drains at
  // most 2 clashes, m = 5 asks for 5).
  const UndecidedStateDynamics usd(2);
  const TransitionTable table(usd);
  bool clamped_somewhere = false;
  for (const std::vector<Count>& counts :
       {std::vector<Count>{0, 3, 2}, std::vector<Count>{2, 3, 1},
        std::vector<Count>{4, 1, 2}}) {
    const Configuration start(counts);
    PairLaw law;
    law.rebuild(table, start);
    for (std::size_t i = 0; i < law.size(); ++i) {
      const State a = law.a(i);
      const State b = law.b(i);
      ASSERT_NE(a, b);
      ASSERT_EQ(testutil::class_of(law, b, a), i) << "not merged";
      const UsdWithoutPair only_ab(2, b, a);
      const UsdWithoutPair only_ba(2, a, b);
      const TransitionTable table_ab(only_ab);
      const TransitionTable table_ba(only_ba);
      PairLaw law_ab;
      PairLaw law_ba;
      law_ab.rebuild(table_ab, start);
      law_ba.rebuild(table_ba, start);
      const std::size_t i_ab = testutil::class_of(law_ab, a, b);
      const std::size_t i_ba = testutil::class_of(law_ba, b, a);
      ASSERT_TRUE(law_ab.a(i_ab) == a && law_ab.b(i_ab) == b);
      ASSERT_TRUE(law_ba.a(i_ba) == b && law_ba.b(i_ba) == a);
      for (const Interactions m : {1, 2, 3, 5, 8}) {
        Configuration merged = start;
        const ApplyResult whole = apply_one(law, merged, i, m);
        clamped_somewhere = clamped_somewhere || whole.clamped > 0;
        for (Interactions m1 = 0; m1 <= m; ++m1) {
          Configuration seq = start;
          const ApplyResult first = apply_one(law_ab, seq, i_ab, m1);
          const ApplyResult second = apply_one(law_ba, seq, i_ba, m - m1);
          EXPECT_EQ(seq.counts(), merged.counts())
              << "class (" << a << ", " << b << ") m=" << m << " m1=" << m1;
          EXPECT_EQ(first.clamped + second.clamped, whole.clamped)
              << "class (" << a << ", " << b << ") m=" << m << " m1=" << m1;
        }
      }
    }
  }
  EXPECT_TRUE(clamped_somewhere);
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
