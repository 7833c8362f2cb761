// The kernels layer's plumbing: the kernel's report name, PairLaw's
// generation-counter invalidation, its mirror-class grouping (checked against
// the ordered law in ordered_pair_law.hpp, and apply_one's clamp against the
// ordered members), its clash block (which protocols form one, and
// apply_block against the ordered clashes in sequence), and the collapsed
// engine's staging API (stage_round + kernel().advance + commit_round ≡
// step_round).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ordered_pair_law.hpp"
#include "ppsim/core/collapsed_simulator.hpp"
#include "ppsim/core/configuration.hpp"
#include "ppsim/core/transition_table.hpp"
#include "ppsim/kernels/pair_law.hpp"
#include "ppsim/kernels/round_kernel.hpp"
#include "ppsim/protocols/cancel_duplicate.hpp"
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
  // k = 4 with undecided agents: 4 adoption classes (⊥, i), each listed once
  // as (min, max) with weight 2·c_⊥·c_i, then the clash block last, with
  // weight Σ_{i≠j} c_i·c_j over the 12 ordered clash pairs.
  const UndecidedStateDynamics usd(4);
  const TransitionTable table(usd);
  const std::vector<Count> counts = {12, 40, 30, 25, 18};
  PairLaw law;
  law.rebuild(table, Configuration(counts));
  ASSERT_EQ(law.size(), 5u);
  ASSERT_EQ(law.block(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(law.a(i), 0u);
    EXPECT_EQ(law.b(i), i + 1);
    EXPECT_EQ(law.weight(i), 2.0 * static_cast<double>(counts[law.a(i)]) *
                                 static_cast<double>(counts[law.b(i)]));
  }
  double clashes = 0.0;
  for (State a = 1; a <= 4; ++a) {
    for (State b = 1; b <= 4; ++b) {
      if (a != b) clashes += static_cast<double>(counts[a] * counts[b]);
    }
  }
  EXPECT_EQ(law.weight(4), clashes);
  EXPECT_EQ(law.transition(4), (Transition{0, 0}));
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

// ---------------------------------------------------------------- block --

TEST(PairLawTest, UsdFormsOneBlockOfItsOpinions) {
  for (const std::size_t k : {3u, 4u, 9u}) {
    const UndecidedStateDynamics usd(k);
    const TransitionTable table(usd);
    std::vector<Count> counts(k + 1, 5);
    PairLaw law;
    law.rebuild(table, Configuration(counts));
    SCOPED_TRACE(usd.name());
    EXPECT_FALSE(law.in_block(UndecidedStateDynamics::kUndecided));
    for (State s = 1; s <= k; ++s) EXPECT_TRUE(law.in_block(s));
    EXPECT_EQ(law.block_target(), UndecidedStateDynamics::kUndecided);
    ASSERT_TRUE(law.has_block());
    EXPECT_EQ(law.size(), k + 1);  // k adoption classes + the block
    ASSERT_EQ(law.block_steps().size(), k);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_EQ(law.block_steps()[j].state, j + 1);
    }
  }
  // Two opinions form no block: the single clash pair stays a merged class
  // (PairLawTest.MergedClassClampEqualsItsOrderedMembersInSequence).
  const UndecidedStateDynamics usd2(2);
  const TransitionTable table2(usd2);
  PairLaw law2;
  law2.rebuild(table2, Configuration({1, 4, 3}));
  EXPECT_FALSE(law2.has_block());
  EXPECT_FALSE(law2.in_block(1));
  EXPECT_EQ(law2.size(), 3u);
}

void expect_no_block(const Protocol& protocol, const Configuration& config) {
  SCOPED_TRACE(protocol.name());
  const TransitionTable table(protocol);
  PairLaw law;
  law.rebuild(table, config);
  EXPECT_FALSE(law.has_block());
  EXPECT_EQ(law.block(), law.size());
  EXPECT_TRUE(law.block_steps().empty());
  for (State s = 0; s < protocol.num_states(); ++s) {
    EXPECT_FALSE(law.in_block(s)) << "state " << s;
  }
}

TEST(PairLawTest, OtherProtocolsFormNoBlock) {
  expect_no_block(OneWayAdoption(), Configuration({5, 3, 2}));
  expect_no_block(Swap(), Configuration({4, 3}));
  // Duplication sends (token, blank) to (half, half), but blank pairs are
  // null and each side's cancellation leaves its own blank.
  const CancellationDuplication cancel(3);
  expect_no_block(cancel,
                  Configuration(std::vector<Count>(cancel.num_states(), 3)));
  expect_no_block(FourStateMajority(), Configuration({4, 3, 2, 1}));
  expect_no_block(LeaderElection(), Configuration({3, 7}));
  // Every clash but (3, 4) maps to (⊥, ⊥): the component is not complete.
  expect_no_block(UsdWithoutPair(4, 3, 4), Configuration({1, 4, 3, 2, 5}));
}

/// Involvement of the ordered clash pairs `clashes`, indexed like
/// law.block_steps().
std::vector<std::int64_t> involvement_of(
    const PairLaw& law, const std::vector<std::pair<State, State>>& clashes) {
  std::vector<std::int64_t> involvement(law.block_steps().size(), 0);
  for (const auto& [a, b] : clashes) {
    for (std::size_t j = 0; j < involvement.size(); ++j) {
      const State s = law.block_steps()[j].state;
      if (s == a || s == b) ++involvement[j];
    }
  }
  return involvement;
}

TEST(PairLawTest, BlockCommitEqualsOrderedClashesInSequenceWhenNoCapBinds) {
  // Every sequence of up to three ordered clash pairs, on counts where no
  // opinion can be asked for more agents than it has. The reference applies
  // each pair through apply_one on a law with no block: USD on k + 1
  // opinions with (k, k + 1) made null, so the clash graph is not complete,
  // and the extra opinion has no agents.
  constexpr std::size_t kK = 4;
  const UndecidedStateDynamics usd(kK);
  const TransitionTable table(usd);
  const UsdWithoutPair no_block(kK + 1, kK, kK + 1);
  const TransitionTable ref_table(no_block);
  for (const std::vector<Count>& counts :
       {std::vector<Count>{3, 6, 5, 4, 7}, std::vector<Count>{2, 5, 0, 4, 3}}) {
    const Configuration start(counts);
    std::vector<Count> ref_counts = counts;
    ref_counts.push_back(0);
    const Configuration ref_start(ref_counts);
    PairLaw law;
    PairLaw ref_law;
    law.rebuild(table, start);
    ref_law.rebuild(ref_table, ref_start);
    ASSERT_TRUE(law.has_block());
    ASSERT_FALSE(ref_law.has_block());

    std::vector<std::pair<State, State>> pairs;
    for (State a = 1; a <= kK; ++a) {
      for (State b = 1; b <= kK; ++b) {
        if (a != b && counts[a] > 0 && counts[b] > 0) pairs.emplace_back(a, b);
      }
    }
    std::vector<std::size_t> pick;
    for (std::size_t m = 1; m <= 3; ++m) {
      pick.assign(m, 0);
      while (true) {
        std::vector<std::pair<State, State>> clashes;
        Configuration seq = ref_start;
        Interactions seq_clamped = 0;
        for (const std::size_t p : pick) {
          clashes.push_back(pairs[p]);
          const std::size_t i =
              testutil::class_of(ref_law, pairs[p].first, pairs[p].second);
          ASSERT_LT(i, ref_law.size());
          seq_clamped += apply_one(ref_law, seq, i, 1).clamped;
        }
        Configuration block = start;
        const ApplyResult applied =
            apply_block(law, block, involvement_of(law, clashes));
        std::vector<Count> expected = seq.counts();
        ASSERT_EQ(expected.back(), 0);
        expected.pop_back();
        ASSERT_EQ(block.counts(), expected) << "m=" << m;
        ASSERT_EQ(seq_clamped, 0);
        ASSERT_EQ(applied.clamped, 0);
        EXPECT_TRUE(applied.moved);
        std::size_t d = 0;
        while (d < m && ++pick[d] == pairs.size()) pick[d++] = 0;
        if (d == m) break;
      }
    }
  }
}

TEST(PairLawTest, BlockCapIsPerEndpoint) {
  // USD k = 3 with one agent each on opinions 1 and 2: the clashes
  // (1, 2), (1, 3) ask opinion 1 for two agents. The block moves the one it
  // has, and still moves the 3-endpoint of the clash that lost its partner;
  // in sequence (1, 3) would not fire at all. One endpoint lost is
  // clamped = ⌈1/2⌉ = 1.
  const UndecidedStateDynamics usd(3);
  const TransitionTable table(usd);
  const Configuration start({0, 1, 1, 5});
  PairLaw law;
  law.rebuild(table, start);
  ASSERT_TRUE(law.has_block());
  Configuration config = start;
  ApplyResult applied =
      apply_block(law, config, involvement_of(law, {{1, 2}, {1, 3}}));
  EXPECT_EQ(config.counts(), (std::vector<Count>{3, 0, 0, 4}));
  EXPECT_EQ(applied.clamped, 1);
  // (1, 3), (2, 3), (1, 2): two endpoints lost, one clash — here the block
  // and the sequence agree, counts and clamp alike.
  config = start;
  applied = apply_block(law, config,
                        involvement_of(law, {{1, 3}, {2, 3}, {1, 2}}));
  EXPECT_EQ(config.counts(), (std::vector<Count>{4, 0, 0, 3}));
  EXPECT_EQ(applied.clamped, 1);
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
