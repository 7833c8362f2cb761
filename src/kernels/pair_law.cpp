#include "ppsim/kernels/pair_law.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"
#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {

namespace {

/// True when (a, b) and (b, a), a ≠ b, form one interaction class: f(b, a)
/// is the mirror of t = f(a, b), so either order moves the same agents to the
/// same states, and no side the interaction drains is also refilled by it.
/// The second condition makes apply_one's clamp on the merged count equal
/// the two ordered clamps applied one after the other, for any split.
bool merges_with_mirror(const TransitionTable& table, State a, State b,
                        const Transition& t) {
  const Transition mirror = table.apply(b, a);
  if (mirror.initiator != t.responder || mirror.responder != t.initiator) {
    return false;
  }
  if (t.initiator != a && t.responder == a) return false;
  if (t.responder != b && t.initiator == b) return false;
  return true;
}

/// Off-diagonal (a, b) sends both agents to one state outside {a, b}: an
/// edge of the graph whose complete components are block candidates.
bool joins(const TransitionTable& table, State a, State b) {
  const Transition t = table.apply(a, b);
  return a != b && t.initiator == t.responder && t.initiator != a &&
         t.initiator != b;
}

using Wide = unsigned __int128;

}  // namespace

void PairLaw::detect_structure(const TransitionTable& table) {
  const auto q = static_cast<State>(table.num_states());
  // The block is the first connected component of the joins() graph, in
  // state order, that has at least three members, is complete with every
  // off-diagonal pair mapping to one (g, g), and leaves g outside itself.
  members_.clear();
  block_target_ = 0;
  std::vector<char> seen(q, 0);
  std::vector<State> component;
  for (State root = 0; root < q && members_.empty(); ++root) {
    if (seen[root] != 0) continue;
    seen[root] = 1;
    component.assign(1, root);
    for (std::size_t head = 0; head < component.size(); ++head) {
      const State u = component[head];
      for (State v = 0; v < q; ++v) {
        if (seen[v] == 0 && (joins(table, u, v) || joins(table, v, u))) {
          seen[v] = 1;
          component.push_back(v);
        }
      }
    }
    if (component.size() < 3) continue;
    std::sort(component.begin(), component.end());
    const State g = table.apply(component[0], component[1]).initiator;
    bool complete = !std::binary_search(component.begin(), component.end(), g);
    for (const State a : component) {
      for (const State b : component) {
        if (a != b && table.apply(a, b) != Transition{g, g}) complete = false;
      }
    }
    if (complete) {
      members_ = component;
      block_target_ = g;
    }
  }
  in_block_.assign(q, 0);
  for (const State s : members_) in_block_[s] = 1;

  pairs_.clear();
  for (State a = 0; a < q; ++a) {
    for (State b = 0; b < q; ++b) {
      if (table.is_null(a, b)) continue;
      if (a != b && in_block_[a] != 0 && in_block_[b] != 0) continue;
      const Transition t = table.apply(a, b);
      const bool merged = a != b && merges_with_mirror(table, a, b, t);
      if (merged && b < a) continue;  // listed as (b, a), its representative
      pairs_.push_back({a, b, t, merged});
    }
  }
  structure_of_ = &table;
}

void PairLaw::rebuild(const TransitionTable& table, const Configuration& config) {
  PPSIM_CHECK(table.num_states() == config.num_states(),
              "configuration/table state mismatch");
  if (structure_of_ != &table) detect_structure(table);
  const auto n = static_cast<double>(config.population());
  total_weight_ = n * (n - 1.0);
  a_.clear();
  b_.clear();
  t_.clear();
  weight_.clear();
  const auto& counts = config.counts();
  // Exact sums: every weight is below 2^106 (counts ≤ 2^53) and the totals
  // below 2^107, so 128-bit integers hold them and each reported sum is
  // rounded to double once.
  std::vector<Wide>& consumption = wide_consumption_;
  consumption.assign(counts.size(), 0);
  Wide active = 0;
  for (const PairEntry& p : pairs_) {
    const Count ca = counts[p.a];
    const Count cb = p.a == p.b ? counts[p.b] - 1 : counts[p.b];
    if (ca <= 0 || cb <= 0) continue;
    Wide w = static_cast<Wide>(ca) * static_cast<Wide>(cb);
    if (p.merged) w += w;  // w(a,b) + w(b,a) = 2·c_a·c_b
    active += w;
    // One interaction on (a, b) removes an agent from each side whose state
    // actually changes — exactly what apply_one will move, so the collapsed
    // engine's τ drain bound matches the clamp's exposure. A merged class's
    // mirror member drains the same sides, so the doubled w covers both.
    if (p.t.initiator != p.a) consumption[p.a] += w;
    if (p.t.responder != p.b) consumption[p.b] += w;
    a_.push_back(p.a);
    b_.push_back(p.b);
    t_.push_back(p.t);
    weight_.push_back(static_cast<double>(w));
  }

  // The block: suffix sums Q_j = Q_{j+1} + c_j and P_j = c_j·Q_{j+1} + P_{j+1}
  // over the live members, walked backwards. Q² − Σc² would give P_0 too,
  // but cancels catastrophically near consensus.
  block_ = weight_.size();
  steps_.clear();
  for (const State s : members_) {
    if (counts[s] > 0) steps_.push_back({s, 0.0, 0.0});
  }
  if (steps_.size() < 2) {
    steps_.clear();  // no two live members: no clash can happen
  } else {
    Wide q_next = 0;  // Q_{j+1}
    Wide p_next = 0;  // P_{j+1}
    for (std::size_t j = steps_.size(); j-- > 0;) {
      const auto c = static_cast<Wide>(counts[steps_[j].state]);
      const Wide lead = c * q_next;
      p_next += lead;
      q_next += c;
      steps_[j].lead = p_next == 0 ? 0.0
                                   : static_cast<double>(lead) /
                                         static_cast<double>(p_next);
      steps_[j].owed = static_cast<double>(c) / static_cast<double>(q_next);
    }
    for (const BlockStep& step : steps_) {
      const auto c = static_cast<Wide>(counts[step.state]);
      consumption[step.state] += 2 * c * (q_next - c);
    }
    active += 2 * p_next;
    a_.push_back(steps_[0].state);
    b_.push_back(steps_[1].state);
    t_.push_back({block_target_, block_target_});
    weight_.push_back(static_cast<double>(2 * p_next));
  }

  active_weight_ = static_cast<double>(active);
  consumption_.resize(counts.size());
  for (std::size_t s = 0; s < counts.size(); ++s) {
    consumption_[s] = static_cast<double>(consumption[s]);
  }
  ++generation_;
}

const AliasTable& PairLaw::alias() const {
  PPSIM_CHECK(!empty(), "alias table requires at least one active pair");
  if (alias_generation_ != generation_) {
    alias_ = AliasTable(weight_);
    alias_generation_ = generation_;
  }
  return alias_;
}

ApplyResult apply_one(const PairLaw& law, Configuration& config, std::size_t i,
                      Interactions m) {
  PPSIM_CHECK(i != law.block(), "the block commits through apply_block");
  ApplyResult result;
  const State a = law.a(i);
  const State b = law.b(i);
  const Transition& t = law.transition(i);
  const Interactions drawn = m;
  // Clamp to the live counts: earlier classes in this round may have drained
  // a state below what the start-of-round weights promised. Every clamp keeps
  // the bulk result inside the sequential chain's reachable set: each (a, a)
  // interaction needs two live a-agents, so with one leaver at most count-1
  // interactions can fire (never draining the state), and with two leavers
  // at most count/2.
  if (a == b) {
    const int leavers = (t.initiator != a ? 1 : 0) + (t.responder != a ? 1 : 0);
    const Interactions cap =
        leavers == 2 ? config.count(a) / 2 : config.count(a) - 1;
    m = std::min(m, std::max<Interactions>(0, cap));
    result.clamped = drawn - m;
    if (m == 0) return result;
    if (t.initiator != a) config.move_agents(a, t.initiator, m);
    if (t.responder != a) config.move_agents(a, t.responder, m);
  } else {
    // Both participants must be live, even on the side f leaves unchanged.
    if (config.count(a) == 0 || config.count(b) == 0) {
      result.clamped = drawn;
      return result;
    }
    if (t.initiator != a) m = std::min<Interactions>(m, config.count(a));
    if (t.responder != b) m = std::min<Interactions>(m, config.count(b));
    result.clamped = drawn - m;
    if (m == 0) return result;
    // Remove both participants before re-adding so a swap transition
    // (f(a,b) = (b,a)) never transiently overdraws either state.
    config.move_agents(a, t.initiator, m);
    config.move_agents(b, t.responder, m);
  }
  result.moved = true;
  return result;
}

void sample_involvement(const PairLaw& law, Xoshiro256pp& rng,
                        Interactions clashes,
                        std::vector<std::int64_t>& involvement) {
  PPSIM_CHECK(clashes == 0 || law.has_block(),
              "clash endpoints need a block to land on");
  const auto& steps = law.block_steps();
  involvement.assign(steps.size(), 0);
  Interactions unplaced = clashes;  // R: clashes whose smaller member is ahead
  Interactions owed = 0;            // H: endpoints owed to members ahead
  for (std::size_t j = 0; j < steps.size() && unplaced + owed > 0; ++j) {
    const Interactions lead = binomial(rng, unplaced, steps[j].lead);
    const Interactions landed = binomial(rng, owed, steps[j].owed);
    involvement[j] = lead + landed;
    unplaced -= lead;
    owed += lead - landed;
  }
}

ApplyResult apply_block(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& involvement) {
  const auto& steps = law.block_steps();
  PPSIM_CHECK(involvement.size() == steps.size(),
              "involvement must be indexed like the block's live members");
  ApplyResult result;
  Interactions lost = 0;
  for (std::size_t j = 0; j < involvement.size(); ++j) {
    if (involvement[j] <= 0) continue;
    const State s = steps[j].state;
    const Interactions m = std::min<Interactions>(involvement[j], config.count(s));
    lost += involvement[j] - m;
    if (m == 0) continue;
    config.move_agents(s, law.block_target(), m);
    result.moved = true;
  }
  result.clamped = (lost + 1) / 2;
  return result;
}

ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws,
                        const std::vector<std::int64_t>& involvement) {
  ApplyResult result;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    if (draws[i] <= 0) continue;
    const ApplyResult one = i == law.block()
                                ? apply_block(law, config, involvement)
                                : apply_one(law, config, i, draws[i]);
    result.clamped = sat_add(result.clamped, one.clamped);
    result.moved = result.moved || one.moved;
  }
  return result;
}

}  // namespace ppsim::kernels
