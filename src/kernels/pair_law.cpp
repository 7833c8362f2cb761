#include "ppsim/kernels/pair_law.hpp"

#include <algorithm>

#include "ppsim/util/check.hpp"

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

}  // namespace

void PairLaw::rebuild(const TransitionTable& table, const Configuration& config) {
  const auto n = static_cast<double>(config.population());
  total_weight_ = n * (n - 1.0);
  a_.clear();
  b_.clear();
  t_.clear();
  weight_.clear();
  consumption_.assign(config.num_states(), 0.0);
  active_weight_ = 0.0;
  const auto& counts = config.counts();
  const auto q = static_cast<State>(config.num_states());
  for (State a = 0; a < q; ++a) {
    if (counts[a] == 0) continue;
    for (State b = 0; b < q; ++b) {
      if (counts[b] == 0) continue;
      if (a == b && counts[a] < 2) continue;
      if (table.is_null(a, b)) continue;
      const double w = static_cast<double>(counts[a]) *
                       static_cast<double>(a == b ? counts[b] - 1 : counts[b]);
      const Transition t = table.apply(a, b);
      // The sums run over ordered pairs in one fixed order whether or not a
      // pair merges, so they (and the τ they feed) do not depend on the
      // grouping.
      active_weight_ += w;
      // One interaction on (a, b) removes an agent from each side whose
      // state actually changes — exactly what apply_one will move, so the
      // collapsed engine's τ drain bound matches the clamp's exposure.
      if (t.initiator != a) consumption_[a] += w;
      if (t.responder != b) consumption_[b] += w;
      double entry = w;
      if (a != b && merges_with_mirror(table, a, b, t)) {
        if (b < a) continue;  // listed as (b, a), its class representative
        entry = w + w;        // w(a,b) + w(b,a) = 2·c_a·c_b, exact
      }
      a_.push_back(a);
      b_.push_back(b);
      t_.push_back(t);
      weight_.push_back(entry);
    }
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

ApplyResult apply_draws(const PairLaw& law, Configuration& config,
                        const std::vector<std::int64_t>& draws) {
  ApplyResult result;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    if (draws[i] <= 0) continue;
    const ApplyResult one = apply_one(law, config, i, draws[i]);
    result.clamped = sat_add(result.clamped, one.clamped);
    result.moved = result.moved || one.moved;
  }
  return result;
}

}  // namespace ppsim::kernels
