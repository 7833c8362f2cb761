#include "ppsim/util/rng.hpp"

namespace ppsim {

namespace {

// Shared driver for jump() / long_jump(): both are linear maps of the state
// implemented as a GF(2) polynomial evaluated by 256 single-step advances
// (Blackman & Vigna's reference implementation).
template <typename Step>
std::array<std::uint64_t, 4> polynomial_jump(
    const std::array<std::uint64_t, 4>& poly,
    const std::array<std::uint64_t, 4>& state, Step&& step) {
  std::array<std::uint64_t, 4> current = state;
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : poly) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (std::uint64_t{1} << bit)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= current[i];
      }
      step(current);
    }
  }
  return acc;
}

void advance_one(std::array<std::uint64_t, 4>& s) noexcept {
  // One xoshiro256++ state transition (the output computation is irrelevant
  // for jumping; only the linear state map matters).
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
}

}  // namespace

void Xoshiro256pp::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
      0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  state_ = polynomial_jump(kJump, state_, advance_one);
}

void Xoshiro256pp::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kLongJump = {
      0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
      0x77710069854ee241ull, 0x39109bb02acbe635ull};
  state_ = polynomial_jump(kLongJump, state_, advance_one);
}

Xoshiro256pp Xoshiro256pp::stream(std::uint64_t index) const noexcept {
  // O(1) derivation, independent of `index` (the pre-PR3 implementation
  // chained `index + 1` jump() calls, making sweep setup quadratic in the
  // trial count; the outputs deliberately changed — see rng_test for the
  // locked replacements).
  //
  // SplitMix64's first output is a bijection of its seed, so distinct
  // indices are guaranteed to perturb word 0 differently: streams for
  // distinct indices start from distinct states. long_jump() (a bijection)
  // then moves the derived state 2^192 draws away from the perturbed point,
  // decorrelating it from the base generator's neighbourhood. Overlap
  // between any two streams within 2^128 draws is not structurally excluded
  // (as chained jumps would) but has probability ~2^-128 per pair — far
  // below any physical failure rate.
  Xoshiro256pp out = *this;
  SplitMix64 sm(index);
  bool nonzero = false;
  for (auto& w : out.state_) {
    w ^= sm.next();
    nonzero = nonzero || w != 0;
  }
  if (!nonzero) out.state_[3] = 0x9e3779b97f4a7c15ull;  // xoshiro forbids 0
  out.long_jump();
  return out;
}

}  // namespace ppsim
