// AVX2 round kernel: up to four lockstep trials of the same sweep cell,
// each advanced exactly as the scalar kernel would advance it alone.
//
// Shape of the implementation (real code only when PPSIM_KERNELS_AVX2 is
// set by CMake after the -mavx2 feature check; otherwise this file compiles
// to the "compiled out" registry stubs):
//
//   * The four trial generators are run as lanes of a SIMD xoshiro256++
//     (one __m256i per state word, the exact update rule of
//     util/rng.hpp's scalar generator). Each advance loads the tasks' live
//     256-bit states into the lanes and stores them back afterwards, so a
//     trial's randomness still flows through its own checkpointable RNG.
//     One _mm256 step produces one uniform52() per lane, and a lane's state
//     moves only on the steps that lane consumes (a blend on the pending
//     mask).
//   * The binomial math is util/random_variates' sampler (inversion below
//     n·p = 10, BTRS above), inlined per lane: every still-pending lane
//     takes one (u, v) attempt per shared block until it accepts.
//   * The multinomial is the same conditional-binomial chain as the scalar
//     kernel, walked bucket-by-bucket across all lanes so the per-bucket
//     binomials share their uniform blocks.
//
// Determinism: a lane consumes exactly the uniforms binomial() would draw
// from that trial's generator, so advance() and every lane of an
// advance_batch() group are byte-identical to the scalar kernel's
// advance() on the same task. tests/kernel_dispatch_test.cpp pins that
// byte identity; tests/kernel_distribution_test.cpp keeps the
// distributional gates (chi-square on the exact pair law, binomial moments
// at extreme parameters) as a second line.
#include "ppsim/kernels/round_kernel.hpp"

#if PPSIM_KERNELS_AVX2

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "ppsim/util/random_variates.hpp"

namespace ppsim::kernels {
namespace {

using binomial_detail::BinomialDraw;

constexpr std::size_t kLanes = 4;

/// Four xoshiro256++ generators advanced in lockstep, states resident in
/// registers. Uses exactly util/rng.hpp's update rule so the states written
/// back remain valid checkpointable Xoshiro256pp states.
class Xoshiro4 {
 public:
  void load(RoundTask* const* tasks, std::size_t count) {
    std::array<std::array<std::uint64_t, 4>, kLanes> st;
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Unused trailing lanes mirror lane 0; they are never in a step's
      // mask and their state is never stored back.
      st[l] = tasks[std::min(l, count - 1)]->rng->state();
    }
    for (int w = 0; w < 4; ++w) {
      s_[w] = _mm256_set_epi64x(
          static_cast<long long>(st[3][w]), static_cast<long long>(st[2][w]),
          static_cast<long long>(st[1][w]), static_cast<long long>(st[0][w]));
    }
  }

  void store(RoundTask* const* tasks, std::size_t count) const {
    alignas(32) std::uint64_t w[4][kLanes];
    for (int i = 0; i < 4; ++i) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(w[i]), s_[i]);
    }
    for (std::size_t l = 0; l < count; ++l) {
      tasks[l]->rng->set_state({w[0][l], w[1][l], w[2][l], w[3][l]});
    }
  }

  /// One lockstep step on the lanes whose 64-bit `mask` word is all ones:
  /// writes uniform52() of each such lane's next output and advances only
  /// those lanes' states. Masked-off lanes keep their state; their slot of
  /// `out` is meaningless.
  void uniforms(__m256i mask, double out[kLanes]) {
    const __m256i bits = _mm256_srli_epi64(next(mask), 12);
    const __m256i one = _mm256_set1_epi64x(0x3FF0000000000000LL);
    const __m256d d = _mm256_castsi256_pd(_mm256_or_si256(bits, one));
    _mm256_storeu_pd(out, _mm256_sub_pd(d, _mm256_set1_pd(1.0)));
  }

 private:
  static __m256i rotl(__m256i x, int k) {
    return _mm256_or_si256(_mm256_slli_epi64(x, k),
                           _mm256_srli_epi64(x, 64 - k));
  }

  __m256i next(__m256i mask) {
    const __m256i result =
        _mm256_add_epi64(rotl(_mm256_add_epi64(s_[0], s_[3]), 23), s_[0]);
    const __m256i t = _mm256_slli_epi64(s_[1], 17);
    __m256i s2 = _mm256_xor_si256(s_[2], s_[0]);
    __m256i s3 = _mm256_xor_si256(s_[3], s_[1]);
    const __m256i s1 = _mm256_xor_si256(s_[1], s2);
    const __m256i s0 = _mm256_xor_si256(s_[0], s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl(s3, 45);
    s_[0] = _mm256_blendv_epi8(s_[0], s0, mask);
    s_[1] = _mm256_blendv_epi8(s_[1], s1, mask);
    s_[2] = _mm256_blendv_epi8(s_[2], s2, mask);
    s_[3] = _mm256_blendv_epi8(s_[3], s3, mask);
    return result;
  }

  __m256i s_[4];
};

/// Drains the pending lanes' draws: every iteration steps the pending lanes
/// twice for one (u, v) block and gives each its attempt. Inversion lanes
/// finish on their first block, BTRS lanes loop until they accept, and
/// lanes that are not pending (trivial draws, finished chains) consume
/// nothing — so each lane reads exactly the uniforms binomial() would.
void resolve_binomials(Xoshiro4& gen, BinomialDraw* draws, bool* pending,
                       std::size_t count) {
  alignas(32) std::int64_t mask[kLanes];
  double u[kLanes];
  double v[kLanes];
  for (;;) {
    bool any = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const bool on = l < count && pending[l];
      mask[l] = on ? -1 : 0;
      any = any || on;
    }
    if (!any) return;
    const __m256i m = _mm256_load_si256(reinterpret_cast<const __m256i*>(mask));
    gen.uniforms(m, u);
    gen.uniforms(m, v);
    for (std::size_t l = 0; l < count; ++l) {
      if (pending[l] && draws[l].attempt(u[l], v[l])) pending[l] = false;
    }
  }
}

class Avx2Kernel final : public RoundKernel {
 public:
  KernelKind kind() const noexcept override { return KernelKind::kAvx2; }
  std::size_t lockstep_width() const noexcept override { return kLanes; }

  void advance(RoundTask& task) const override {
    RoundTask* one[1] = {&task};
    advance_group(one, 1);
  }

  void advance_batch(std::span<RoundTask* const> tasks) const override {
    for (std::size_t i = 0; i < tasks.size(); i += kLanes) {
      advance_group(tasks.data() + i, std::min(kLanes, tasks.size() - i));
    }
  }

 private:
  static void advance_group(RoundTask* const* tasks, std::size_t count) {
    Xoshiro4 gen;
    gen.load(tasks, count);

    // Stage 1: the null split — Binomial(batch, active/total) per lane.
    BinomialDraw draws[kLanes];
    bool pending[kLanes] = {};
    for (std::size_t l = 0; l < count; ++l) {
      const PairLaw& law = *tasks[l]->law;
      pending[l] = draws[l].init(tasks[l]->batch,
                                 law.active_weight() / law.total_weight());
    }
    resolve_binomials(gen, draws, pending, count);

    // Stage 2: the conditional-binomial multinomial chain, bucket position
    // by bucket position across the lanes. Lane l walks its own law's
    // weights; lanes that finish (remaining hits 0 or buckets exhausted)
    // drop out of the uniform supply.
    std::int64_t remaining[kLanes];
    double mass[kLanes];
    for (std::size_t l = 0; l < count; ++l) {
      const PairLaw& law = *tasks[l]->law;
      tasks[l]->active = draws[l].value();
      tasks[l]->draws->assign(law.size(), 0);
      remaining[l] = draws[l].value();
      mass[l] = law.active_weight();
    }
    for (std::size_t i = 0;; ++i) {
      bool any = false;
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<double>& w = tasks[l]->law->weights();
        pending[l] = false;
        if (remaining[l] <= 0 || i + 1 >= w.size()) continue;
        const double p = mass[l] > 0.0 ? w[i] / mass[l] : 0.0;
        pending[l] = draws[l].init(remaining[l], p);
        any = true;
      }
      if (!any) break;
      resolve_binomials(gen, draws, pending, count);
      for (std::size_t l = 0; l < count; ++l) {
        const std::vector<double>& w = tasks[l]->law->weights();
        if (remaining[l] <= 0 || i + 1 >= w.size()) continue;
        const std::int64_t draw = draws[l].value();
        (*tasks[l]->draws)[i] = draw;
        remaining[l] -= draw;
        mass[l] -= w[i];
      }
    }
    // The last bucket absorbs what the chain left, exactly as the scalar
    // multinomial does.
    for (std::size_t l = 0; l < count; ++l) {
      if (remaining[l] > 0 && !tasks[l]->draws->empty()) {
        tasks[l]->draws->back() += remaining[l];
      }
    }

    gen.store(tasks, count);
  }
};

}  // namespace

bool avx2_compiled() noexcept { return true; }

const RoundKernel* avx2_kernel_or_null() noexcept {
  static const Avx2Kernel kernel;
  return &kernel;
}

}  // namespace ppsim::kernels

#else  // !PPSIM_KERNELS_AVX2

namespace ppsim::kernels {

bool avx2_compiled() noexcept { return false; }

const RoundKernel* avx2_kernel_or_null() noexcept { return nullptr; }

}  // namespace ppsim::kernels

#endif
