#include "fpga/bn_engine.hpp"

#include <cstdint>
#include <limits>

#include "fixed/fixed_math.hpp"
#include "util/check.hpp"

namespace odenet::fpga {
namespace {
// 128-bit intermediates keep the variance sum and the normalize products
// defined on rail inputs (GCC/Clang builtin on every 64-bit target).
using Wide = unsigned __int128;
using SWide = __int128;

/// Pass 3 over one plane:
/// y = qmul(qmul(x - mean, inv_std), gamma) + beta (+ ReLU), saturated to
/// the 32-bit raw; qmul is the Q(fb) product rounded half away from zero.
/// The products need up to 2^93 and 2^124 on rail inputs: 128 bits.
void normalize_plane(const std::int32_t* src, std::int32_t* dst,
                     std::size_t n, std::int64_t mean, std::int64_t inv_std,
                     std::int64_t gamma, std::int64_t beta, int fb,
                     bool relu) {
  const SWide half = SWide{1} << (fb - 1);
  auto qmul = [fb, half](SWide a, SWide v) {
    const SWide p = a * v;
    return p >= 0 ? (p + half) >> fb : -((-p + half) >> fb);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const SWide centered = static_cast<std::int64_t>(src[i]) - mean;
    SWide y = qmul(qmul(centered, inv_std), gamma) + beta;
    if (relu && y < 0) y = 0;
    if (y > std::numeric_limits<std::int32_t>::max()) {
      y = std::numeric_limits<std::int32_t>::max();
    } else if (y < std::numeric_limits<std::int32_t>::min()) {
      y = std::numeric_limits<std::int32_t>::min();
    }
    dst[i] = static_cast<std::int32_t>(y);
  }
}
}  // namespace

BnEngine::BnEngine(const BnEngineConfig& cfg) : cfg_(cfg) {
  ODENET_CHECK(cfg.channels > 0 && cfg.extent > 0,
               "bn engine needs positive geometry");
  ODENET_CHECK(cfg.frac_bits > 0 && cfg.frac_bits < 31,
               "bad frac_bits " << cfg.frac_bits);
}

void BnEngine::load_params(const fixed::FixedTensor& gamma,
                           const fixed::FixedTensor& beta) {
  ODENET_CHECK(gamma.numel() == static_cast<std::size_t>(cfg_.channels) &&
                   beta.numel() == static_cast<std::size_t>(cfg_.channels),
               "bn param size mismatch");
  gamma_ = gamma.raw;
  beta_ = beta.raw;
}

std::uint64_t BnEngine::bn_cycles(int channels, int extent) {
  const std::uint64_t elems =
      static_cast<std::uint64_t>(channels) * extent * extent;
  return elems * kBnCyclesPerElem +
         static_cast<std::uint64_t>(channels) * kPerChannelCycles;
}

std::uint64_t BnEngine::cycles_per_run() const {
  return bn_cycles(cfg_.channels, cfg_.extent);
}

fixed::FixedTensor BnEngine::run(const fixed::FixedTensor& input,
                                 std::uint64_t* cycles) const {
  ODENET_CHECK(!gamma_.empty(), "bn engine: params not loaded");
  ODENET_CHECK(input.shape.size() == 3 && input.shape[0] == cfg_.channels &&
                   input.shape[1] == cfg_.extent &&
                   input.shape[2] == cfg_.extent,
               "bn engine input shape mismatch");
  const std::size_t plane =
      static_cast<std::size_t>(cfg_.extent) * cfg_.extent;
  const int fb = cfg_.frac_bits;
  const std::int64_t one = std::int64_t{1} << fb;
  const auto eps_raw = static_cast<std::int64_t>(
      static_cast<double>(cfg_.eps) * static_cast<double>(one) + 0.5);

  fixed::FixedTensor out;
  out.shape = input.shape;
  out.frac_bits = fb;
  out.raw.resize(input.raw.size());

  for (int c = 0; c < cfg_.channels; ++c) {
    const std::int32_t* src =
        input.raw.data() + static_cast<std::size_t>(c) * plane;
    std::int32_t* dst = out.raw.data() + static_cast<std::size_t>(c) * plane;

    // Pass 1: mean. Sum of Q(fb) raws; divide by the (power-of-two) count.
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < plane; ++i) sum += src[i];
    std::int64_t mean_raw;
    if ((plane & (plane - 1)) == 0) {
      int shift = 0;
      while ((std::size_t{1} << shift) < plane) ++shift;
      mean_raw = sum >> shift;  // arithmetic shift == floor division
    } else {
      mean_raw = fixed::idiv_i64(sum, static_cast<std::int64_t>(plane));
    }

    // Pass 2: variance. (x - mean)^2 accumulates at Q(2*fb); the final
    // value is brought back to Q(fb) after the mean division. |d| < 2^32,
    // so each square fits uint64 but their sum needs 128 bits on rail
    // inputs (an 8x8 plane alternating INT32_MIN/INT32_MAX sums to ~2^68).
    Wide sq = 0;
    for (std::size_t i = 0; i < plane; ++i) {
      const std::int64_t d = static_cast<std::int64_t>(src[i]) - mean_raw;
      const std::uint64_t mag = static_cast<std::uint64_t>(d < 0 ? -d : d);
      sq += mag * mag;
    }
    // The mean square is at most max d^2 < 2^64, so var_raw < 2^63.
    const auto var_raw =
        static_cast<std::int64_t>((sq / plane) >> fb);  // Q(fb)

    // sqrt(var + eps) with the bit-serial unit, then one division for
    // inv_std = 1/std (per channel, not per element). The radicand
    // saturates at the unit's 64-bit width (reachable only for fb >= 25
    // with near-rail variance).
    constexpr std::uint64_t kRadicandMax =
        std::numeric_limits<std::uint64_t>::max();
    const Wide radicand = static_cast<Wide>(var_raw + eps_raw) << fb;
    const auto std_raw = static_cast<std::int64_t>(  // Q(fb)
        fixed::isqrt_u64(radicand > kRadicandMax
                             ? kRadicandMax
                             : static_cast<std::uint64_t>(radicand)));
    const std::int64_t inv_std_raw =
        fixed::idiv_i64(one << fb, std_raw);  // Q(fb)

    // Pass 3: normalize: ((x - mean) * inv_std) * gamma + beta, saturated
    // once to the 32-bit raw.
    normalize_plane(src, dst, plane, mean_raw, inv_std_raw,
                    gamma_[static_cast<std::size_t>(c)],
                    beta_[static_cast<std::size_t>(c)], fb, cfg_.fused_relu);
  }

  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
