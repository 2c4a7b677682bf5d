// The FPGA-sim PL datapath's reference, shared by the engine and
// system-simulation suites: the PL conv engine as its original per-pixel
// scalar loop (bounds-checked taps, one wrapping MAC beat per tap, the
// time plane folded tap by tap), and the accelerator's Euler solve composed
// from it. fpga::ConvEngine and OdeBlockAccelerator must match it bitwise
// on every ISA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/block.hpp"
#include "core/tensor.hpp"
#include "fixed/fixed_tensor.hpp"
#include "fixed/qformat.hpp"
#include "fpga/bn_engine.hpp"
#include "fpga/mac_array.hpp"

namespace odenet::testing {

/// One MAC beat: acc += a * w, the exact int64 product added mod 2^64.
inline std::int64_t pl_mac(std::int64_t acc, std::int64_t a, std::int64_t w) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(acc) +
                                   static_cast<std::uint64_t>(a * w));
}

/// One 3x3 / stride-1 / pad-1 conv of a [C,H,W] raw fmap with [Cout, C, 3,
/// 3] or [Cout, C+1, 3, 3] raw weights (last plane = time weights, the
/// constant-t input plane), accumulated mod 2^64 and written back at
/// Q(frac_bits).
inline fixed::FixedTensor pl_conv_reference(const fixed::FixedTensor& weights,
                                            const fixed::FixedTensor& input,
                                            float t, int frac_bits) {
  const int co = weights.shape[0], wci = weights.shape[1];
  const int ci = input.shape[0], h = input.shape[1], w = input.shape[2];
  const bool time_plane = wci == ci + 1;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::int64_t t_raw = static_cast<std::int64_t>(
      static_cast<double>(t) *
          static_cast<double>(std::int64_t{1} << frac_bits) +
      (t >= 0 ? 0.5 : -0.5));

  fixed::FixedTensor out;
  out.shape = {co, h, w};
  out.frac_bits = frac_bits;
  out.raw.assign(static_cast<std::size_t>(co) * plane, 0);
  for (int o = 0; o < co; ++o) {
    const std::int32_t* wbase =
        weights.raw.data() + static_cast<std::size_t>(o) * wci * 9;
    for (int oh = 0; oh < h; ++oh) {
      for (int ow = 0; ow < w; ++ow) {
        std::int64_t acc = 0;
        for (int c = 0; c < ci; ++c) {
          const std::int32_t* wk = wbase + static_cast<std::size_t>(c) * 9;
          const std::int32_t* in_plane =
              input.raw.data() + static_cast<std::size_t>(c) * plane;
          for (int kh = 0; kh < 3; ++kh) {
            const int ih = oh - 1 + kh;
            if (ih < 0 || ih >= h) continue;
            for (int kw = 0; kw < 3; ++kw) {
              const int iw = ow - 1 + kw;
              if (iw < 0 || iw >= w) continue;
              acc = pl_mac(acc, in_plane[static_cast<std::size_t>(ih) * w + iw],
                           wk[kh * 3 + kw]);
            }
          }
        }
        if (time_plane) {
          const std::int32_t* tw = wbase + static_cast<std::size_t>(ci) * 9;
          for (int kh = 0; kh < 3; ++kh) {
            const int ih = oh - 1 + kh;
            if (ih < 0 || ih >= h) continue;
            for (int kw = 0; kw < 3; ++kw) {
              const int iw = ow - 1 + kw;
              if (iw < 0 || iw >= w) continue;
              acc = pl_mac(acc, t_raw, tw[kh * 3 + kw]);
            }
          }
        }
        out.raw[static_cast<std::size_t>(o) * plane +
                static_cast<std::size_t>(oh) * w + ow] =
            fpga::MacArray::writeback(acc, frac_bits);
      }
    }
  }
  return out;
}

/// OdeBlockAccelerator::solve_euler rebuilt from the reference conv: the
/// block's weights quantized as load_weights() does, `steps` executions of
/// conv -> BN(+ReLU) -> conv -> BN on one [1,C,H,W] (or [C,H,W]) image,
/// the Q20 Euler update z += h*f after each, dequantized back.
inline core::Tensor pl_solve_euler_reference(core::BuildingBlock& block,
                                             const core::Tensor& z0,
                                             int steps, float h,
                                             int frac_bits) {
  const int c = block.config().out_channels;
  const int s = z0.dim(z0.ndim() - 1);
  const fixed::FixedTensor w1 =
      fixed::quantize(block.conv1().weight().value, frac_bits);
  const fixed::FixedTensor w2 =
      fixed::quantize(block.conv2().weight().value, frac_bits);
  fpga::BnEngine bn1({.channels = c, .extent = s, .frac_bits = frac_bits,
                      .fused_relu = true});
  fpga::BnEngine bn2({.channels = c, .extent = s, .frac_bits = frac_bits,
                      .fused_relu = false});
  bn1.load_params(fixed::quantize(block.bn1().gamma().value, frac_bits),
                  fixed::quantize(block.bn1().beta().value, frac_bits));
  bn2.load_params(fixed::quantize(block.bn2().gamma().value, frac_bits),
                  fixed::quantize(block.bn2().beta().value, frac_bits));

  fixed::FixedTensor z = fixed::quantize(z0.reshaped({c, s, s}), frac_bits);
  const fixed::Q20 h_fixed = fixed::Q20::from_float(h);
  for (int i = 0; i < steps; ++i) {
    const float t = h * static_cast<float>(i);
    fixed::FixedTensor f = pl_conv_reference(w1, z, t, frac_bits);
    f = bn1.run(f);
    f = pl_conv_reference(w2, f, t, frac_bits);
    f = bn2.run(f);
    for (std::size_t j = 0; j < z.raw.size(); ++j) {
      const auto zf = fixed::Q20::from_raw(z.raw[j]);
      const auto ff = fixed::Q20::from_raw(f.raw[j]);
      z.raw[j] = (zf + h_fixed * ff).raw();
    }
  }
  core::Tensor out = fixed::dequantize(z);
  return out.reshaped(z0.shape());
}

}  // namespace odenet::testing
