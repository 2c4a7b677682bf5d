// PL convolution engine: 3x3, stride 1, pad 1, fixed-point, with the
// conv_xn output-channel parallelism of §3.1.
//
// Functional semantics match core::Conv2d bit-for-bit at the Q-format
// resolution: activations and weights are Q(frac_bits) raws, products
// are exact int64 and accumulate in a wide (DSP48-cascade-like)
// accumulator that wraps around mod 2^64, and a single rounding happens
// at writeback. Wraparound keeps every input defined and makes the sum
// order-free, so the host kernel may tile and vectorize at will.
//
// The constant time plane of ODE-capable blocks is folded into a
// precomputed per-position bias (a constant input plane contributes an
// affine term); this costs no MAC beats, which is required to reproduce
// the published cycle counts (DESIGN.md §3.2).
//
// Host cost: run() pads the input into a zero-bordered plane stack and
// drives the dispatched core::GemmKernels::conv3x3_i32 tile (4 output
// channels x 8 positions) over weights packed once at load_weights();
// the cycle model is independent of how the host computes.
#pragma once

#include <cstdint>
#include <vector>

#include "fixed/fixed_tensor.hpp"
#include "fpga/mac_array.hpp"

namespace odenet::fpga {

struct ConvEngineConfig {
  int in_channels = 0;   // data channels (excluding any time channel)
  int out_channels = 0;
  int extent = 0;        // H == W
  int parallelism = 16;  // conv_xn
  int frac_bits = 20;
};

class ConvEngine {
 public:
  explicit ConvEngine(const ConvEngineConfig& cfg);

  /// Loads quantized weights. Accepts [Cout, Cin, 3, 3] (no time channel)
  /// or [Cout, Cin+1, 3, 3] (last input plane = time weights, folded into
  /// the bias). Packs them into the kernel's output-channel panels.
  void load_weights(const fixed::FixedTensor& weights);

  /// Whether loaded weights carry a time plane.
  bool has_time_weights() const { return has_time_weights_; }

  /// Runs one convolution over a [C,H,W] (or [1,C,H,W]) raw fmap; `t` is
  /// the integration time used for the bias fold. Returns the [Cout,H,W]
  /// raw output and adds the engine cycles to *cycles if given.
  fixed::FixedTensor run(const fixed::FixedTensor& input, float t,
                         std::uint64_t* cycles = nullptr) const;

  /// Cycle count of one run (independent of data).
  std::uint64_t cycles_per_run() const;

  /// Static model used by the latency planner:
  /// ceil(Cout/n) * H * W * Cin * 9 * kCyclesPerMacBeat.
  static std::uint64_t conv_cycles(int out_channels, int in_channels,
                                   int extent, int parallelism);

  const ConvEngineConfig& config() const { return cfg_; }

 private:
  ConvEngineConfig cfg_;
  MacArray macs_;
  // [ceil(Cout/4)][9][Cin][4] raw; output channels past Cout are zero.
  std::vector<std::int32_t> packed_;
  // [Cout, H, W]: sum of the time taps whose input is in bounds (empty
  // without a time plane); the per-run bias is t_raw times this.
  std::vector<std::int64_t> time_tap_sum_;
  bool has_time_weights_ = false;
};

}  // namespace odenet::fpga
