// Multiply-add unit array (the paper's conv_xn scaling knob, §3.1).
//
// One MAC beat on the unpipelined Verilog datapath takes five cycles:
// read activation, read weight, multiply, accumulate, write back. With n
// units the convolution parallelizes across output channels (capped at
// Cout), so execution cycles shrink by ceil(Cout/n)/Cout — the published
// layer3_2 series 23.78/6.07/3.12/1.64/0.90 Mcycles for n=1/4/8/16/32
// falls out of exactly this model plus the BN fixed part.
//
// Functionally a MAC unit multiplies two Q-format raws into an exact int64
// product and adds it to a 48-bit-style wide accumulator that wraps around
// mod 2^64 (defined for every input, and exact whenever the true sum fits
// int64) — precision loss only happens at the final writeback rounding,
// like a DSP48 cascade.
#pragma once

#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace odenet::fpga {

/// Cycles per multiply-accumulate beat (see file comment).
inline constexpr std::uint64_t kCyclesPerMacBeat = 5;

/// DSP48 slices consumed: 4 per 32x32-bit MAC unit plus 4 shared by the BN
/// multiplier path (matches every Table-3 point: DSP = 4n + 4).
int dsp_for_parallelism(int parallelism);

class MacArray {
 public:
  explicit MacArray(int units);

  int units() const { return units_; }

  /// Cycles to issue `beats` MAC operations over `channels` output channels:
  /// channel groups execute sequentially, channels inside a group in
  /// lockstep across units. `beats` counts per-channel MACs.
  std::uint64_t cycles(std::uint64_t beats_per_channel, int channels) const;

  /// Rounding writeback: wide Q(2F) accumulator -> saturated Q(F) raw,
  /// round half away from zero; defined for every int64.
  static std::int32_t writeback(std::int64_t acc, int frac_bits) {
    // (|acc| + half) >> F on the unsigned magnitude: |INT64_MIN| and the
    // rounding carry near the rails stay defined, and the quotient is
    // below 2^63 for F >= 1.
    const bool neg = acc < 0;
    const std::uint64_t mag = neg ? 0 - static_cast<std::uint64_t>(acc)
                                  : static_cast<std::uint64_t>(acc);
    const auto q = static_cast<std::int64_t>(
        (mag >> frac_bits) + ((mag >> (frac_bits - 1)) & 1u));
    const std::int64_t rounded = neg ? -q : q;
    if (rounded > std::numeric_limits<std::int32_t>::max()) {
      return std::numeric_limits<std::int32_t>::max();
    }
    if (rounded < std::numeric_limits<std::int32_t>::min()) {
      return std::numeric_limits<std::int32_t>::min();
    }
    return static_cast<std::int32_t>(rounded);
  }

 private:
  int units_;
};

}  // namespace odenet::fpga
