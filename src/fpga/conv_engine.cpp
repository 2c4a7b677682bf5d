#include "fpga/conv_engine.hpp"

#include <algorithm>

#include "core/gemm_kernels.hpp"

namespace odenet::fpga {

ConvEngine::ConvEngine(const ConvEngineConfig& cfg)
    : cfg_(cfg), macs_(cfg.parallelism) {
  ODENET_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0,
               "conv engine needs positive channel counts");
  ODENET_CHECK(cfg.extent > 0, "conv engine needs positive extent");
  ODENET_CHECK(cfg.frac_bits > 0 && cfg.frac_bits < 31,
               "bad frac_bits " << cfg.frac_bits);
}

void ConvEngine::load_weights(const fixed::FixedTensor& w) {
  ODENET_CHECK(w.shape.size() == 4, "weights must be 4-d");
  const int co = w.shape[0], ci = w.shape[1], kh = w.shape[2], kw = w.shape[3];
  ODENET_CHECK(co == cfg_.out_channels && kh == 3 && kw == 3,
               "weight shape mismatch");
  ODENET_CHECK(ci == cfg_.in_channels || ci == cfg_.in_channels + 1,
               "weights must have Cin or Cin+1 input planes, got " << ci);
  has_time_weights_ = (ci == cfg_.in_channels + 1);

  constexpr int kTile = core::kConvTileOut;
  const int cin = cfg_.in_channels;
  const int panels = (co + kTile - 1) / kTile;
  const std::size_t per_out_in = static_cast<std::size_t>(ci) * 9;
  packed_.assign(static_cast<std::size_t>(panels) * cin * 9 * kTile, 0);
  for (int o = 0; o < co; ++o) {
    std::int32_t* panel = packed_.data() +
                          static_cast<std::size_t>(o / kTile) * cin * 9 * kTile;
    for (int c = 0; c < cin; ++c) {
      for (int k = 0; k < 9; ++k) {
        panel[(static_cast<std::size_t>(k) * cin + c) * kTile + o % kTile] =
            w.raw[static_cast<std::size_t>(o) * per_out_in +
                  static_cast<std::size_t>(c) * 9 + k];
      }
    }
  }

  // Time plane: a constant input t at every in-bounds position, so each
  // output sees t times the sum of its in-bounds time taps (edges see
  // fewer taps because padding is zero, not t).
  time_tap_sum_.clear();
  if (!has_time_weights_) return;
  const int h = cfg_.extent;
  time_tap_sum_.reserve(static_cast<std::size_t>(co) * h * h);
  for (int o = 0; o < co; ++o) {
    const std::int32_t* tw = w.raw.data() +
                             static_cast<std::size_t>(o) * per_out_in +
                             static_cast<std::size_t>(cin) * 9;
    for (int oh = 0; oh < h; ++oh) {
      for (int ow = 0; ow < h; ++ow) {
        std::int64_t sum = 0;
        for (int k = 0; k < 9; ++k) {
          const int ih = oh - 1 + k / 3, iw = ow - 1 + k % 3;
          if (ih >= 0 && ih < h && iw >= 0 && iw < h) sum += tw[k];
        }
        time_tap_sum_.push_back(sum);
      }
    }
  }
}

std::uint64_t ConvEngine::conv_cycles(int out_channels, int in_channels,
                                      int extent, int parallelism) {
  MacArray macs(parallelism);
  const std::uint64_t beats_per_channel =
      static_cast<std::uint64_t>(extent) * extent * in_channels * 9;
  return macs.cycles(beats_per_channel, out_channels);
}

std::uint64_t ConvEngine::cycles_per_run() const {
  return conv_cycles(cfg_.out_channels, cfg_.in_channels, cfg_.extent,
                     cfg_.parallelism);
}

fixed::FixedTensor ConvEngine::run(const fixed::FixedTensor& input, float t,
                                   std::uint64_t* cycles) const {
  ODENET_CHECK(!packed_.empty(), "conv engine: weights not loaded");
  // Accept [C,H,W] or [1,C,H,W].
  std::vector<int> shape = input.shape;
  if (shape.size() == 4) {
    ODENET_CHECK(shape[0] == 1, "conv engine processes one image at a time");
    shape.erase(shape.begin());
  }
  ODENET_CHECK(shape.size() == 3 && shape[0] == cfg_.in_channels &&
                   shape[1] == cfg_.extent && shape[2] == cfg_.extent,
               "conv engine input shape mismatch");

  constexpr int kTileOut = core::kConvTileOut;
  constexpr int kTilePos = core::kConvTilePos;
  const int h = cfg_.extent, w = cfg_.extent;
  const int ci = cfg_.in_channels, co = cfg_.out_channels;
  const std::size_t plane = static_cast<std::size_t>(h) * w;

  // Zero-padded plane stack: one border row/column of zeros around each
  // plane, rows wide enough for whole 8-position tiles, and tail room
  // for the kernel's over-read.
  const int row_tiles = (w + kTilePos - 1) / kTilePos;
  const std::size_t row_stride =
      static_cast<std::size_t>(row_tiles) * kTilePos + 2;
  const std::size_t plane_stride =
      (static_cast<std::size_t>(h) + 2) * row_stride;
  std::vector<std::int32_t> padded(ci * plane_stride + kTilePos, 0);
  for (int c = 0; c < ci; ++c) {
    for (int ih = 0; ih < h; ++ih) {
      const std::int32_t* src = input.raw.data() + c * plane +
                                static_cast<std::size_t>(ih) * w;
      std::copy_n(src, w,
                  padded.data() + c * plane_stride + (ih + 1) * row_stride + 1);
    }
  }

  // The time fold wraps like the MAC sums: t_raw * tap_sum mod 2^64.
  const std::int64_t t_raw =
      static_cast<std::int64_t>(static_cast<double>(t) *
                                    static_cast<double>(std::int64_t{1}
                                                        << cfg_.frac_bits) +
                                (t >= 0 ? 0.5 : -0.5));

  fixed::FixedTensor out;
  out.shape = {co, h, w};
  out.frac_bits = cfg_.frac_bits;
  out.raw.resize(static_cast<std::size_t>(co) * plane);

  const core::Conv3x3TileI32Fn tile = core::active_gemm_kernels().conv3x3_i32;
  std::int64_t acc[kTileOut * kTilePos];
  for (int o0 = 0; o0 < co; o0 += kTileOut) {
    const std::int32_t* wpanel =
        packed_.data() + static_cast<std::size_t>(o0) * ci * 9;
    const int rows = std::min(kTileOut, co - o0);
    for (int oh = 0; oh < h; ++oh) {
      for (int ow0 = 0; ow0 < w; ow0 += kTilePos) {
        tile(wpanel, padded.data() + oh * row_stride + ow0, ci, plane_stride,
             row_stride, acc);
        const int cols = std::min(kTilePos, w - ow0);
        for (int i = 0; i < rows; ++i) {
          const std::size_t base = (o0 + i) * plane +
                                   static_cast<std::size_t>(oh) * w + ow0;
          const std::int64_t* tsum =
              has_time_weights_ ? time_tap_sum_.data() + base : nullptr;
          for (int j = 0; j < cols; ++j) {
            auto sum = static_cast<std::uint64_t>(acc[i * kTilePos + j]);
            if (tsum != nullptr) {
              sum += static_cast<std::uint64_t>(t_raw) *
                     static_cast<std::uint64_t>(tsum[j]);
            }
            out.raw[base + j] = MacArray::writeback(
                static_cast<std::int64_t>(sum), cfg_.frac_bits);
          }
        }
      }
    }
  }

  if (cycles != nullptr) *cycles += cycles_per_run();
  return out;
}

}  // namespace odenet::fpga
