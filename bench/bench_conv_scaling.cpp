// Reproduces the §3.1 cycle series: layer3_2 execution cycles with 1, 4,
// 8, 16 and 32 multiply-add units (23.78 / 6.07 / 3.12 / 1.64 / 0.90
// Mcycles in the paper), and the per-layer breakdown at conv_x16.
//
// It ends with host-side rates. First the cost of simulating that conv:
// the functional ConvEngine::run at the layer3_2 geometry (64 -> 64
// channels, 8x8, time plane), in GMAC/s on the dispatched kernel and on
// the forced-scalar one. Then the GEMM register tiles the host runs the
// same conv on, per SIMD tier: 16 rows x 16 columns of the layer3_2
// lowering (k = 65*9) over a 256-column B panel that streams from L2,
// float as four AVX2 4x16 tiles vs one AVX-512 16x16 tile, int16 as madd
// vs VNNI. Every row is ungated JSON: the median and quartiles of nine
// interleaved trials of >= 20 ms each, with the host fingerprint.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "fpga/bn_engine.hpp"
#include "fpga/conv_engine.hpp"
#include "fpga/device.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace odenet;
using fpga::BnEngine;
using fpga::ConvEngine;

namespace {

void print_pl_conv_host_cost() {
  constexpr int kCh = 64, kExtent = 8, kTrials = 9;
  constexpr double kTrialSeconds = 0.02;
  util::Rng rng(1);
  fixed::FixedTensor w, x;
  w.shape = {kCh, kCh + 1, 3, 3};
  for (int i = 0; i < kCh * (kCh + 1) * 9; ++i) {
    w.raw.push_back(
        static_cast<std::int32_t>(rng.normal(0.0, 0.05) * (1 << 20)));
  }
  x.shape = {kCh, kExtent, kExtent};
  for (int i = 0; i < kCh * kExtent * kExtent; ++i) {
    x.raw.push_back(
        static_cast<std::int32_t>(rng.normal(0.0, 1.0) * (1 << 20)));
  }
  ConvEngine engine({.in_channels = kCh, .out_channels = kCh,
                     .extent = kExtent, .parallelism = 16});
  engine.load_weights(w);
  const char* isa = core::gemm_isa_name();
  const double macs = 9.0 * kCh * kCh * kExtent * kExtent;
  auto run = [&] { (void)engine.run(x, 0.75f); };
  run();  // warm-up
  std::vector<double> dispatched, scalar;
  for (int t = 0; t < kTrials; ++t) {
    for (int arm = 0; arm < 2; ++arm) {
      // Alternate which arm goes first so host drift hits both alike.
      const bool forced = (arm == 0) == (t % 2 == 1);
      core::gemm_cap_isa(forced ? core::GemmIsa::kScalar
                                : core::GemmIsa::kAvx512);
      (forced ? scalar : dispatched)
          .push_back(macs / util::seconds_per_call(run, kTrialSeconds) / 1e9);
    }
  }
  core::gemm_cap_isa(core::GemmIsa::kAvx512);
  std::printf("\nhost cost of the functional PL conv (%dch %dx%d, time "
              "plane), median of %d interleaved trials:\n"
              "  %-9s %6.2f GMAC/s\n  %-9s %6.2f GMAC/s\n",
              kCh, kExtent, kExtent, kTrials, isa,
              util::quantile(dispatched, 0.5), "scalar",
              util::quantile(scalar, 0.5));
  std::printf("JSON {\"bench\":\"conv_scaling\",\"pl_conv_host\":true,"
              "\"channels\":%d,\"extent\":%d,\"trials\":%d,"
              "\"trial_seconds\":%.3f,\"isa\":\"%s\","
              "\"dispatched_gmacs\":%.3f,\"dispatched_gmacs_q1\":%.3f,"
              "\"dispatched_gmacs_q3\":%.3f,\"scalar_gmacs\":%.3f,"
              "\"scalar_gmacs_q1\":%.3f,\"scalar_gmacs_q3\":%.3f,"
              "\"nproc\":%u,\"compiler\":\"%s\"}\n",
              kCh, kExtent, kTrials, kTrialSeconds, isa,
              util::quantile(dispatched, 0.5),
              util::quantile(dispatched, 0.25),
              util::quantile(dispatched, 0.75), util::quantile(scalar, 0.5),
              util::quantile(scalar, 0.25), util::quantile(scalar, 0.75),
              std::thread::hardware_concurrency(), __VERSION__);
}

/// Accumulator type of the tiles over operand type T.
template <typename T>
using TileAcc =
    std::conditional_t<std::is_same_v<T, float>, float, std::int32_t>;

/// The 16-row tile of the active table over every B micro-panel of one
/// 256-column panel: float operands run tile16x16, int16 tile16x16_i16.
template <typename T>
void run_tile_panel(const std::vector<T>& a, const std::vector<T>& b,
                    int depth, std::vector<TileAcc<T>>& c) {
  const core::GemmKernels& k = core::active_gemm_kernels();
  const std::size_t bstride = b.size() / 16;
  for (int jt = 0; jt < 16; ++jt) {
    if constexpr (std::is_same_v<T, float>) {
      k.tile16x16(a.data(), b.data() + jt * bstride, depth,
                  c.data() + jt * 16, 256, false);
    } else {
      k.tile16x16_i16(a.data(), b.data() + jt * bstride, depth,
                      c.data() + jt * 16, 256, false);
    }
  }
}

/// One row per operand type: the AVX2 tier's 16 rows (four 4x16 tiles)
/// against the AVX-512 tier's one 16x16 tile on identical packed panels,
/// nine interleaved trials each, plus a memcmp of the two outputs.
template <typename T>
void print_tile_rates(const char* name, const char* avx2_tile,
                      const char* avx512_tile) {
  constexpr int kK = 65 * 9, kCols = 256, kTrials = 9;
  constexpr double kTrialSeconds = 0.02;
  constexpr bool kInt = std::is_same_v<T, std::int16_t>;
  // Packed depth: k floats, or k rounded up to whole int16 pairs.
  const int depth = kInt ? (kK + 1) / 2 : kK;
  const std::size_t kvals = kInt ? static_cast<std::size_t>(depth) * 2 : kK;
  util::Rng rng(2);
  auto fill = [&](std::vector<T>& v, std::size_t n) {
    v.resize(n);
    for (T& x : v) {
      x = kInt ? static_cast<T>(rng.uniform(-4096.0, 4096.0))
               : static_cast<T>(rng.normal(0.0, 1.0));
    }
  };
  std::vector<T> a, b;
  fill(a, 16 * kvals);
  fill(b, static_cast<std::size_t>(kCols) * kvals);
  std::vector<TileAcc<T>> c(16 * kCols);
  const double macs = 16.0 * kCols * kK;
  const bool wide = core::gemm_isa_usable(core::GemmIsa::kAvx512);
  std::printf("\n%s GEMM register tiles (16 rows x %d cols, k=%d, B from "
              "L2), median of %d interleaved trials:\n",
              name, kCols, kK, kTrials);
  if (!core::gemm_isa_usable(core::GemmIsa::kAvx2)) {
    std::printf("  skipped: AVX2 kernels not usable on this host\n");
    return;
  }
  std::vector<double> narrow_rate, wide_rate;
  auto trial = [&](core::GemmIsa cap, std::vector<double>& out) {
    core::gemm_cap_isa(cap);
    auto call = [&] { run_tile_panel(a, b, depth, c); };
    call();  // warm-up: B into L2
    out.push_back(macs / util::seconds_per_call(call, kTrialSeconds) / 1e9);
  };
  for (int t = 0; t < kTrials; ++t) {
    // Alternate which tier goes first so host drift hits both alike.
    const bool narrow_first = t % 2 == 0;
    if (narrow_first) trial(core::GemmIsa::kAvx2, narrow_rate);
    if (wide) trial(core::GemmIsa::kAvx512, wide_rate);
    if (!narrow_first) trial(core::GemmIsa::kAvx2, narrow_rate);
  }
  // The two tiers must agree bitwise on the same panels.
  bool equal = true;
  if (wide) {
    core::gemm_cap_isa(core::GemmIsa::kAvx2);
    run_tile_panel(a, b, depth, c);
    const std::vector<TileAcc<T>> narrow = c;
    core::gemm_cap_isa(core::GemmIsa::kAvx512);
    run_tile_panel(a, b, depth, c);
    equal = std::memcmp(narrow.data(), c.data(), c.size() * sizeof(c[0])) == 0;
  }
  core::gemm_cap_isa(core::GemmIsa::kAvx512);
  auto q = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : util::quantile(v, p);
  };
  std::printf("  %-14s %6.2f GMAC/s\n", avx2_tile, q(narrow_rate, 0.5));
  if (wide) {
    std::printf("  %-14s %6.2f GMAC/s  (%.2fx, bitwise equal: %s)\n",
                avx512_tile, q(wide_rate, 0.5),
                q(wide_rate, 0.5) / q(narrow_rate, 0.5),
                equal ? "yes" : "NO");
  } else {
    std::printf("  %-14s not usable on this host\n", avx512_tile);
  }
  std::printf("JSON {\"bench\":\"conv_scaling\",\"gemm_tile\":\"%s\","
              "\"rows\":16,\"cols\":%d,\"k\":%d,\"trials\":%d,"
              "\"trial_seconds\":%.3f,\"isa\":\"%s\","
              "\"avx2_gmacs\":%.3f,\"avx2_gmacs_q1\":%.3f,"
              "\"avx2_gmacs_q3\":%.3f,\"avx512_usable\":%s,"
              "\"avx512_gmacs\":%.3f,\"avx512_gmacs_q1\":%.3f,"
              "\"avx512_gmacs_q3\":%.3f,\"bitwise_equal\":%s,"
              "\"nproc\":%u,\"compiler\":\"%s\"}\n",
              name, kCols, kK, kTrials, kTrialSeconds, core::gemm_isa_name(),
              q(narrow_rate, 0.5), q(narrow_rate, 0.25), q(narrow_rate, 0.75),
              wide ? "true" : "false", q(wide_rate, 0.5), q(wide_rate, 0.25),
              q(wide_rate, 0.75), equal ? "true" : "false",
              std::thread::hardware_concurrency(), __VERSION__);
}

}  // namespace

int main() {
  std::printf("=== §3.1: layer3_2 execution cycles vs MAC parallelism ===\n\n");

  const double paper[] = {23.78, 6.07, 3.12, 1.64, 0.90};
  const int par[] = {1, 4, 8, 16, 32};

  util::TableWriter table({"Config", "conv cycles", "BN cycles",
                           "total [Mcycles]", "paper [Mcycles]", "error",
                           "timing@100MHz"});
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t conv = 2 * ConvEngine::conv_cycles(64, 64, 8, par[i]);
    const std::uint64_t bn = 2 * BnEngine::bn_cycles(64, 8);
    const double total_m = static_cast<double>(conv + bn) / 1e6;
    table.add_row({"conv_x" + std::to_string(par[i]),
                   std::to_string(conv), std::to_string(bn),
                   util::TableWriter::fmt(total_m, 3),
                   util::TableWriter::fmt(paper[i], 2),
                   util::TableWriter::fmt_percent(
                       (total_m - paper[i]) / paper[i], 2),
                   fpga::meets_timing(par[i], 100.0) ? "met" : "FAILED"});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("model: 5 cycles per MAC beat, parallelism across output\n"
              "channels (ceil(64/n) groups), BN fixed part = 20 cyc/elem +\n"
              "40 cyc/channel. Convolution share at conv_x1: %.1f%%\n"
              "(paper footnote 1: ~99%%).\n\n",
              100.0 * 2 * ConvEngine::conv_cycles(64, 64, 8, 1) /
                  (2.0 * ConvEngine::conv_cycles(64, 64, 8, 1) +
                   2.0 * BnEngine::bn_cycles(64, 8)));

  std::printf("per-layer block cycles at conv_x16 (all three offloadable "
              "layers have identical conv MACs — the classic ResNet "
              "property):\n\n");
  util::TableWriter layers({"Layer", "geometry", "conv cycles", "BN cycles",
                            "total [Mcycles]", "ms @100MHz"});
  struct L {
    const char* name;
    int ch, extent;
  };
  for (const L& l : {L{"layer1", 16, 32}, L{"layer2_2", 32, 16},
                     L{"layer3_2", 64, 8}}) {
    const std::uint64_t conv =
        2 * ConvEngine::conv_cycles(l.ch, l.ch, l.extent, 16);
    const std::uint64_t bn = 2 * BnEngine::bn_cycles(l.ch, l.extent);
    layers.add_row({l.name,
                    std::to_string(l.ch) + "ch " + std::to_string(l.extent) +
                        "x" + std::to_string(l.extent),
                    std::to_string(conv), std::to_string(bn),
                    util::TableWriter::fmt((conv + bn) / 1e6, 3),
                    util::TableWriter::fmt((conv + bn) / 1e5, 2)});
  }
  std::printf("%s\n", layers.to_string().c_str());
  std::printf("BN cost grows with feature-map elements, so layer1 (16384\n"
              "elems) pays the largest non-parallelizable part — why its\n"
              "PL time (21.3 ms) exceeds layer3_2's (16.4 ms).\n");
  print_pl_conv_host_cost();
  print_tile_rates<float>("f32", "avx2 4x16 x4", "avx512 16x16");
  print_tile_rates<std::int16_t>("i16", "madd 4x16 x4", "vnni 16x16");
  return 0;
}
