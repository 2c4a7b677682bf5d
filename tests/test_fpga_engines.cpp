// The PL simulator: cycle model against the paper's published numbers,
// functional fixed-point equivalence against the float reference kernels,
// BRAM allocation, AXI, timing closure.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/gemm_kernels.hpp"
#include "core/init.hpp"
#include "fpga/accelerator.hpp"
#include "fpga/axi.hpp"
#include "fpga/bn_engine.hpp"
#include "fpga/bram.hpp"
#include "fpga/conv_engine.hpp"
#include "fpga/device.hpp"
#include "fpga/mac_array.hpp"
#include "models/odeblock.hpp"
#include "pl_conv_reference.hpp"
#include "util/rng.hpp"

using namespace odenet::fpga;
using odenet::core::Tensor;
namespace ou = odenet::util;
namespace ofx = odenet::fixed;

namespace {
Tensor random_tensor(std::vector<int> shape, ou::Rng& rng, double std = 0.5) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, std));
  }
  return t;
}
}  // namespace

TEST(Device, Xc7z020Inventory) {
  const auto& dev = xc7z020();
  EXPECT_EQ(dev.bram36, 140);
  EXPECT_EQ(dev.dsp, 220);
  EXPECT_EQ(dev.lut, 53200);
  EXPECT_EQ(dev.ff, 106400);
}

TEST(Device, PynqZ2Board) {
  const auto& b = pynq_z2();
  EXPECT_EQ(b.cpu_mhz, 650.0);
  EXPECT_EQ(b.cores, 2);
  EXPECT_EQ(b.dram_mb, 512);
  EXPECT_EQ(b.pl_clock_mhz, 100.0);
}

TEST(Device, TimingClosureMatchesPaper) {
  // conv_x16 closes at 100 MHz; conv_x32 does not (paper §3.1).
  EXPECT_TRUE(meets_timing(16, 100.0));
  EXPECT_FALSE(meets_timing(32, 100.0));
  // Halving the clock admits conv_x32.
  EXPECT_TRUE(meets_timing(32, 50.0));
  EXPECT_EQ(max_parallelism_at(100.0), 16);
}

TEST(MacArray, DspFormulaMatchesTable3) {
  EXPECT_EQ(dsp_for_parallelism(1), 8);
  EXPECT_EQ(dsp_for_parallelism(4), 20);
  EXPECT_EQ(dsp_for_parallelism(8), 36);
  EXPECT_EQ(dsp_for_parallelism(16), 68);
  EXPECT_EQ(dsp_for_parallelism(32), 132);
}

TEST(MacArray, CycleModelGroupsChannels) {
  MacArray m(16);
  // 64 channels -> 4 groups; 10 beats/channel -> 4*10*5 cycles.
  EXPECT_EQ(m.cycles(10, 64), 200u);
  // Fewer channels than units: one group.
  EXPECT_EQ(m.cycles(10, 8), 50u);
  EXPECT_THROW(MacArray(0), odenet::Error);
  EXPECT_THROW(MacArray(65), odenet::Error);
}

TEST(MacArray, WritebackRounding) {
  // 1.5 * 1.0 in Q4: raw 24 * 16 = 384; >>4 with round = 24 (1.5).
  EXPECT_EQ(MacArray::writeback(384, 4), 24);
  // Rounding: raw 7 at frac 2 -> 7/4 = 1.75 -> rounds to 2.
  EXPECT_EQ(MacArray::writeback(7, 2), 2);
  // Negative symmetric rounding.
  EXPECT_EQ(MacArray::writeback(-7, 2), -2);
}

// --------------------------------------------------------------------------
// The published cycle series (§3.1): layer3_2 at conv_x1/4/8/16/32.

struct CycleCase {
  int parallelism;
  double paper_mcycles;
  double tolerance_pct;
};

class Layer32Cycles : public ::testing::TestWithParam<CycleCase> {};

TEST_P(Layer32Cycles, BlockCyclesMatchPaper) {
  const auto p = GetParam();
  const std::uint64_t conv = ConvEngine::conv_cycles(64, 64, 8, p.parallelism);
  const std::uint64_t bn = BnEngine::bn_cycles(64, 8);
  const double mcycles = static_cast<double>(2 * conv + 2 * bn) / 1e6;
  EXPECT_NEAR(mcycles, p.paper_mcycles,
              p.paper_mcycles * p.tolerance_pct / 100.0)
      << "conv_x" << p.parallelism;
}

INSTANTIATE_TEST_SUITE_P(PaperSeries, Layer32Cycles,
                         ::testing::Values(CycleCase{1, 23.78, 0.5},
                                           CycleCase{4, 6.07, 0.1},
                                           CycleCase{8, 3.12, 0.1},
                                           CycleCase{16, 1.64, 0.3},
                                           CycleCase{32, 0.90, 1.0}));

TEST(ConvEngine, CyclesScaleInverselyUpToChannelCap) {
  // layer3_2 conv: exactly 11,796,480 cycles at x1 (64 groups x 36864
  // beats x 5); parallelism beyond Cout=64 cannot help.
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 1), 11796480u);
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 64),
            ConvEngine::conv_cycles(64, 64, 8, 64));
  EXPECT_EQ(ConvEngine::conv_cycles(64, 64, 8, 16),
            4u * 36864u * 5u);
}

TEST(ConvEngine, ConvDominatesAtSingleMac) {
  // Paper footnote 1: the two convolutions are ~99% of layer3_2 cycles
  // with one MAC unit.
  const double conv = 2.0 * ConvEngine::conv_cycles(64, 64, 8, 1);
  const double bn = 2.0 * BnEngine::bn_cycles(64, 8);
  EXPECT_GT(conv / (conv + bn), 0.99);
}

TEST(ConvEngine, FunctionalMatchesFloatReference) {
  ou::Rng rng(1);
  odenet::core::Conv2d ref({.in_channels = 4, .out_channels = 6});
  odenet::core::init_conv(ref, rng);

  ConvEngine engine({.in_channels = 4, .out_channels = 6, .extent = 5,
                     .parallelism = 4});
  engine.load_weights(ofx::quantize(ref.weight().value, 20));
  EXPECT_FALSE(engine.has_time_weights());

  Tensor x = random_tensor({1, 4, 5, 5}, rng);
  // Reference uses the dequantized weights so both paths compute the same
  // math, the engine in fixed point.
  ref.weight().value = ofx::dequantize(ofx::quantize(ref.weight().value, 20));
  Tensor want = ref.forward(x);

  std::uint64_t cycles = 0;
  auto got = engine.run(ofx::quantize(x.reshaped({4, 5, 5}), 20), 0.0f,
                        &cycles);
  Tensor gotf = ofx::dequantize(got);
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(gotf.data()[i], want.data()[i], 1e-4f) << "at " << i;
  }
  EXPECT_EQ(cycles, engine.cycles_per_run());
}

TEST(ConvEngine, TimeChannelFoldMatchesConcatConv) {
  ou::Rng rng(2);
  odenet::core::Conv2d ref({.in_channels = 3, .out_channels = 3,
                            .time_channel = true});
  odenet::core::init_conv(ref, rng);
  ref.weight().value = ofx::dequantize(ofx::quantize(ref.weight().value, 20));

  ConvEngine engine({.in_channels = 3, .out_channels = 3, .extent = 6,
                     .parallelism = 1});
  engine.load_weights(ofx::quantize(ref.weight().value, 20));
  EXPECT_TRUE(engine.has_time_weights());

  Tensor x = random_tensor({1, 3, 6, 6}, rng);
  for (float t : {0.0f, 1.0f, 3.0f}) {
    ref.set_time(t);
    Tensor want = ref.forward(x);
    auto got = ofx::dequantize(
        engine.run(ofx::quantize(x.reshaped({3, 6, 6}), 20), t));
    for (std::size_t i = 0; i < want.numel(); ++i) {
      EXPECT_NEAR(got.data()[i], want.data()[i], 2e-4f)
          << "t=" << t << " at " << i;
    }
  }
}

// --------------------------------------------------------------------------
// Differential oracle: ConvEngine against the per-pixel reference loop.

namespace {

constexpr std::int32_t kI32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kI32Max = std::numeric_limits<std::int32_t>::max();

enum class RawFill { kQ20, kUniform, kRail };

/// Raw Q20 words: kQ20 ~ N(0, 1.0) values (every partial sum fits int64),
/// kUniform over all of int32 and kRail alternating INT32_MIN/INT32_MAX
/// (`phase` shifts the pattern) both wrap the accumulator.
ofx::FixedTensor raw_fill(std::vector<int> shape, RawFill fill, ou::Rng& rng,
                          int phase = 0) {
  ofx::FixedTensor f;
  f.shape = std::move(shape);
  f.frac_bits = 20;
  std::size_t n = 1;
  for (int d : f.shape) n *= static_cast<std::size_t>(d);
  f.raw.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (fill) {
      case RawFill::kQ20:
        f.raw[i] = static_cast<std::int32_t>(rng.normal(0.0, 1.0) * (1 << 20));
        break;
      case RawFill::kUniform:
        f.raw[i] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(rng.next_u64()));
        break;
      case RawFill::kRail:
        f.raw[i] = (i + phase) % 2 == 0 ? kI32Min : kI32Max;
        break;
    }
  }
  return f;
}

/// Runs `engine` under the scalar and the dispatched kernels and checks
/// both bitwise against the reference loop.
void expect_conv_matches_reference(const ConvEngine& engine,
                                   const ofx::FixedTensor& weights,
                                   const ofx::FixedTensor& x, float t,
                                   const std::string& where) {
  const ofx::FixedTensor want =
      odenet::testing::pl_conv_reference(weights, x, t, 20);
  for (bool scalar : {true, false}) {
    odenet::core::gemm_cap_isa(scalar ? odenet::core::GemmIsa::kScalar
                               : odenet::core::GemmIsa::kAvx512);
    const ofx::FixedTensor got = engine.run(x, t);
    odenet::core::gemm_cap_isa(odenet::core::GemmIsa::kAvx512);
    ASSERT_EQ(got.shape, want.shape) << where;
    ASSERT_EQ(got.raw, want.raw)
        << where << " t=" << t << " isa="
        << (scalar ? "scalar" : odenet::core::gemm_isa_name());
  }
}

}  // namespace

TEST(ConvEngineOracle, BitwiseAcrossGeometriesTimePlanesAndIsas) {
  ou::Rng rng(11);
  for (int extent : {1, 2, 3, 5, 8, 16}) {
    for (int cin : {1, 3, 5, 64}) {
      for (int cout : {1, 3, 5, 64}) {
        for (bool time_plane : {false, true}) {
          for (RawFill fill : {RawFill::kQ20, RawFill::kUniform,
                               RawFill::kRail}) {
            ConvEngine engine({.in_channels = cin, .out_channels = cout,
                               .extent = extent, .parallelism = 16});
            const ofx::FixedTensor w = raw_fill(
                {cout, cin + (time_plane ? 1 : 0), 3, 3}, fill, rng, 1);
            engine.load_weights(w);
            ASSERT_EQ(engine.has_time_weights(), time_plane);
            const ofx::FixedTensor x =
                raw_fill({cin, extent, extent}, fill, rng);
            const std::string where =
                "extent=" + std::to_string(extent) + " cin=" +
                std::to_string(cin) + " cout=" + std::to_string(cout) +
                " time=" + std::to_string(time_plane) +
                " fill=" + std::to_string(static_cast<int>(fill));
            for (float t : {-1.75f, 0.0f, 2.5f}) {
              expect_conv_matches_reference(engine, w, x, t, where);
              if (!time_plane) break;  // t only reaches the time plane
            }
          }
        }
      }
    }
  }
}

TEST(ConvEngineOracle, RailInputsWrapTheAccumulator) {
  // The layer3_2 geometry on rail inputs: every tap multiplies INT32_MAX
  // or INT32_MIN by INT32_MAX, so the exact sums leave int64 within a few
  // channels. The accumulator wraps mod 2^64 — defined behaviour, caught
  // by the UBSan CI job if it ever regresses to a signed overflow.
  ConvEngine engine({.in_channels = 64, .out_channels = 64, .extent = 8,
                     .parallelism = 16});
  ofx::FixedTensor w;
  w.shape = {64, 65, 3, 3};
  w.raw.assign(64 * 65 * 9, kI32Max);
  engine.load_weights(w);
  ou::Rng rng(12);
  const ofx::FixedTensor x = raw_fill({64, 8, 8}, RawFill::kRail, rng);
  expect_conv_matches_reference(engine, w, x, 23.0f, "rail");
}

TEST(MacArray, WritebackIsDefinedOnRails) {
  // Writeback is defined on every int64, rails included, and saturates.
  EXPECT_EQ(MacArray::writeback(std::numeric_limits<std::int64_t>::max(), 20),
            kI32Max);
  EXPECT_EQ(MacArray::writeback(std::numeric_limits<std::int64_t>::min(), 20),
            kI32Min);
  EXPECT_EQ(MacArray::writeback(std::numeric_limits<std::int64_t>::min(), 1),
            kI32Min);
  // Round half away from zero just below the rail: -(2^31 - 0.5) at Q1.
  EXPECT_EQ(MacArray::writeback(-(std::int64_t{1} << 32) + 1, 1), kI32Min);
  EXPECT_EQ(MacArray::writeback((std::int64_t{1} << 32) - 3, 1), kI32Max);
}

TEST(ConvEngine, RejectsBadShapes) {
  ConvEngine engine({.in_channels = 2, .out_channels = 2, .extent = 4,
                     .parallelism = 1});
  ofx::FixedTensor bad;
  bad.shape = {3, 4, 4};
  bad.raw.resize(48);
  EXPECT_THROW(engine.run(bad, 0.0f), odenet::Error);  // weights not loaded
  odenet::core::Tensor w({2, 2, 3, 3});
  engine.load_weights(ofx::quantize(w, 20));
  EXPECT_THROW(engine.run(bad, 0.0f), odenet::Error);  // wrong channels
}

TEST(BnEngine, CycleModel) {
  // elems*20 + channels*40.
  EXPECT_EQ(BnEngine::bn_cycles(64, 8), 4096u * 20 + 64u * 40);
  EXPECT_EQ(BnEngine::bn_cycles(16, 32), 16384u * 20 + 16u * 40);
}

TEST(BnEngine, FunctionalMatchesBatchStatsBn) {
  ou::Rng rng(3);
  odenet::core::BatchNorm2d ref(4);
  ref.set_use_batch_stats_in_eval(true);
  ref.gamma().value.at1(1) = 1.7f;
  ref.beta().value.at1(2) = -0.6f;

  BnEngine engine({.channels = 4, .extent = 6});
  engine.load_params(ofx::quantize(ref.gamma().value, 20),
                     ofx::quantize(ref.beta().value, 20));

  Tensor x = random_tensor({1, 4, 6, 6}, rng, 1.0);
  Tensor want = ref.forward(x);
  std::uint64_t cycles = 0;
  auto got = ofx::dequantize(
      engine.run(ofx::quantize(x.reshaped({4, 6, 6}), 20), &cycles));
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 5e-3f) << "at " << i;
  }
  EXPECT_EQ(cycles, engine.cycles_per_run());
}

TEST(BnEngine, FusedReluClamps) {
  BnEngine engine({.channels = 1, .extent = 4, .fused_relu = true});
  odenet::core::Tensor gamma({1}), beta({1});
  gamma.at1(0) = 1.0f;
  engine.load_params(ofx::quantize(gamma, 20), ofx::quantize(beta, 20));
  ou::Rng rng(4);
  Tensor x = random_tensor({1, 1, 4, 4}, rng, 2.0);
  auto out = ofx::dequantize(engine.run(ofx::quantize(x.reshaped({1, 4, 4}),
                                                      20)));
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_GE(out.data()[i], 0.0f);
  }
  // Normalized output must contain zeros (the clamped half).
  int zeros = 0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    zeros += (out.data()[i] == 0.0f);
  }
  EXPECT_GT(zeros, 0);
}

TEST(BnEngine, RailInputsStayDefined) {
  // One 8x8 plane alternating INT32_MIN/INT32_MAX: the squared deviations
  // sum to ~2^68, past int64. mean = -1, so d = -(2^31 - 1) or 2^31,
  // var ~ 2048^2, std_raw = 2^31 - 1, inv_std_raw = 512, and each output
  // normalizes to exactly -1.0 or +1.0 (gamma 1, beta 0).
  ou::Rng rng(13);
  const ofx::FixedTensor x = raw_fill({1, 8, 8}, RawFill::kRail, rng);
  odenet::core::Tensor gamma({1}), beta({1});
  gamma.at1(0) = 1.0f;
  for (bool relu : {false, true}) {
    BnEngine engine({.channels = 1, .extent = 8, .fused_relu = relu});
    engine.load_params(ofx::quantize(gamma, 20), ofx::quantize(beta, 20));
    const ofx::FixedTensor out = engine.run(x);
    for (std::size_t i = 0; i < out.raw.size(); ++i) {
      const std::int32_t want =
          x.raw[i] == kI32Min ? (relu ? 0 : -(1 << 20)) : (1 << 20);
      EXPECT_EQ(out.raw[i], want) << "relu=" << relu << " at " << i;
    }
  }
}

TEST(BnEngine, OutlierUnderRailGammaSaturates) {
  // Q30, one INT32_MAX outlier in an 8x8 plane of zeros: the outlier
  // normalizes to sqrt(63) ~ 7.94, and times a rail gamma (~2.0) its
  // product (~1.8e19 at Q60) leaves int64. It saturates; the zeros land
  // at -2/sqrt(63).
  constexpr int kFb = 30;
  BnEngine engine({.channels = 1, .extent = 8, .frac_bits = kFb});
  ofx::FixedTensor g, b, x;
  g.shape = b.shape = {1};
  g.raw = {kI32Max};
  b.raw = {0};
  engine.load_params(g, b);
  x.shape = {1, 8, 8};
  x.frac_bits = kFb;
  x.raw.assign(64, 0);
  x.raw[27] = kI32Max;
  const ofx::FixedTensor out = engine.run(x);
  EXPECT_EQ(out.raw[27], kI32Max);
  const double want = -2.0 / std::sqrt(63.0) * static_cast<double>(1 << kFb);
  for (std::size_t i = 0; i < out.raw.size(); ++i) {
    if (i == 27) continue;
    EXPECT_EQ(out.raw[i], out.raw[0]) << "at " << i;
  }
  EXPECT_NEAR(static_cast<double>(out.raw[0]), want, 1e-3 * (1 << kFb));
}

TEST(Bram, AllocationGranularity) {
  BramAllocator a;
  // 512 32-bit words fit exactly one BRAM18.
  EXPECT_EQ(a.allocate("b1", 512, 1, 32), 1);
  EXPECT_EQ(a.allocate("b2", 513, 1, 32), 2);
  // 16-bit words pack two per entry.
  EXPECT_EQ(a.allocate("b3", 1024, 1, 16), 1);
  // Banking multiplies granularity.
  EXPECT_EQ(a.allocate("b4", 512, 4, 32), 4);
  EXPECT_EQ(a.bram18_used(), 1 + 2 + 1 + 4);
  EXPECT_EQ(a.bram36_used(), 4);  // ceil(8/2)
}

TEST(Bram, SaturationDetected) {
  FpgaDevice tiny{.part = "tiny", .bram36 = 2, .dsp = 10, .lut = 100,
                  .ff = 100};
  BramAllocator a(tiny);
  a.allocate("big", 5 * 1024, 1, 32);  // 10 BRAM18 = 5 BRAM36 > 2
  EXPECT_TRUE(a.saturated());
  EXPECT_EQ(a.bram36_placed(), 2);
  EXPECT_GT(a.utilization(), 1.0);
}

TEST(Axi, PaperTransferModel) {
  // 1 cycle per float32 word, no setup: layer3_2 fmap = 4096 words.
  EXPECT_EQ(transfer_cycles(4096), 4096u);
  EXPECT_EQ(roundtrip_cycles(4096, 4096), 8192u);
  AxiConfig faster{.cycles_per_word = 0.25, .setup_cycles = 100};
  EXPECT_EQ(transfer_cycles(4096, faster), 100u + 1024u);
}

// --------------------------------------------------------------------------
// Whole-accelerator behaviour.

TEST(Accelerator, RejectsTimingViolation) {
  EXPECT_THROW(OdeBlockAccelerator({.channels = 64, .extent = 8,
                                    .parallelism = 32}),
               odenet::Error);
  // Down-clocked conv_x32 is allowed.
  EXPECT_NO_THROW(OdeBlockAccelerator(
      {.channels = 64, .extent = 8, .parallelism = 32, .clock_mhz = 50.0}));
  // Or with enforcement disabled.
  EXPECT_NO_THROW(OdeBlockAccelerator({.channels = 64, .extent = 8,
                                       .parallelism = 32,
                                       .enforce_timing = false}));
}

TEST(Accelerator, BranchEvalMatchesSoftware) {
  ou::Rng rng(5);
  odenet::core::BuildingBlock block({.in_channels = 4, .out_channels = 4,
                                     .stride = 1, .time_channel = true});
  odenet::core::init_block(block, rng);
  block.bn1().set_use_batch_stats_in_eval(true);
  block.bn2().set_use_batch_stats_in_eval(true);
  // Snap weights to Q20 so both paths see identical parameters.
  for (auto* p : block.params()) {
    p->value = ofx::dequantize(ofx::quantize(p->value, 20));
  }

  OdeBlockAccelerator accel({.channels = 4, .extent = 6, .parallelism = 4});
  accel.load_weights(block);

  Tensor z = random_tensor({1, 4, 6, 6}, rng);
  Tensor want = block.branch_forward(z, 1.0f);
  CycleBreakdown cycles;
  Tensor got = accel.eval_branch(z, 1.0f, &cycles);

  ASSERT_TRUE(got.same_shape(want));
  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 2e-2f) << "at " << i;
  }
  EXPECT_GT(cycles.conv1, 0u);
  EXPECT_GT(cycles.bn2, 0u);
}

TEST(Accelerator, EulerSolveMatchesOdeBlock) {
  ou::Rng rng(6);
  odenet::models::OdeBlock ode({.channels = 4, .executions = 2}, "ode");
  odenet::core::init_block(ode.block(), rng);
  ode.block().bn1().set_use_batch_stats_in_eval(true);
  ode.block().bn2().set_use_batch_stats_in_eval(true);
  for (auto* p : ode.block().params()) {
    p->value = ofx::dequantize(ofx::quantize(p->value, 20));
  }

  OdeBlockAccelerator accel({.channels = 4, .extent = 5, .parallelism = 4});
  accel.load_weights(ode.block());

  Tensor z0 = random_tensor({1, 4, 5, 5}, rng);
  Tensor want = ode.forward(z0);
  AcceleratorReport report;
  Tensor got = accel.solve_euler(z0, 2, 1.0f, &report);

  for (std::size_t i = 0; i < want.numel(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 5e-2f) << "at " << i;
  }
  EXPECT_EQ(report.executions, 2);
  EXPECT_GT(report.seconds(), 0.0);
}

TEST(Accelerator, EulerSolveMatchesReferenceBitwise) {
  // 24 executions (rODENet-3-56's layer3_2) of the whole PL block against
  // the reference-conv composition, on both kernel ISAs.
  ou::Rng rng(8);
  odenet::core::BuildingBlock block({.in_channels = 8, .out_channels = 8,
                                     .stride = 1, .time_channel = true});
  odenet::core::init_block(block, rng);
  OdeBlockAccelerator accel({.channels = 8, .extent = 8, .parallelism = 16});
  accel.load_weights(block);

  const Tensor z0 = random_tensor({1, 8, 8, 8}, rng);
  const float h = 1.0f / 24.0f;
  const Tensor want =
      odenet::testing::pl_solve_euler_reference(block, z0, 24, h, 20);
  for (bool scalar : {true, false}) {
    odenet::core::gemm_cap_isa(scalar ? odenet::core::GemmIsa::kScalar
                               : odenet::core::GemmIsa::kAvx512);
    const Tensor got = accel.solve_euler(z0, 24, h);
    odenet::core::gemm_cap_isa(odenet::core::GemmIsa::kAvx512);
    ASSERT_TRUE(got.same_shape(want));
    for (std::size_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i])
          << "scalar=" << scalar << " at " << i;
    }
  }
}

TEST(Accelerator, Layer32CyclesAndTransfersMatchTable5) {
  // rODENet-3 offload geometry at conv_x16: 1.6435 Mcycles compute + 8192
  // transfer cycles = 16.52 ms per execution at 100 MHz.
  OdeBlockAccelerator accel({.channels = 64, .extent = 8, .parallelism = 16});
  const auto c = accel.cycles_per_execution();
  EXPECT_EQ(c.conv1, 4u * 36864u * 5u);
  EXPECT_EQ(c.total(), 2 * ConvEngine::conv_cycles(64, 64, 8, 16) +
                           2 * BnEngine::bn_cycles(64, 8));
  EXPECT_EQ(accel.transfer_cycles_per_execution(), 8192u);
  // 24 executions (rODENet-3-56) -> ~0.40 s, the paper's Table-5 cell.
  AcceleratorReport r;
  r.per_execution = c;
  r.transfer_cycles_per_execution = accel.transfer_cycles_per_execution();
  r.executions = 24;
  r.clock_mhz = 100.0;
  EXPECT_NEAR(r.seconds(), 0.40, 0.01);
}

TEST(Accelerator, LoadRejectsGeometryMismatch) {
  ou::Rng rng(7);
  odenet::core::BuildingBlock block({.in_channels = 8, .out_channels = 8,
                                     .stride = 1});
  odenet::core::init_block(block, rng);
  OdeBlockAccelerator accel({.channels = 4, .extent = 6, .parallelism = 2});
  EXPECT_THROW(accel.load_weights(block), odenet::Error);
  // eval before load_weights:
  EXPECT_THROW(accel.eval_branch(Tensor({1, 4, 6, 6}), 0.0f), odenet::Error);
}

TEST(Accelerator, BramPlanShrinksWithNarrowWeights) {
  OdeBlockAccelerator q20({.channels = 64, .extent = 8, .parallelism = 16,
                           .frac_bits = 20});
  OdeBlockAccelerator q8({.channels = 64, .extent = 8, .parallelism = 16,
                          .frac_bits = 8});
  EXPECT_LT(q8.bram().bram36_used(), q20.bram().bram36_used());
}
