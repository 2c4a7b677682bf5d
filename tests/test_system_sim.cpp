// PS/PL co-simulation of whole networks.
#include <gtest/gtest.h>

#include <cmath>

#include "core/gemm_kernels.hpp"
#include "pl_conv_reference.hpp"
#include "sched/fpga_executor.hpp"
#include "sched/system_sim.hpp"
#include "util/rng.hpp"

using namespace odenet;
using models::Arch;
using models::StageId;

namespace {

models::WidthConfig tiny_width() {
  return {.input_channels = 3, .input_size = 16, .base_channels = 4,
          .num_classes = 5};
}

core::Tensor random_input(int batch, util::Rng& rng) {
  core::Tensor x({batch, 3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

}  // namespace

TEST(SystemSim, LogitsCloseToSoftwareNetwork) {
  util::Rng rng(1);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);

  sched::SystemSimulator sim(net,
                             sched::Partition::single(StageId::kLayer3_2, 16));
  // Batch of 1: the PL normalizes per image, so the apples-to-apples
  // software reference is a single-image batch.
  core::Tensor x = random_input(1, rng);

  // Software reference AFTER the simulator aligned BN semantics.
  net.set_training(false);
  core::Tensor sw = net.forward(x);
  core::Tensor hybrid = sim.forward(x);

  ASSERT_TRUE(sw.same_shape(hybrid));
  for (std::size_t i = 0; i < sw.numel(); ++i) {
    EXPECT_NEAR(hybrid.data()[i], sw.data()[i], 0.15f) << "logit " << i;
  }
}

TEST(SystemSim, PredictionsUsuallyAgreeWithSoftware) {
  util::Rng rng(2);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::SystemSimulator sim(net,
                             sched::Partition::single(StageId::kLayer3_2, 16));
  // Per-image comparison (the PL normalizes each image independently).
  int agree = 0;
  for (int i = 0; i < 8; ++i) {
    core::Tensor x = random_input(1, rng);
    if (net.predict(x) == sim.predict(x)) ++agree;
  }
  EXPECT_GE(agree, 7) << "fixed-point flip rate too high";
}

TEST(SystemSim, ReportSplitsPsAndPl) {
  util::Rng rng(3);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::SystemSimulator sim(net,
                             sched::Partition::single(StageId::kLayer3_2, 16));
  sched::SystemRunReport report;
  sim.forward(random_input(2, rng), &report);

  EXPECT_GT(report.ps_seconds, 0.0);
  EXPECT_GT(report.pl_seconds, 0.0);
  EXPECT_GT(report.pl_cycles, 0u);
  // Stage list covers the non-empty stages, exactly one on the PL.
  int on_pl = 0;
  for (const auto& s : report.stages) on_pl += s.on_pl;
  EXPECT_EQ(on_pl, 1);
  EXPECT_EQ(report.stages.size(), 4u);  // layer1, 2_1, 3_1, 3_2 (2_2 removed)
}

TEST(SystemSim, PlCyclesMatchStaticModel) {
  util::Rng rng(4);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::Partition part = sched::Partition::single(StageId::kLayer3_2, 8);
  sched::SystemSimulator sim(net, part);
  sched::SystemRunReport report;
  const int batch = 3;
  sim.forward(random_input(batch, rng), &report);

  const auto& spec = net.stage(StageId::kLayer3_2)->spec();
  const std::uint64_t per_exec =
      sched::LatencyModel::pl_block_cycles(spec, 8);
  const std::size_t fwords = static_cast<std::size_t>(spec.out_channels) *
                             spec.in_size * spec.in_size;
  const std::uint64_t expected =
      batch * spec.executions *
      (per_exec + fpga::roundtrip_cycles(fwords, fwords));
  EXPECT_EQ(report.pl_cycles, expected);
}

TEST(SystemSim, FpgaExecutorMatchesReferenceBitwise) {
  // rODENet-3-56's layer3_2 (24 Euler executions) on the PL executor at
  // batch 3: every image equals the reference-conv composition bitwise,
  // on both kernel ISAs.
  util::Rng rng(8);
  models::Network net(models::make_spec(Arch::kROdeNet3, 56, tiny_width()));
  net.init(rng);
  models::Stage& stage = *net.stage(StageId::kLayer3_2);
  sched::FpgaStageExecutor exec(stage, {.parallelism = 16});
  const auto& spec = stage.spec();
  ASSERT_EQ(spec.executions, 24);
  const int c = spec.out_channels, s = spec.in_size;
  core::Tensor x({3, c, s, s});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  const float h = (stage.ode()->t1() - stage.ode()->t0()) /
                  static_cast<float>(spec.executions);
  const std::size_t per_image = static_cast<std::size_t>(c) * s * s;
  for (bool scalar : {true, false}) {
    core::gemm_cap_isa(scalar ? core::GemmIsa::kScalar
                       : core::GemmIsa::kAvx512);
    core::StageRunStats stats;
    const core::Tensor got = exec.run(stage, x, &stats);
    core::gemm_cap_isa(core::GemmIsa::kAvx512);
    EXPECT_GT(stats.pl_cycles, 0u);
    for (int b = 0; b < 3; ++b) {
      core::Tensor zi({1, c, s, s});
      std::copy_n(x.data() + b * per_image, per_image, zi.data());
      const core::Tensor want = odenet::testing::pl_solve_euler_reference(
          stage.ode()->block(), zi, spec.executions, h, 20);
      for (std::size_t i = 0; i < per_image; ++i) {
        ASSERT_EQ(got.data()[b * per_image + i], want.data()[i])
            << "scalar=" << scalar << " image " << b << " at " << i;
      }
    }
  }
}

TEST(SystemSim, NoOffloadRunsPureSoftware) {
  util::Rng rng(5);
  models::Network net(models::make_spec(Arch::kResNet, 14, tiny_width()));
  net.init(rng);
  sched::SystemSimulator sim(net, sched::Partition::none());
  sched::SystemRunReport report;
  core::Tensor x = random_input(1, rng);
  net.set_training(false);
  core::Tensor sw = net.forward(x);
  core::Tensor hybrid = sim.forward(x, &report);
  for (std::size_t i = 0; i < sw.numel(); ++i) {
    EXPECT_FLOAT_EQ(hybrid.data()[i], sw.data()[i]);  // identical path
  }
  EXPECT_EQ(report.pl_cycles, 0u);
  EXPECT_EQ(report.pl_seconds, 0.0);
}

TEST(SystemSim, RejectsNonOdeOffload) {
  util::Rng rng(6);
  models::Network net(models::make_spec(Arch::kResNet, 14, tiny_width()));
  net.init(rng);
  // ResNet's layer3_2 stacks plain blocks: not offloadable functionally.
  EXPECT_THROW(sched::SystemSimulator(
                   net, sched::Partition::single(StageId::kLayer3_2, 16)),
               odenet::Error);
}

TEST(SystemSim, ReloadWeightsTracksTraining) {
  util::Rng rng(7);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::SystemSimulator sim(net,
                             sched::Partition::single(StageId::kLayer3_2, 16));
  core::Tensor x = random_input(1, rng);
  core::Tensor before = sim.forward(x);

  // Perturb every parameter of the offloaded block (a uniform shift of one
  // conv's weights alone is largely absorbed by the following batch norm);
  // without reload the accelerator still holds the stale BRAM image.
  for (core::Param* p : net.stage(StageId::kLayer3_2)->ode()->params()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      p->value.data()[i] += 0.5f;
    }
  }
  core::Tensor stale = sim.forward(x);
  double stale_diff = 0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    stale_diff = std::max(stale_diff, std::fabs(static_cast<double>(
                              stale.data()[i]) - before.data()[i]));
  }
  EXPECT_LT(stale_diff, 1e-6);

  sim.reload_weights();
  core::Tensor fresh = sim.forward(x);
  double fresh_diff = 0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    fresh_diff = std::max(fresh_diff, std::fabs(static_cast<double>(
                              fresh.data()[i]) - before.data()[i]));
  }
  EXPECT_GT(fresh_diff, 1e-4);
}
