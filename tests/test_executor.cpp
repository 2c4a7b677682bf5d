// StageExecutor backends and StagePlan routing (models/executor.hpp,
// sched/fpga_executor.hpp): backend parity within quantization tolerance,
// single dispatch loop, per-stage stats; the fixed backend's fused
// int16 datapath against the unfused chain of standalone primitives,
// bitwise, on every architecture, ISA, worker count and fault path; and
// float and fixed forwards on the AVX-512 tier memcmp-equal to AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/im2col.hpp"
#include "fixed/fixed_tensor.hpp"
#include "isa_tiers.hpp"
#include "models/executor.hpp"
#include "models/network.hpp"
#include "sched/fpga_executor.hpp"
#include "sched/latency_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "unfused_fixed_reference.hpp"

using namespace odenet;
using odenet::testing::UnfusedFixedReference;
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

double max_abs_diff(const core::Tensor& a, const core::Tensor& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff;
}

}  // namespace

TEST(Executor, ExplicitFloatPlanMatchesDefaultForward) {
  util::Rng rng(1);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(2, rng);

  core::Tensor base = net.forward(x);
  models::FloatStageExecutor float_exec;
  models::StagePlan plan(&float_exec);
  core::Tensor routed = net.forward_with(x, plan);

  ASSERT_TRUE(base.same_shape(routed));
  for (std::size_t i = 0; i < base.numel(); ++i) {
    EXPECT_FLOAT_EQ(base.data()[i], routed.data()[i]);
  }
}

TEST(Executor, FixedBackendWithinQuantizationTolerance) {
  util::Rng rng(2);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(1, rng);

  core::Tensor base = net.forward(x);

  // The float-carrier oracle keeps Q11.20 activations on float operands:
  // per-element error ~1e-6, a handful of steps deep.
  UnfusedFixedReference q20f(20, /*float_only=*/true);
  models::StagePlan plan_f(&q20f);
  core::Tensor carrier_out = net.forward_with(x, plan_f);
  ASSERT_TRUE(base.same_shape(carrier_out));
  EXPECT_LT(max_abs_diff(base, carrier_out), 1e-3);

  // The default integer path carries int16 operands: weights on a Q(<=13)
  // grid (step >= 1.2e-4) and activations on the finest saturation-free
  // grid, so per-conv noise is ~sqrt(taps) * step / 2 and the 28-conv-deep
  // ODE sweep accumulates a few 1e-2 — budget 0.1 (~4x measured).
  models::FixedStageExecutor q20(20);
  models::StagePlan plan(&q20);
  core::Tensor fixed_out = net.forward_with(x, plan);
  ASSERT_TRUE(base.same_shape(fixed_out));
  EXPECT_LT(max_abs_diff(base, fixed_out), 0.1);
  // The int16 path's extra error over the float carrier is bounded by the
  // same operand-grid budget — they run the same quantized network.
  EXPECT_LT(max_abs_diff(carrier_out, fixed_out), 0.1);

  // A much narrower format must sit strictly farther from the reference.
  // The ordering is guaranteed on the float carrier, where the Q(frac)
  // output grid is the ONLY noise source; on the int16 path the operand
  // grids (fw <= 13) dominate at fine frac_bits, so q8-vs-q20 ordering is
  // checked there only in the ballpark sense.
  UnfusedFixedReference q8f(8, /*float_only=*/true);
  models::StagePlan coarse_f(&q8f);
  core::Tensor coarse_carrier = net.forward_with(x, coarse_f);
  EXPECT_GT(max_abs_diff(base, coarse_carrier),
            max_abs_diff(base, carrier_out));
  models::FixedStageExecutor q8(8);
  models::StagePlan coarse(&q8);
  core::Tensor coarse_out = net.forward_with(x, coarse);
  EXPECT_LT(max_abs_diff(base, coarse_out), 1.0);
}

TEST(Executor, FpgaSimBackendMatchesFloatWithinTolerance) {
  util::Rng rng(3);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);

  // Constructing the executor aligns the stage's BN semantics with the
  // hardware (per-batch statistics), so take the float reference after.
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  net.set_training(false);
  core::Tensor x = random_input(1, rng);
  core::Tensor base = net.forward(x);

  models::StagePlan plan;  // float fallback, PL for layer3_2
  plan.assign(StageId::kLayer3_2, &fpga);
  core::Tensor hybrid = net.forward_with(x, plan);

  ASSERT_TRUE(base.same_shape(hybrid));
  EXPECT_LT(max_abs_diff(base, hybrid), 0.15);
}

TEST(Executor, RunStatsCoverEveryStageAndFoldPlCycles) {
  util::Rng rng(4);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{
                                    .parallelism = 8});
  net.set_training(false);

  models::StagePlan plan;
  plan.assign(StageId::kLayer3_2, &fpga);
  models::NetworkRunStats stats;
  const int batch = 3;
  net.forward_with(random_input(batch, rng), plan, &stats);

  // layer1, layer2_1, layer3_1, layer3_2 (layer2_2 removed in rODENet-3).
  ASSERT_EQ(stats.stages.size(), 4u);
  int on_pl = 0;
  for (const auto& run : stats.stages) {
    if (run.id == StageId::kLayer3_2) {
      EXPECT_EQ(run.stats.backend, core::ExecBackend::kFpgaSim);
      EXPECT_TRUE(run.stats.on_accelerator);
      EXPECT_GT(run.stats.pl_cycles, 0u);
      ++on_pl;
    } else {
      EXPECT_EQ(run.stats.backend, core::ExecBackend::kFloat);
      EXPECT_FALSE(run.stats.on_accelerator);
      EXPECT_EQ(run.stats.pl_cycles, 0u);
    }
  }
  EXPECT_EQ(on_pl, 1);

  // The folded cycle count matches the static latency model, execution for
  // execution (same invariant the co-simulator test checks).
  const auto& spec = net.stage(StageId::kLayer3_2)->spec();
  const std::uint64_t per_exec = sched::LatencyModel::pl_block_cycles(spec, 8);
  const std::size_t fwords = static_cast<std::size_t>(spec.out_channels) *
                             spec.in_size * spec.in_size;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(batch) * spec.executions *
      (per_exec + fpga::roundtrip_cycles(fwords, fwords));
  EXPECT_EQ(stats.pl_cycles(), expected);
}

TEST(Executor, BackendsAgreeOnBatchedInputAcrossConvAlgos) {
  // Regression guard for the batched conv path: on one multi-sample
  // input, (a) the float plan is invariant to the conv algorithm (the
  // implicit-lowering GEMM vs direct — a layout bug in the batched path
  // would show up here even if single-sample unit tests pass), and (b) the
  // fixed and FPGA-sim plans still agree with the float plan within their
  // established tolerances.
  util::Rng rng(6);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);

  sched::FpgaStageExecutor fpga(*net.stage(StageId::kLayer3_2),
                                sched::FpgaStageExecutor::Config{});
  net.set_training(false);
  core::Tensor x = random_input(6, rng);

  models::FloatStageExecutor float_exec;
  models::StagePlan float_plan(&float_exec);
  core::Tensor batched = net.forward_with(x, float_plan);

  net.set_conv_algo(core::ConvAlgo::kDirect);
  core::Tensor direct = net.forward_with(x, float_plan);
  ASSERT_TRUE(batched.same_shape(direct));
  EXPECT_LT(max_abs_diff(batched, direct), 1e-4);

  net.set_conv_algo(core::ConvAlgo::kIm2col);
  UnfusedFixedReference q20f(20, /*float_only=*/true);
  models::StagePlan carrier_plan(&q20f);
  core::Tensor carrier_out = net.forward_with(x, carrier_plan);
  EXPECT_LT(max_abs_diff(batched, carrier_out), 1e-3);
  // The int16 integer path trades operand width for speed; its budget is
  // the int16-grid bound (see FixedBackendWithinQuantizationTolerance).
  models::FixedStageExecutor q20(20);
  models::StagePlan fixed_plan(&q20);
  core::Tensor fixed_out = net.forward_with(x, fixed_plan);
  EXPECT_LT(max_abs_diff(batched, fixed_out), 0.1);

  // The accelerator normalizes per image, so its batch output is not
  // comparable to float batch statistics — the invariant to guard instead
  // is batching-invariance: the hybrid plan must give each image of the
  // micro-batch exactly what it gives that image served alone (a layout
  // bug in the batched conv of the non-offloaded stages would break
  // this).
  models::StagePlan hybrid_plan;  // float fallback, PL for layer3_2
  hybrid_plan.assign(StageId::kLayer3_2, &fpga);
  core::Tensor hybrid = net.forward_with(x, hybrid_plan);
  const int classes = hybrid.dim(1);
  const std::size_t stride = static_cast<std::size_t>(3) * 16 * 16;
  for (int i : {0, 2, 5}) {
    core::Tensor one({1, 3, 16, 16});
    std::copy_n(x.data() + static_cast<std::size_t>(i) * stride, stride,
                one.data());
    core::Tensor single = net.forward_with(one, hybrid_plan);
    for (int c = 0; c < classes; ++c) {
      EXPECT_NEAR(hybrid.at2(i, c), single.at2(0, c), 1e-4)
          << "image " << i << " class " << c;
    }
  }
}

TEST(Executor, SharedNetworkArenaStopsGrowingAcrossForwardPasses) {
  // The network-owned scratch arena serves every conv of every stage;
  // after one routed pass it is at its high-water mark and further passes
  // (same batch size) never reallocate.
  util::Rng rng(7);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);

  models::FloatStageExecutor float_exec;
  models::StagePlan plan(&float_exec);
  core::Tensor x = random_input(4, rng);
  (void)net.forward_with(x, plan);
  const std::size_t capacity = net.scratch_arena().capacity();
  const std::uint64_t growths = net.scratch_arena().growths();
  EXPECT_GT(capacity, 0u);
  for (int i = 0; i < 3; ++i) (void)net.forward_with(x, plan);
  EXPECT_EQ(net.scratch_arena().capacity(), capacity);
  EXPECT_EQ(net.scratch_arena().growths(), growths);
}

TEST(Executor, ModeledCostHookReplacesMeasuredSeconds) {
  util::Rng rng(5);
  models::Network net(models::make_spec(Arch::kResNet, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);

  models::FloatStageExecutor modeled(
      [](const models::StageSpec&) { return 42.0; });
  models::StagePlan plan(&modeled);
  models::NetworkRunStats stats;
  net.forward_with(random_input(1, rng), plan, &stats);
  ASSERT_FALSE(stats.stages.empty());
  for (const auto& run : stats.stages) {
    EXPECT_DOUBLE_EQ(run.stats.seconds, 42.0);
  }
  EXPECT_DOUBLE_EQ(stats.stage_seconds(), 42.0 * stats.stages.size());
}

TEST(Executor, FixedIntegerPathAgreesWithFloatCarrierOracle) {
  // The float-carrier oracle (Q-grid weights, float operands, one
  // requantization per conv) sits within the Q20 parity budget of float;
  // the default int16 integer path runs the same quantized network on
  // narrower operand grids and agrees within the int16 budget (see
  // FixedBackendWithinQuantizationTolerance) with both.
  util::Rng rng(41);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(4, rng);

  UnfusedFixedReference carrier(20, /*float_only=*/true);
  models::StagePlan plan_f(&carrier);
  core::Tensor out_f = net.forward_with(x, plan_f);
  core::Tensor base = net.forward(x);
  ASSERT_TRUE(out_f.same_shape(base));
  EXPECT_LT(max_abs_diff(base, out_f), 1e-3);

  models::FixedStageExecutor fixed(20);
  models::StagePlan plan_i(&fixed);
  core::Tensor out_i = net.forward_with(x, plan_i);
  EXPECT_LT(max_abs_diff(out_i, out_f), 0.1);
  EXPECT_LT(max_abs_diff(base, out_i), 0.1);
}

TEST(Executor, FixedWeightCacheKeyedBySnapshotVersion) {
  util::Rng rng(42);
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::Tensor x = random_input(1, rng);
  models::FixedStageExecutor fixed(20);
  models::StagePlan plan(&fixed);

  // Unversioned weights: every conv evaluation requantizes + repacks.
  (void)net.forward_with(x, plan);
  const std::uint64_t packs_cold = fixed.weight_packs();
  EXPECT_GT(packs_cold, 0u);
  (void)net.forward_with(x, plan);
  EXPECT_GT(fixed.weight_packs(), packs_cold);

  // Versioned weights (serving steady state): one pack per conv, then
  // hits — repeat runs add nothing.
  net.apply_snapshot(*net.export_snapshot());
  (void)net.forward_with(x, plan);
  const std::uint64_t packs_warm = fixed.weight_packs();
  (void)net.forward_with(x, plan);
  (void)net.forward_with(x, plan);
  EXPECT_EQ(fixed.weight_packs(), packs_warm);

  // Hot-swap to a new version: exactly one round of repacks.
  net.apply_snapshot(*net.export_snapshot());
  (void)net.forward_with(x, plan);
  EXPECT_GT(fixed.weight_packs(), packs_warm);
}

TEST(Executor, WeightCacheSurvivesReplicaChurnWithoutAliasing) {
  // Regression: the cache used to be keyed by raw Conv2d*, so a replica
  // torn down and a new one allocated at a recycled address — with a
  // matching weight version — would silently serve the OLD replica's
  // quantized weights. Keys are now Conv2d::uid(), a process-global
  // never-recycled identity, so every fresh network quantizes its own
  // weights and stale entries age out of the LRU instead of aliasing.
  util::Rng rng(43);
  models::FixedStageExecutor fixed(20);
  models::StagePlan plan(&fixed);
  core::Tensor x = random_input(1, rng);

  core::Tensor first_out;
  for (int round = 0; round < 4; ++round) {
    // Same seed every round: identical weights, and the version stamp is
    // forced to the SAME value — exactly the aliasing trap. Heap reuse
    // across rounds makes recycled addresses likely.
    util::Rng net_rng(99);
    auto net = std::make_unique<models::Network>(
        models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
    net->init(net_rng);
    net->set_training(false);
    net->set_weight_version(7);

    const std::uint64_t packs_before = fixed.weight_packs();
    core::Tensor out = net->forward_with(x, plan);
    // A fresh replica must repack: a cache hit here could only come from
    // a stale aliased entry.
    EXPECT_GT(fixed.weight_packs(), packs_before) << "round " << round;
    if (round == 0) {
      first_out = std::move(out);
    } else {
      ASSERT_TRUE(first_out.same_shape(out));
      for (std::size_t i = 0; i < out.numel(); ++i) {
        ASSERT_EQ(first_out.data()[i], out.data()[i]) << "round " << round;
      }
    }
  }
  // Dead replicas' entries are retained only up to the LRU cap.
  EXPECT_LE(fixed.weight_cache_size(), std::size_t{256});
}

TEST(Executor, WeightCacheCapacityBoundsChurn) {
  // With a tiny capacity, many short-lived replicas cannot grow the cache
  // beyond the cap (the pointer-keyed map used to grow without bound —
  // one leaked entry per dead conv).
  util::Rng rng(44);
  models::FixedStageExecutor fixed(20);
  fixed.set_weight_cache_capacity(3);
  models::StagePlan plan(&fixed);
  core::Tensor x = random_input(1, rng);

  for (int round = 0; round < 5; ++round) {
    util::Rng net_rng(100 + round);
    models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
    net.init(net_rng);
    net.set_training(false);
    net.set_weight_version(1);
    (void)net.forward_with(x, plan);
    EXPECT_LE(fixed.weight_cache_size(), std::size_t{3}) << "round " << round;
  }
}

// ---- The fused int16 datapath against the unfused chain -----------------

namespace {

/// RAII kernel-pool + parallel-threshold + ISA override.
struct KernelOverride {
  KernelOverride(util::ThreadPool* pool, core::GemmIsa cap) : isa(cap) {
    core::set_kernel_pool(pool);
    core::gemm_set_parallel_min_flops(1);
  }
  ~KernelOverride() {
    core::set_kernel_pool(nullptr);
    core::gemm_set_parallel_min_flops(0);
  }
  odenet::testing::IsaCap isa;
};

void expect_bitwise(const core::Tensor& got, const core::Tensor& want) {
  ASSERT_TRUE(got.same_shape(want));
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           want.numel() * sizeof(float)));
}

/// Fixed-backend logits vs the unfused reference's, memcmp.
void expect_fixed_matches_reference(models::Network& net,
                                    const core::Tensor& x,
                                    UnfusedFixedReference* ref = nullptr) {
  models::FixedStageExecutor fixed(20);
  UnfusedFixedReference local(20);
  if (ref == nullptr) ref = &local;
  models::StagePlan fixed_plan(&fixed);
  models::StagePlan ref_plan(ref);
  expect_bitwise(net.forward_with(x, fixed_plan),
                 net.forward_with(x, ref_plan));
}

}  // namespace

TEST(Executor, FusedFixedForwardMatchesUnfusedChainOnAllArchitectures) {
  util::Rng rng(51);
  for (Arch arch : models::all_archs()) {
    SCOPED_TRACE(models::arch_name(arch));
    models::Network net(models::make_spec(arch, 20, tiny_width()));
    net.init(rng);
    net.set_training(false);
    UnfusedFixedReference ref(20);
    expect_fixed_matches_reference(net, random_input(3, rng), &ref);
    // The comparison is meaningful only if the integer path ran.
    EXPECT_TRUE(std::any_of(ref.calls.begin(), ref.calls.end(),
                            [](const auto& c) { return c.second; }));
  }
  // And the paper's geometry: rODENet-3-56 on 32x32 inputs, with BN
  // running statistics calibrated on data (as a trained network's are) so
  // the ODE stage's activations stay in the int16 path's range.
  models::Network paper(models::make_spec(Arch::kROdeNet3, 56));
  paper.init(rng);
  auto images = [&rng](int n) {
    core::Tensor x({n, 3, 32, 32});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return x;
  };
  paper.set_training(true);
  for (int b = 0; b < 3; ++b) (void)paper.forward(images(8));
  paper.set_training(false);
  UnfusedFixedReference ref(20);
  expect_fixed_matches_reference(paper, images(2), &ref);
  EXPECT_TRUE(std::any_of(ref.calls.begin(), ref.calls.end(),
                          [](const auto& c) {
                            return c.first == StageId::kLayer3_2 && c.second;
                          }));
}

TEST(Executor, FusedFixedForwardIsIsaThreadAndBatchInvariant) {
  // n in {1, 3, 16}; every usable ISA tier; 1, 2 and 4 workers with
  // every GEMM forced onto the split path. A 12x12 input gives 36- and
  // 9-pixel planes, so output tiles straddle samples.
  util::Rng rng(52);
  models::Network net(models::make_spec(Arch::kROdeNet3, 20, tiny_width()));
  net.init(rng);
  net.set_training(false);
  for (int n : {1, 3, 16}) {
    const core::Tensor x = random_input(n, rng);
    for (core::GemmIsa isa : odenet::testing::kAllIsas) {
      if (!core::gemm_isa_usable(isa)) continue;
      for (std::size_t workers : {1u, 2u, 4u}) {
        util::ThreadPool pool(workers);
        KernelOverride ov(&pool, isa);
        SCOPED_TRACE("n=" + std::to_string(n) + " " + core::gemm_isa_name() +
                     " workers=" + std::to_string(workers));
        expect_fixed_matches_reference(net, x);
      }
    }
  }
  models::WidthConfig odd = tiny_width();
  odd.input_size = 12;
  models::Network odd_net(models::make_spec(Arch::kROdeNet3, 20, odd));
  odd_net.init(rng);
  odd_net.set_training(false);
  core::Tensor x({3, 3, 12, 12});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  expect_fixed_matches_reference(odd_net, x);
}

TEST(Executor, FixedFloatCarrierAndBatchStatsBnMatchUnfusedChain) {
  // The epilogue passes behind the float carrier and the batch-statistics
  // BN mode (BN between the conv's requantization and the rest of the
  // epilogue) keep the unfused numerics too. At Q(29) no int16 weight
  // scale leaves a valid requantization shift (fw would need 14 >
  // kWeightFracMax), so every conv takes the float-carrier fallback; the
  // reference picks the same path by the same rule and, with float_only,
  // builds it independently.
  util::Rng rng(53);
  models::Network net(models::make_spec(Arch::kROdeNet3, 20, tiny_width()));
  net.init(rng);
  net.set_training(false);
  const core::Tensor x = random_input(3, rng);
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    util::ThreadPool pool(workers);
    KernelOverride ov(&pool, core::GemmIsa::kAvx512);
    models::FixedStageExecutor carrier(29);
    UnfusedFixedReference ref(29, /*float_only=*/true);
    models::StagePlan carrier_plan(&carrier);
    models::StagePlan ref_plan(&ref);
    expect_bitwise(net.forward_with(x, carrier_plan),
                   net.forward_with(x, ref_plan));
  }
  EXPECT_EQ(models::FixedStageExecutor::int16_weight_frac_bits(
                core::Tensor({1, 1, 1, 1}), 29),
            -1);
  models::OdeBlock* ode = net.stage(StageId::kLayer3_2)->ode();
  ode->block().bn1().set_use_batch_stats_in_eval(true);
  ode->block().bn2().set_use_batch_stats_in_eval(true);
  expect_fixed_matches_reference(net, x);
}

TEST(Executor, FixedFallbackMidOdeStageMatchesUnfusedChain) {
  // A large bn2 shift makes every Euler step add ~h*1000 to z, so the
  // first steps run the int16 path and, once max|z| leaves no valid
  // requantization shift (fa + fw < frac_bits), later calls of the SAME
  // stage fall back to the float carrier.
  util::Rng rng(54);
  models::Network net(models::make_spec(Arch::kROdeNet3, 20, tiny_width()));
  net.init(rng);
  net.set_training(false);
  core::BatchNorm2d& bn2 = net.stage(StageId::kLayer3_2)->ode()->block().bn2();
  for (int c = 0; c < bn2.channels(); ++c) bn2.beta().value.at1(c) = 1000.0f;
  UnfusedFixedReference ref(20);
  expect_fixed_matches_reference(net, random_input(3, rng), &ref);
  std::vector<bool> ode_paths;
  for (const auto& [stage, int_path] : ref.calls) {
    if (stage == StageId::kLayer3_2) ode_paths.push_back(int_path);
  }
  ASSERT_FALSE(ode_paths.empty());
  EXPECT_TRUE(ode_paths.front()) << "first Euler step should run int16";
  EXPECT_TRUE(std::find(ode_paths.begin(), ode_paths.end(), false) !=
              ode_paths.end())
      << "no call fell back to the float carrier";
}

TEST(Executor, FixedNonFiniteAndSaturatingImagesMatchUnfusedChain) {
  util::Rng rng(55);
  models::Network net(models::make_spec(Arch::kROdeNet3, 20, tiny_width()));
  net.init(rng);
  net.set_training(false);
  const float inf = std::numeric_limits<float>::infinity();

  // NaN / +-Inf pixels.
  core::Tensor specials = random_input(3, rng);
  specials.data()[5] = std::numeric_limits<float>::quiet_NaN();
  specials.data()[300] = inf;
  specials.data()[1000] = -inf;
  specials.data()[1700] = std::numeric_limits<float>::quiet_NaN();
  expect_fixed_matches_reference(net, specials);

  // Saturating images: activations clamp at the Q11.20 rails.
  core::Tensor huge = random_input(3, rng);
  for (std::size_t i = 0; i < huge.numel(); ++i) huge.data()[i] *= 1e5f;
  expect_fixed_matches_reference(net, huge);

  // A stage input whose largest magnitude lands exactly on the int16
  // rail: 65533 * 2^-11 * 2^10 = 32766.5 picks fa = 10 and rounds half
  // away from zero to +-32767.
  const float rail = 65533.0f / 2048.0f;
  for (StageId id : {StageId::kLayer1, StageId::kLayer3_2}) {
    SCOPED_TRACE(models::stage_name(id));
    models::Stage& stage = *net.stage(id);
    const auto& spec = stage.spec();
    core::Tensor x({2, spec.in_channels, spec.in_size, spec.in_size});
    for (std::size_t i = 0; i < x.numel(); ++i) {
      x.data()[i] = static_cast<float>(rng.normal(0.0, 2.0));
    }
    x.data()[7] = rail;
    x.data()[x.numel() - 3] = -rail;
    models::FixedStageExecutor fixed(20);
    UnfusedFixedReference ref(20);
    expect_bitwise(fixed.run(stage, x, nullptr), ref.run(stage, x, nullptr));
    ASSERT_FALSE(ref.calls.empty());
    EXPECT_TRUE(ref.calls.front().second) << "rail input should run int16";
  }
}

TEST(Executor, Avx512ForwardsMatchAvx2OnAllArchitectures) {
  // Float and fixed forwards of all seven architectures, batch 3, on the
  // AVX-512 tier against AVX2, memcmp, at 1, 2 and 4 workers with every
  // GEMM on the split path. Base width 8 gives 8-, 16- and 32-channel
  // convs (the 4-row route and whole 16-row groups) over 16x16, 8x8 and
  // 4x4 planes, and a ragged 5-class head.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  util::Rng rng(56);
  models::WidthConfig width = tiny_width();
  width.base_channels = 8;
  for (Arch arch : models::all_archs()) {
    SCOPED_TRACE(models::arch_name(arch));
    models::Network net(models::make_spec(arch, 20, width));
    net.init(rng);
    net.set_training(false);
    const core::Tensor x = random_input(3, rng);
    for (std::size_t workers : {1u, 2u, 4u}) {
      util::ThreadPool pool(workers);
      KernelOverride ov(&pool, core::GemmIsa::kAvx512);
      auto logits = [&](models::StageExecutor* exec) {
        models::StagePlan plan(exec);
        const core::Tensor y = net.forward_with(x, plan);
        return std::vector<float>(y.data(), y.data() + y.numel());
      };
      models::FloatStageExecutor float_exec;
      models::FixedStageExecutor fixed_exec(20);
      odenet::testing::expect_avx512_matches_avx2(
          [&] { return logits(&float_exec); },
          "float workers=" + std::to_string(workers));
      odenet::testing::expect_avx512_matches_avx2(
          [&] { return logits(&fixed_exec); },
          "fixed workers=" + std::to_string(workers));
    }
  }
}
