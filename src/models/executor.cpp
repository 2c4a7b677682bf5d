#include "models/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "fixed/fixed_tensor.hpp"
#include "util/stopwatch.hpp"

namespace odenet::models {

double NetworkRunStats::stage_seconds() const {
  double total = 0.0;
  for (const auto& s : stages) total += s.stats.seconds;
  return total;
}

std::uint64_t NetworkRunStats::pl_cycles() const {
  std::uint64_t total = 0;
  for (const auto& s : stages) total += s.stats.pl_cycles;
  return total;
}

FloatStageExecutor::FloatStageExecutor(CostModel modeled_seconds)
    : name_("float_cpu"), modeled_seconds_(std::move(modeled_seconds)) {}

core::Tensor FloatStageExecutor::run(Stage& stage, const core::Tensor& x,
                                     core::StageRunStats* stats) {
  util::Stopwatch watch;
  core::Tensor out = stage.forward(x);
  if (stats != nullptr) {
    stats->backend = core::ExecBackend::kFloat;
    stats->on_accelerator = false;
    stats->pl_cycles = 0;
    stats->seconds = modeled_seconds_ ? modeled_seconds_(stage.spec())
                                      : watch.seconds();
  }
  return out;
}

int FixedStageExecutor::int16_weight_frac_bits(const core::Tensor& w,
                                               int frac_bits) {
  // The largest fw <= kWeightFracMax for which the integer datapath is
  // HARD overflow-free: (a) no weight saturates — max|w|*2^fw <= 32767
  // keeps |w_q| <= 32767, so no int16 product pair can wrap a madd lane;
  // (b) the accumulator envelope — sum_k |w_q| <= 65535 bounds |acc| <=
  // 65535 * 32768 < 2^31 for ANY int16 activations. The L1 bound uses the
  // worst row (out channel) plus the per-tap rounding slack.
  const int rows = w.dim(0);
  const std::size_t taps = w.numel() / static_cast<std::size_t>(rows);
  double max_abs = 0.0, max_l1 = 0.0;
  for (int r = 0; r < rows; ++r) {
    const float* row = w.data() + static_cast<std::size_t>(r) * taps;
    double l1 = 0.0;
    for (std::size_t p = 0; p < taps; ++p) {
      const double a = std::fabs(static_cast<double>(row[p]));
      l1 += a;
      if (a > max_abs) max_abs = a;
    }
    if (l1 > max_l1) max_l1 = l1;
  }
  int fw = kWeightFracMax;
  while (fw > 0 &&
         max_abs * static_cast<double>(std::int64_t{1} << fw) > 32767.0) {
    --fw;
  }
  while (fw > 0 && max_l1 * static_cast<double>(std::int64_t{1} << fw) +
                           0.5 * static_cast<double>(taps) + 1.0 >
                       65535.0) {
    --fw;
  }
  // The requantization shift fa+fw-frac_bits must be >= 0 even at the
  // finest activation grid; weights too large (or a frac_bits too fine)
  // leave the conv on the float carrier.
  if (fw > 0 && fw >= frac_bits - kActFracMax && frac_bits < 31) return fw;
  return -1;
}

int FixedStageExecutor::int16_act_frac_bits(float max_abs,
                                            int weight_frac_bits,
                                            int frac_bits) {
  // ODE stages legitimately push activations past +-8 as the Euler sweep
  // accumulates, so a fixed fa would clip them.
  if (!std::isfinite(max_abs)) return -1;
  int fa = kActFracMax;
  while (fa > 0 && static_cast<double>(max_abs) *
                           static_cast<double>(std::int64_t{1} << fa) >
                       32766.5) {
    --fa;
  }
  // Range beyond int16 even at fa=1, or no valid rounding shift at this
  // range -> float carrier for this call.
  if (fa < 1 || fa + weight_frac_bits < frac_bits) return -1;
  return fa;
}

FixedStageExecutor::FixedStageExecutor(int frac_bits)
    : name_("fixed_cpu_q" + std::to_string(frac_bits)),
      frac_bits_(frac_bits) {}

FixedStageExecutor::QuantizedWeights& FixedStageExecutor::cache_entry(
    const core::Conv2d& conv) {
  QuantizedWeights& entry = wcache_[conv.uid()];
  entry.last_use = ++use_tick_;
  if (wcache_.size() > wcache_capacity_) {
    // Evict the least-recently-used entry that is not the one being
    // served. Replica churn through one executor stays bounded; a single
    // replica's working set (conv count << capacity) is never touched.
    auto victim = wcache_.end();
    for (auto it = wcache_.begin(); it != wcache_.end(); ++it) {
      if (it->first == conv.uid()) continue;
      if (victim == wcache_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    // Erasing another element never invalidates `entry`'s reference.
    if (victim != wcache_.end()) wcache_.erase(victim);
  }
  return entry;
}

void FixedStageExecutor::fixed_conv(core::Conv2d& conv, const core::Tensor& x,
                                    float t, const core::GemmI16Epilogue& ep,
                                    core::Tensor& out) {
  const core::Conv2dConfig& cfg = conv.config();
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ODENET_CHECK(c == cfg.in_channels,
               conv.name() << ": fixed conv expected " << cfg.in_channels
                           << " channels, got " << c);
  const int ci = c + (cfg.time_channel ? 1 : 0);
  const core::LoweringGeometry g{.channels = ci, .height = h, .width = w,
                                 .kernel = cfg.kernel, .stride = cfg.stride,
                                 .pad = cfg.pad};
  const int co = cfg.out_channels;
  const int kk = static_cast<int>(g.col_rows());

  // Quantized packed weights, cached per snapshot version: a hot-swap
  // re-stamps the conv's weight version and the key mismatch triggers one
  // requantize + repack; version 0 (unversioned weights) rebuilds per
  // call into the same recycled storage.
  QuantizedWeights& entry = cache_entry(conv);
  const std::uint64_t version = conv.weight_version();
  if (!entry.valid || version == 0 || entry.version != version) {
    const core::Tensor& wt = conv.weight().value;
    const int fw = int16_weight_frac_bits(wt, frac_bits_);
    entry.i16_ok = fw > 0;
    if (entry.i16_ok) {
      entry.weight_frac_bits = fw;
      static thread_local std::vector<std::int16_t> wq;
      wq.resize(wt.numel());
      fixed::quantize_i16(wt.data(), wq.data(), wt.numel(), fw);
      core::pack_gemm_a_i16(wq.data(), co, kk, entry.packed16);
    }
    // The float-carrier weights are always built: they back the per-call
    // fallback when a call's activation range leaves no valid shift.
    static thread_local std::vector<float> wv;
    wv.resize(wt.numel());
    for (std::size_t i = 0; i < wt.numel(); ++i) {
      wv[i] = fixed::qdq_value(wt.data()[i], frac_bits_);
    }
    core::pack_gemm_a(wv.data(), co, kk, entry.packed);
    entry.version = version;
    entry.valid = true;
    ++weight_packs_;
  }

  // The time VALUE on the Q grid (the hardware folds t into a bias plane
  // at the same precision).
  const float tq = cfg.time_channel ? fixed::qdq_value(t, frac_bits_) : 0.0f;
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_sample = static_cast<std::size_t>(c) * plane;
  const std::size_t aug_sample = static_cast<std::size_t>(ci) * plane;
  // Dynamic activation scale for this call: the finest Q(fa) grid whose
  // rounded values cannot saturate int16 for the observed range of the
  // (time-augmented) input. The scan is exact and order-independent, so
  // the scale — and everything downstream — is deterministic for any ISA
  // or worker count.
  int fa = -1;
  if (entry.i16_ok) {
    float mx = fixed::max_abs(x.data(), x.numel());
    if (cfg.time_channel) mx = std::max(mx, std::fabs(tq));
    fa = int16_act_frac_bits(mx, entry.weight_frac_bits, frac_bits_);
  }
  if (fa >= 0) {
    // Integer path: quantize the input once into an int16 [n, ci, h, w]
    // image at Q(fa) (time plane included), then one fused GEMM lowers it
    // implicitly, accumulates into int32 and runs the whole epilogue —
    // requantization shift, folded BN, Q-grid rounding, ReLU, residual —
    // in the tile, storing NCHW.
    i16_scratch_.resize(static_cast<std::size_t>(n) * aug_sample);
    std::int16_t* inq = i16_scratch_.data();
    if (cfg.time_channel) {
      std::int16_t tq16 = 0;
      fixed::quantize_i16(&tq, &tq16, 1, fa);
      for (int i = 0; i < n; ++i) {
        std::int16_t* dst = inq + i * aug_sample;
        fixed::quantize_i16(x.data() + i * in_sample, dst, in_sample, fa);
        std::fill_n(dst + in_sample, plane, tq16);
      }
    } else {
      fixed::quantize_i16(x.data(), inq, x.numel(), fa);
    }
    core::GemmI16Epilogue iep = ep;
    iep.round_shift = fa + entry.weight_frac_bits - frac_bits_;
    iep.frac_bits = frac_bits_;
    core::gemm_i16_lowered_ep(entry.packed16, inq, g, n, out.data(), iep);
    return;
  }

  // Float carrier (a conv that fails the int16 envelope, or a call whose
  // range leaves no valid shift): the same driver's float conv over the
  // time-augmented input, one requantization of its output, then the
  // epilogue as passes.
  core::Tensor aug;
  const core::Tensor* in = &x;
  if (cfg.time_channel) {
    aug = core::Tensor({n, ci, h, w});
    for (int i = 0; i < n; ++i) {
      std::memcpy(aug.data() + i * aug_sample, x.data() + i * in_sample,
                  in_sample * sizeof(float));
      std::fill_n(aug.data() + i * aug_sample + in_sample, plane, tq);
    }
    in = &aug;
  }
  core::Tensor y({n, co, g.out_h(), g.out_w()});
  core::gemm_lowered_ep(entry.packed, in->data(), g, n, y.data(),
                        core::GemmEpilogue{});
  fixed::qdq_inplace(y, frac_bits_);
  apply_epilogue(y, ep, out);
}

void FixedStageExecutor::apply_epilogue(core::Tensor& y,
                                        const core::GemmI16Epilogue& ep,
                                        core::Tensor& out) const {
  // The fused tile's chain after its requantization, as the standalone
  // kernels it is bitwise equal to: affine, qdq, ReLU, residual, qdq.
  const core::GemmKernels& kernels = core::active_gemm_kernels();
  const int n = y.dim(0), c = y.dim(1);
  const std::size_t plane = static_cast<std::size_t>(y.dim(2)) * y.dim(3);
  if (ep.scale != nullptr) {
    for (int i = 0; i < n; ++i) {
      for (int ch = 0; ch < c; ++ch) {
        float* p = y.data() + (static_cast<std::size_t>(i) * c + ch) * plane;
        kernels.affine_f32(p, p, plane, ep.scale[ch], ep.shift[ch]);
      }
    }
    fixed::qdq_inplace(y, frac_bits_);
  }
  if (ep.relu) kernels.relu_f32(y.data(), y.data(), y.numel());
  if (ep.residual == nullptr) {
    if (&out != &y) out = std::move(y);
    return;
  }
  // out = qdq(residual + beta * y); residual may alias out.
  if (ep.residual != out.data()) {
    std::memcpy(out.data(), ep.residual, out.numel() * sizeof(float));
  }
  kernels.axpy_f32(ep.beta, y.data(), out.data(), out.numel());
  fixed::qdq_inplace(out, frac_bits_);
}

core::Tensor FixedStageExecutor::conv_output(const core::Conv2d& conv,
                                             const core::Tensor& x) {
  const core::Conv2dConfig& cfg = conv.config();
  const int ho = (x.dim(2) + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
  const int wo = (x.dim(3) + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
  return core::Tensor({x.dim(0), cfg.out_channels, ho, wo});
}

void FixedStageExecutor::conv_bn(core::Conv2d& conv, core::BatchNorm2d& bn,
                                 const core::Tensor& x, float t,
                                 core::GemmI16Epilogue ep, core::Tensor& out) {
  if (!bn.training() && bn.eval_affine_foldable()) {
    bn.fold_eval_affine(bn_scale_, bn_shift_);
    ep.scale = bn_scale_.data();
    ep.shift = bn_shift_.data();
    fixed_conv(conv, x, t, ep, out);
    return;
  }
  // Batch-statistics BN (training mode, or the hardware per-image BN) is
  // a function of the whole conv output, so it cannot ride in a tile: the
  // conv stops at requantization and the BN runs between it and the rest
  // of the epilogue.
  core::Tensor y = conv_output(conv, x);
  fixed_conv(conv, x, t, core::GemmI16Epilogue{}, y);
  y = bn.forward(y);
  fixed::qdq_inplace(y, frac_bits_);
  apply_epilogue(y, ep, out);
}

void FixedStageExecutor::run_block(core::BuildingBlock& block,
                                   const core::Tensor& x, float t,
                                   const float* residual, float beta,
                                   core::Tensor& out) {
  core::Tensor hmap = conv_output(block.conv1(), x);
  core::GemmI16Epilogue ep1;
  ep1.relu = true;
  conv_bn(block.conv1(), block.bn1(), x, t, ep1, hmap);
  core::GemmI16Epilogue ep2;
  ep2.residual = residual;
  ep2.beta = beta;
  if (out.empty()) out = conv_output(block.conv2(), hmap);
  conv_bn(block.conv2(), block.bn2(), hmap, t, ep2, out);
}

core::Tensor FixedStageExecutor::run(Stage& stage, const core::Tensor& x,
                                     core::StageRunStats* stats) {
  ODENET_CHECK(!stage.is_empty(),
               stage.name() << ": fixed executor on removed stage");
  util::Stopwatch watch;
  core::Tensor z = x;
  fixed::qdq_inplace(z, frac_bits_);
  if (stage.is_ode()) {
    // Explicit Euler with the activation quantized after every update —
    // the same step scheme the PL implements (accelerator solve_euler).
    // conv2's epilogue writes z = qdq(z + h * f(z)) in place.
    OdeBlock* ode = stage.ode();
    const int steps = ode->config().executions;
    const float h = (ode->t1() - ode->t0()) / static_cast<float>(steps);
    float t = ode->t0();
    for (int k = 0; k < steps; ++k) {
      run_block(ode->block(), z, t, z.data(), h, z);
      t += h;
    }
  } else {
    for (auto& block : stage.blocks()) {
      const core::BlockConfig& cfg = block->config();
      // Option-A shortcut: the input itself when shapes match.
      core::Tensor sc;
      const bool identity = cfg.stride == 1 && cfg.out_channels == z.dim(1);
      if (!identity) {
        sc = core::BuildingBlock::shortcut(z, cfg.stride, cfg.out_channels);
      }
      core::Tensor out;
      run_block(*block, z, /*t=*/0.0f, identity ? z.data() : sc.data(),
                /*beta=*/1.0f, out);
      z = std::move(out);
    }
  }
  if (stats != nullptr) {
    stats->backend = core::ExecBackend::kFixed;
    stats->on_accelerator = false;
    stats->pl_cycles = 0;
    stats->seconds = watch.seconds();
  }
  return z;
}

}  // namespace odenet::models
