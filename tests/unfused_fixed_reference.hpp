// The fixed backend's unfused reference datapath, shared by the executor
// and engine suites: every op of FixedStageExecutor's fused int16 stage
// (and of its float-carrier fallback) run as a separate pass built from
// the standalone primitives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/im2col.hpp"
#include "fixed/fixed_tensor.hpp"
#include "models/executor.hpp"
#include "models/network.hpp"

namespace odenet::testing {

/// The fixed backend's unfused datapath, rebuilt from the standalone
/// primitives: every conv quantizes its time-augmented input with
/// quantize_i16, lowers it with im2col_batched_i16, multiplies with
/// gemm_i16_tiled_pa, requantizes with requantize_i32 and permutes to
/// NCHW (or, when no valid shift exists — or always, with float_only —
/// runs the float carrier: Q-grid weights, im2col_batched, gemm_tiled,
/// permute and one qdq); then
/// BN, qdq, ReLU, the second conv, BN, qdq and the Euler axpy or shortcut
/// add with a final qdq each run as their own pass. It picks scales with
/// the executor's published rules, so FixedStageExecutor must match it
/// bitwise. Records which path every conv call took, per stage.
class UnfusedFixedReference final : public models::StageExecutor {
 public:
  explicit UnfusedFixedReference(int frac_bits, bool float_only = false)
      : frac_(frac_bits), float_only_(float_only) {}

  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFixed;
  }

  core::Tensor run(models::Stage& stage, const core::Tensor& x,
                   core::StageRunStats* /*stats*/) override {
    stage_ = stage.spec().id;
    core::Tensor z = fixed::dequantize(fixed::quantize(x, frac_));
    if (stage.is_ode()) {
      models::OdeBlock* ode = stage.ode();
      const int steps = ode->config().executions;
      const float h = (ode->t1() - ode->t0()) / static_cast<float>(steps);
      float t = ode->t0();
      for (int k = 0; k < steps; ++k) {
        core::Tensor f = block(ode->block(), z, t, /*branch_only=*/true);
        z.axpy(h, f);
        fixed::qdq_inplace(z, frac_);
        t += h;
      }
    } else {
      for (auto& b : stage.blocks()) z = block(*b, z, 0.0f, false);
    }
    return z;
  }

  /// (stage, took the int16 path) for every conv call so far.
  std::vector<std::pair<models::StageId, bool>> calls;

 private:
  core::Tensor conv(core::Conv2d& conv, const core::Tensor& x, float t) {
    const core::Conv2dConfig& cfg = conv.config();
    const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const int ci = c + (cfg.time_channel ? 1 : 0);
    const core::LoweringGeometry g{.channels = ci, .height = h, .width = w,
                                   .kernel = cfg.kernel,
                                   .stride = cfg.stride, .pad = cfg.pad};
    core::Tensor in = x;
    if (cfg.time_channel) {
      const float tq = fixed::qdq_value(t, frac_);
      in = core::Tensor({n, ci, h, w});
      const std::size_t plane = static_cast<std::size_t>(h) * w;
      for (int i = 0; i < n; ++i) {
        std::copy_n(x.data() + i * c * plane, c * plane,
                    in.data() + i * ci * plane);
        std::fill_n(in.data() + (i * ci + c) * plane, plane, tq);
      }
    }
    const core::Tensor& wt = conv.weight().value;
    const int co = cfg.out_channels;
    const int kk = static_cast<int>(g.col_rows());
    const std::size_t cc = g.col_cols();
    const std::size_t ncols = cc * n;
    core::Tensor out({n, co, g.out_h(), g.out_w()});
    std::vector<float> cm(static_cast<std::size_t>(co) * ncols);
    const int fw = float_only_ ? -1
                   : models::FixedStageExecutor::int16_weight_frac_bits(
                         wt, frac_);
    const int fa =
        fw > 0 ? models::FixedStageExecutor::int16_act_frac_bits(
                     fixed::max_abs(in.data(), in.numel()), fw, frac_)
               : -1;
    calls.emplace_back(stage_, fa >= 0);
    if (fa >= 0) {
      std::vector<std::int16_t> wq(wt.numel()), inq(in.numel());
      fixed::quantize_i16(wt.data(), wq.data(), wq.size(), fw);
      core::PackedGemmA16 pa;
      core::pack_gemm_a_i16(wq.data(), co, kk, pa);
      fixed::quantize_i16(in.data(), inq.data(), inq.size(), fa);
      std::vector<std::int16_t> cols(static_cast<std::size_t>(kk) * ncols);
      core::im2col_batched_i16(inq.data(), g, n, cols.data());
      std::vector<std::int32_t> acc(cm.size());
      core::gemm_i16_tiled_pa(pa, cols.data(), acc.data(),
                              static_cast<int>(ncols), false);
      fixed::requantize_i32(acc.data(), cm.data(), acc.size(),
                            fa + fw - frac_, frac_);
      core::permute_channel_major(cm.data(), out.data(), n, co, cc, true);
      return out;
    }
    std::vector<float> wv(wt.numel());
    for (std::size_t i = 0; i < wv.size(); ++i) {
      wv[i] = fixed::qdq_value(wt.data()[i], frac_);
    }
    std::vector<float> cols(static_cast<std::size_t>(kk) * ncols);
    core::im2col_batched(in.data(), g, n, cols.data());
    core::gemm_tiled(wv.data(), cols.data(), cm.data(), co, kk,
                     static_cast<int>(ncols), false);
    core::permute_channel_major(cm.data(), out.data(), n, co, cc, true);
    fixed::qdq_inplace(out, frac_);
    return out;
  }

  core::Tensor block(core::BuildingBlock& b, const core::Tensor& x, float t,
                     bool branch_only) {
    core::Tensor hmap = conv(b.conv1(), x, t);
    hmap = b.bn1().forward(hmap);
    fixed::qdq_inplace(hmap, frac_);
    for (std::size_t i = 0; i < hmap.numel(); ++i) {
      if (hmap.data()[i] < 0.0f) hmap.data()[i] = 0.0f;
    }
    hmap = conv(b.conv2(), hmap, t);
    hmap = b.bn2().forward(hmap);
    fixed::qdq_inplace(hmap, frac_);
    if (!branch_only) {
      hmap.add(core::BuildingBlock::shortcut(x, b.config().stride,
                                             b.config().out_channels));
      fixed::qdq_inplace(hmap, frac_);
    }
    return hmap;
  }

  std::string name_ = "unfused_fixed_reference";
  int frac_;
  bool float_only_;
  models::StageId stage_{};
};

}  // namespace odenet::testing
