// Pluggable stage-execution backends.
//
// A StageExecutor runs one network stage over a batch; a StagePlan maps
// each stage to the executor that should run it. Network::forward_stages
// is the single dispatch loop — the float software path, the fixed-point
// path and the PS/PL co-simulator (sched/system_sim.hpp) all route through
// it, differing only in the plan they pass.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "core/batchnorm.hpp"
#include "core/execution.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "models/stage.hpp"

namespace odenet::models {

class StageExecutor {
 public:
  virtual ~StageExecutor() = default;

  virtual const std::string& name() const = 0;
  virtual core::ExecBackend backend() const = 0;

  /// Runs one stage over a batch: x [N,C,S,S] -> [N,C',S',S']. The stage
  /// must be non-empty. When `stats` is non-null the executor records what
  /// the run cost (measured or modeled, see each implementation).
  virtual core::Tensor run(Stage& stage, const core::Tensor& x,
                           core::StageRunStats* stats) = 0;

  /// Re-syncs any backend-held copy of the stage's weights (e.g. the
  /// accelerator's BRAM image) after the network's parameters changed.
  /// CPU backends read the live parameters and need no sync.
  virtual void reload_weights(Stage& stage) { (void)stage; }
};

/// Float32 reference backend: delegates to Stage::forward (the training
/// path — forward caches survive for Network::backward). `seconds` is
/// measured wall clock unless a cost model is installed, in which case the
/// modeled latency is reported instead (the co-simulator installs the
/// Cortex-A9 model).
class FloatStageExecutor final : public StageExecutor {
 public:
  using CostModel = std::function<double(const StageSpec&)>;

  explicit FloatStageExecutor(CostModel modeled_seconds = nullptr);

  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFloat;
  }
  core::Tensor run(Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override;

 private:
  std::string name_;
  CostModel modeled_seconds_;
};

/// Q-format fixed-point CPU backend: quantizes the weights AND saturates
/// every stage-internal feature map to Qx.frac_bits. Every conv runs the
/// fused INTEGER datapath — the paper's conv engine and BN engine back to
/// back, like a DSP-block MAC array with a wide accumulator followed by a
/// rounding stage: the conv input quantizes once into an int16 [N,
/// C(+time), H, W] image at a per-call dynamic precision (the finest grid
/// that cannot saturate the observed range), and one core::
/// gemm_i16_lowered_ep call — the tiled GEMM driver with its B panels
/// gathered straight from that image — accumulates into int32 and runs
/// the whole epilogue in the 4x16 tile: one rounding shift (round half
/// away from zero, the Fixed::operator* semantics) onto the Q(frac_bits)
/// grid, the folded BN affine, Q-grid rounding, ReLU after conv1, and
/// after conv2 the Euler update z = qdq(z + h*f) in place or the shortcut
/// add + qdq — stored NCHW. Bitwise identical to running those ops as
/// separate passes. Per-conv weight scales keep the int32 accumulators
/// overflow-free; a conv (or a single call) whose weights or activation
/// range leave no valid requantization shift at the requested frac_bits
/// falls back, transparently and per call, to the float carrier: the
/// same driver's float conv (gemm_lowered_ep) over qdq'd operands, one
/// requantization, then the epilogue as elementwise passes. BN folds into
/// the tile when it normalizes with running statistics; batch-statistics
/// BN (training mode, or the hardware per-image BN mode) depends on the
/// whole conv output and runs as its own pass after the conv's
/// requantization. Quantized packed weights are cached per conv — keyed
/// by Conv2d::uid() + snapshot weight version, LRU-capped — so serving
/// steady-state requantizes + packs each layer once per hot-swap and
/// replica churn cannot leak entries. ODE stages integrate with explicit
/// Euler steps, mirroring the hardware solver, regardless of the stage's
/// configured software solver.
class FixedStageExecutor final : public StageExecutor {
 public:
  explicit FixedStageExecutor(int frac_bits = 20);

  const std::string& name() const override { return name_; }
  core::ExecBackend backend() const override {
    return core::ExecBackend::kFixed;
  }
  core::Tensor run(Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override;

  int frac_bits() const { return frac_bits_; }

  /// Times a conv's weights were quantized + packed (cache observable).
  std::uint64_t weight_packs() const { return weight_packs_; }

  /// Live quantized-weight cache entries (telemetry / churn tests).
  std::size_t weight_cache_size() const { return wcache_.size(); }

  /// Caps the quantized-weight cache; least-recently-used entries are
  /// evicted past the cap, so replica churn (many short-lived Networks
  /// through one executor) cannot grow the cache without bound. Default
  /// 256 entries — far above any single replica's conv count.
  void set_weight_cache_capacity(std::size_t cap) {
    wcache_capacity_ = cap > 0 ? cap : 1;
  }

  /// Most fractional bits a conv call's int16 activations may carry. The
  /// actual per-call precision fa is dynamic: the largest fa <= this cap
  /// with max|x| * 2^fa saturation-free, so ODE stages whose Euler sweeps
  /// grow activations past +-8 keep full int16 range instead of clipping.
  static constexpr int kActFracMax = 15;
  /// Most fractional bits a conv's int16 weights may carry.
  static constexpr int kWeightFracMax = 13;

  /// The int16 precision fw of a conv's [out, in*k*k] weights at output
  /// precision frac_bits: the largest fw <= kWeightFracMax that keeps
  /// every weight and every int32 accumulator overflow-free, or -1 when
  /// none also leaves a valid requantization shift (float carrier).
  static int int16_weight_frac_bits(const core::Tensor& w, int frac_bits);
  /// The per-call activation precision fa for an input whose largest
  /// magnitude is max_abs: the largest fa <= kActFracMax with max_abs *
  /// 2^fa saturation-free, or -1 (float carrier for this call) when the
  /// range is non-finite, exceeds int16 at fa = 1, or leaves fa +
  /// weight_frac_bits < frac_bits.
  static int int16_act_frac_bits(float max_abs, int weight_frac_bits,
                                 int frac_bits);

 private:
  /// One building block in fixed-point arithmetic: conv1 -> requantize ->
  /// BN -> requantize -> ReLU, then conv2 -> requantize -> BN ->
  /// requantize and out = qdq(residual + beta * branch) — each op on
  /// Q-grid activations like the staged PL datapath. An ODE step passes
  /// residual = z, beta = h and out = z (the in-place Euler update); a
  /// plain block passes its shortcut with beta = 1 and an empty `out`,
  /// which is allocated here.
  void run_block(core::BuildingBlock& block, const core::Tensor& x, float t,
                 const float* residual, float beta, core::Tensor& out);
  /// One conv + BN + the rest of `ep` into `out` (pre-shaped): BN folds
  /// into ep when it is a running-statistics affine, else runs between
  /// the conv's requantization and the epilogue passes.
  void conv_bn(core::Conv2d& conv, core::BatchNorm2d& bn,
               const core::Tensor& x, float t, core::GemmI16Epilogue ep,
               core::Tensor& out);
  /// One convolution (int16 datapath, or the float-carrier fallback) with
  /// `ep` applied to its Q(frac_bits) output, into the pre-shaped `out`
  /// (which ep.residual may alias). ep's round_shift/frac_bits are set
  /// here.
  void fixed_conv(core::Conv2d& conv, const core::Tensor& x, float t,
                  const core::GemmI16Epilogue& ep, core::Tensor& out);
  /// ep's chain after requantization (affine + qdq when ep.scale, ReLU,
  /// residual + qdq) as elementwise kernel passes over a Q-grid `y` —
  /// the float-carrier twin of the fused tile. Writes `out` (may be y).
  void apply_epilogue(core::Tensor& y, const core::GemmI16Epilogue& ep,
                      core::Tensor& out) const;
  /// Zero tensor of a conv's output shape for input x.
  static core::Tensor conv_output(const core::Conv2d& conv,
                                  const core::Tensor& x);

  struct QuantizedWeights {
    std::uint64_t version = 0;
    bool valid = false;
    std::uint64_t last_use = 0;     // LRU tick for capacity eviction
    core::PackedGemmA packed;       // Q-grid weights (float carrier)
    // Integer path: per-conv weight scale + pair-interleaved int16 panels.
    bool i16_ok = false;            // envelope satisfied at this frac_bits
    int weight_frac_bits = 0;       // fw: weights are Q(fw) in int16
    core::PackedGemmA16 packed16;
  };

  /// Cache lookup + LRU touch + capacity eviction for one conv.
  QuantizedWeights& cache_entry(const core::Conv2d& conv);

  std::string name_;
  int frac_bits_;
  /// Keyed by Conv2d::uid() — stable, never-recycled layer identity. A
  /// raw-pointer key would alias when a new conv is allocated at a
  /// recycled address with a matching snapshot version (replica churn).
  std::map<std::uint64_t, QuantizedWeights> wcache_;
  std::size_t wcache_capacity_ = 256;
  std::uint64_t use_tick_ = 0;
  std::uint64_t weight_packs_ = 0;
  // Recycled int16 input image of the integer conv path, grown once to
  // the high-water mark, and the current conv's folded BN coefficients.
  std::vector<std::int16_t> i16_scratch_;
  std::vector<float> bn_scale_, bn_shift_;
};

/// Stage -> executor routing with a default fallback. Executors are not
/// owned; they must outlive the plan. A default-constructed plan routes
/// everything to the caller's fallback (Network keeps a built-in float
/// executor for exactly that).
class StagePlan {
 public:
  StagePlan() = default;
  explicit StagePlan(StageExecutor* default_executor)
      : default_(default_executor) {}

  StagePlan& assign(StageId id, StageExecutor* executor) {
    overrides_[id] = executor;
    return *this;
  }

  /// The executor for this stage: the per-stage override, else the plan
  /// default, else nullptr (caller falls back to its own executor).
  StageExecutor* executor_for(StageId id) const {
    auto it = overrides_.find(id);
    if (it != overrides_.end()) return it->second;
    return default_;
  }

  StageExecutor* default_executor() const { return default_; }
  const std::map<StageId, StageExecutor*>& overrides() const {
    return overrides_;
  }

 private:
  StageExecutor* default_ = nullptr;
  std::map<StageId, StageExecutor*> overrides_;
};

/// Per-stage record of one routed forward pass.
struct StageRun {
  StageId id{};
  core::StageRunStats stats;
};

struct NetworkRunStats {
  std::vector<StageRun> stages;

  double stage_seconds() const;
  std::uint64_t pl_cycles() const;
};

}  // namespace odenet::models
