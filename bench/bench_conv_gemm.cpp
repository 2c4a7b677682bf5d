// Batched conv path (the tiled GEMM driver) vs the direct kernel.
//
// The shape under test is the paper's ODEBlock convolution (layer3_2:
// 64 -> 64 channels over 8x8 with the concat-time plane; Table 2), the
// conv the PL accelerates in hardware and the hot path of the software
// fallback. For each micro-batch size the two software algorithms run
// the same work:
//   * direct  — the tap-walking reference kernel (ConvAlgo::kDirect), the
//     denominator of every speedup below.
//   * batched — the whole micro-batch through ONE register-blocked GEMM:
//     forward gathers its B panels straight from the image, backward
//     lowers the batch into one column matrix from a recycled arena
//     (ConvAlgo::kIm2col, the default).
// Forward is timed in eval mode, forward+backward in training mode.
//
// Four A/B sections follow the algorithm grid, all at batch 16:
//   * bwd     — batched vs direct forward+backward in training mode: the
//     median of nine interleaved pairs of >= 20 ms trials (gated in the
//     summary row as batched_bwd_speedup_b16);
//   * simd    — the active micro-kernel ISA vs the scalar fallback
//     (gemm_cap_isa(GemmIsa::kScalar)), isolating the SIMD win;
//   * fused   — conv+BN+ReLU as one GEMM with the epilogue in the output
//     tile vs the three-layer chain: the median of nine interleaved pairs
//     of >= 20 ms trials (gated in the summary row);
//   * threads — the same forward on a 1/2/4/all-worker kernel pool
//     (set_kernel_pool), isolating the panel-split scaling.
//
// Every configuration prints one machine-readable JSON line prefixed
// "JSON "; the summary line reports the batched-vs-direct forward and
// forward+backward speedups at batch 16 — the acceptance numbers for the
// batched path — plus the active ISA and the SIMD speedup (context, not
// gated: the scalar denominator is not present on every runner class).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/activation.hpp"
#include "core/batchnorm.hpp"
#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/init.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

using namespace odenet;
using core::Conv2d;
using core::ConvAlgo;
using core::Tensor;

namespace {

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return t;
}

const char* algo_name(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kIm2col: return "batched";
    case ConvAlgo::kDirect: return "direct";
  }
  return "unknown";
}

struct Row {
  std::string algo;
  int batch = 0;
  int reps = 0;
  double fwd_seconds = 0.0;       // mean per forward call
  double fwd_images_per_sec = 0.0;
  double bwd_seconds = 0.0;       // mean per forward+backward call
  double fwd_speedup = 1.0;       // vs direct at the same batch
  std::uint64_t scratch_floats = 0;
};

/// The ODEBlock conv under test with `weights`, on `algo`. Versioned
/// weights give the serving steady state: the packed-weight cache hits
/// after the warm-up call (training mode never reads it).
std::unique_ptr<Conv2d> make_conv(ConvAlgo algo, const Tensor& weights) {
  const int channels = weights.dim(0);
  auto conv = std::make_unique<Conv2d>(core::Conv2dConfig{
      .in_channels = channels,
      .out_channels = channels,
      .kernel = 3,
      .stride = 1,
      .pad = 1,
      .time_channel = true,
      .algo = algo});
  conv->weight().value = weights;
  conv->set_time(0.5f);
  conv->set_weight_version(1);
  return conv;
}

Row run_algo(ConvAlgo algo, const Tensor& weights, const Tensor& x,
             const Tensor& gout, int reps) {
  const std::unique_ptr<Conv2d> owned = make_conv(algo, weights);
  Conv2d& conv = *owned;

  Row row;
  row.algo = algo_name(algo);
  row.batch = x.dim(0);
  row.reps = reps;

  // Forward, eval mode (the serving path).
  conv.set_training(false);
  (void)conv.forward(x);  // warm-up: first-touch pages, arena sizing
  util::Stopwatch watch;
  for (int r = 0; r < reps; ++r) (void)conv.forward(x);
  row.fwd_seconds = watch.seconds() / reps;
  row.fwd_images_per_sec = x.dim(0) / row.fwd_seconds;

  // Forward + backward, training mode (the trainer's inner loop).
  conv.set_training(true);
  (void)conv.forward(x);
  (void)conv.backward(gout);
  util::Stopwatch bwatch;
  for (int r = 0; r < reps; ++r) {
    (void)conv.forward(x);
    (void)conv.backward(gout);
  }
  row.bwd_seconds = bwatch.seconds() / reps;
  row.scratch_floats = conv.scratch_arena().capacity();
  return row;
}

void print_row(const Row& r) {
  std::printf("%-11s %6d %6d %12.6f %12.1f %12.6f %9.2fx %14llu\n",
              r.algo.c_str(), r.batch, r.reps, r.fwd_seconds,
              r.fwd_images_per_sec, r.bwd_seconds, r.fwd_speedup,
              static_cast<unsigned long long>(r.scratch_floats));
  std::printf("JSON {\"bench\":\"conv_gemm\",\"algo\":\"%s\",\"batch\":%d,"
              "\"reps\":%d,\"fwd_seconds\":%.6f,\"fwd_images_per_sec\":%.2f,"
              "\"bwd_seconds\":%.6f,\"fwd_speedup_vs_direct\":%.4f,"
              "\"scratch_floats\":%llu}\n",
              r.algo.c_str(), r.batch, r.reps, r.fwd_seconds,
              r.fwd_images_per_sec, r.bwd_seconds, r.fwd_speedup,
              static_cast<unsigned long long>(r.scratch_floats));
}

/// Mean seconds per batched eval-mode forward under the CURRENT kernel
/// settings (ISA override / kernel pool installed by the caller).
double time_batched_fwd(const Tensor& weights, const Tensor& x, int reps) {
  const std::unique_ptr<Conv2d> owned = make_conv(ConvAlgo::kIm2col, weights);
  Conv2d& conv = *owned;
  conv.set_training(false);
  (void)conv.forward(x);  // warm-up: pages, arena, packed weights
  util::Stopwatch watch;
  for (int r = 0; r < reps; ++r) (void)conv.forward(x);
  return watch.seconds() / reps;
}

/// The eval-mode conv+BN+ReLU step of the fused A/B, built once so every
/// trial of both arms times the same parameters: fused runs ONE GEMM with
/// the folded BN affine and ReLU applied in the output tile
/// (Conv2d::forward_fused); unfused runs the three-layer chain the serving
/// path used before the epilogue family existed.
class ConvBnReluStep {
 public:
  ConvBnReluStep(const Tensor& weights, util::Rng& rng)
      : conv_({.in_channels = weights.dim(0),
               .out_channels = weights.dim(0),
               .kernel = 3,
               .stride = 1,
               .pad = 1,
               .time_channel = true,
               .algo = ConvAlgo::kIm2col}),
        bn_(weights.dim(0)) {
    conv_.weight().value = weights;
    conv_.set_time(0.5f);
    conv_.set_weight_version(1);
    conv_.set_training(false);
    for (int c = 0; c < weights.dim(0); ++c) {
      bn_.gamma().value.at1(c) = static_cast<float>(rng.uniform(0.5, 1.5));
      bn_.beta().value.at1(c) = static_cast<float>(rng.normal(0.0, 0.3));
      bn_.running_mean().at1(c) = static_cast<float>(rng.normal(0.0, 0.5));
      bn_.running_var().at1(c) = static_cast<float>(rng.uniform(0.5, 2.0));
    }
    bn_.set_training(false);
    relu_.set_training(false);
    bn_.fold_eval_affine(scale_, shift_);
    ep_.scale = scale_.data();
    ep_.shift = shift_.data();
    ep_.relu = true;
  }

  void run(const Tensor& x, bool fused) {
    if (fused) {
      conv_.forward_fused(x, ep_, out_, /*accumulate=*/false);
    } else {
      out_ = relu_.forward(bn_.forward(conv_.forward(x)));
    }
  }

 private:
  Conv2d conv_;
  core::BatchNorm2d bn_;
  core::ReLU relu_;
  std::vector<float> scale_, shift_;
  core::ConvEpilogue ep_;
  Tensor out_;
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_conv_gemm",
                      "Batched GEMM conv vs the direct kernel");
  cli.add_option("channels", "64", "conv width (paper layer3_2: 64)");
  cli.add_option("size", "8", "spatial extent (paper layer3_2: 8)");
  cli.add_option("reps", "0", "timed reps per config (0 = auto)");
  if (!cli.parse(argc, argv)) return 0;

  const int channels = cli.get_int("channels");
  const int size = cli.get_int("size");
  const int reps_opt = cli.get_int("reps");

  util::Rng rng(1);
  Tensor weights =
      random_tensor({channels, channels + 1, 3, 3}, rng);  // concat-time conv
  weights.scale(0.1f);

  std::printf("=== Batched conv path: %dch %dx%d k3 concat-time "
              "(ODEBlock conv) ===\n",
              channels, size, size);
  std::printf("%-11s %6s %6s %12s %12s %12s %9s %14s\n", "algo", "batch",
              "reps", "fwd_sec", "fwd_img/s", "fwd+bwd_sec", "speedup",
              "scratch_floats");

  double speedup_b16 = 0.0;
  for (int batch : {1, 4, 16, 64}) {
    const int reps = reps_opt > 0 ? reps_opt : std::max(4, 96 / batch);
    Tensor x = random_tensor({batch, channels, size, size}, rng);
    Tensor gout = random_tensor({batch, channels, size, size}, rng);
    double direct_fwd = 0.0;
    for (ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kIm2col}) {
      Row row = run_algo(algo, weights, x, gout, reps);
      if (algo == ConvAlgo::kDirect) direct_fwd = row.fwd_seconds;
      row.fwd_speedup = direct_fwd / row.fwd_seconds;
      if (algo == ConvAlgo::kIm2col && batch == 16) {
        speedup_b16 = row.fwd_speedup;
      }
      print_row(row);
    }
  }

  // Nine interleaved trials of >= 20 ms of calls per arm (the arm that
  // goes first alternates), so host drift hits both arms alike; each
  // gated speedup is the median of the nine per-pair ratios, with their
  // quartiles as its spread.
  constexpr int kPairTrials = 9;
  constexpr double kTrialSeconds = 0.02;
  struct PairAb {
    std::vector<double> a_trials, b_trials, ratios;  // ratio = b / a
  };
  auto median = [](const std::vector<double>& v) {
    return util::quantile(v, 0.5);
  };
  auto interleave = [&](auto&& a_call, auto&& b_call) {
    PairAb ab;
    for (int t = 0; t < kPairTrials; ++t) {
      double a = 0.0, b = 0.0;
      if (t % 2 == 0) {
        a = util::seconds_per_call(a_call, kTrialSeconds);
        b = util::seconds_per_call(b_call, kTrialSeconds);
      } else {
        b = util::seconds_per_call(b_call, kTrialSeconds);
        a = util::seconds_per_call(a_call, kTrialSeconds);
      }
      ab.a_trials.push_back(a);
      ab.b_trials.push_back(b);
      ab.ratios.push_back(b / a);
    }
    return ab;
  };

  const int ab_batch = 16;
  const int ab_reps = reps_opt > 0 ? reps_opt : 12;
  Tensor x16 = random_tensor({ab_batch, channels, size, size}, rng);

  // --- backward A/B: batched vs direct forward+backward, batch 16 -------
  const Tensor gout16 = random_tensor({ab_batch, channels, size, size}, rng);
  const std::unique_ptr<Conv2d> batched_conv =
      make_conv(ConvAlgo::kIm2col, weights);
  const std::unique_ptr<Conv2d> direct_conv =
      make_conv(ConvAlgo::kDirect, weights);
  auto train_step = [&](Conv2d& conv) {
    (void)conv.forward(x16);
    (void)conv.backward(gout16);
  };
  for (Conv2d* conv : {batched_conv.get(), direct_conv.get()}) {
    conv->set_training(true);
    train_step(*conv);  // warm-up: arena sizing, first-touch pages
  }
  const PairAb bwd = interleave([&] { train_step(*batched_conv); },
                                [&] { train_step(*direct_conv); });
  const double bwd_speedup_b16 = median(bwd.ratios);
  std::printf("\n--- batched vs direct fwd+bwd A/B (training, batch %d, "
              "median of %d pairs) ---\n",
              ab_batch, kPairTrials);
  std::printf("%-11s %12.6f s\n%-11s %12.6f s  (%.2fx batched, IQR "
              "%.2f-%.2f)\n",
              "batched", median(bwd.a_trials), "direct",
              median(bwd.b_trials), bwd_speedup_b16,
              util::quantile(bwd.ratios, 0.25),
              util::quantile(bwd.ratios, 0.75));
  std::printf("JSON {\"bench\":\"conv_gemm\",\"bwd_ab\":true,\"batch\":%d,"
              "\"trials\":%d,\"trial_seconds\":%.3f,"
              "\"batched_bwd_seconds\":%.6f,\"direct_bwd_seconds\":%.6f,"
              "\"batched_bwd_speedup\":%.4f,"
              "\"speedup_q1\":%.4f,\"speedup_q3\":%.4f}\n",
              ab_batch, kPairTrials, kTrialSeconds, median(bwd.a_trials),
              median(bwd.b_trials), bwd_speedup_b16,
              util::quantile(bwd.ratios, 0.25),
              util::quantile(bwd.ratios, 0.75));

  // --- SIMD A/B: active ISA vs forced-scalar kernels, batch 16 ----------
  const double simd_sec = time_batched_fwd(weights, x16, ab_reps);
  core::gemm_cap_isa(core::GemmIsa::kScalar);
  const double scalar_sec = time_batched_fwd(weights, x16, ab_reps);
  core::gemm_cap_isa(core::GemmIsa::kAvx512);
  const double simd_speedup = scalar_sec / simd_sec;
  std::printf("\n--- SIMD A/B (batched fwd, batch %d) ---\n", ab_batch);
  std::printf("%-11s %12.6f s  %12.1f img/s\n", core::gemm_isa_name(),
              simd_sec, ab_batch / simd_sec);
  std::printf("%-11s %12.6f s  %12.1f img/s  (%.2fx from SIMD)\n", "scalar",
              scalar_sec, ab_batch / scalar_sec, simd_speedup);
  std::printf("JSON {\"bench\":\"conv_gemm\",\"simd_ab\":true,\"batch\":%d,"
              "\"isa\":\"%s\",\"simd_fwd_seconds\":%.6f,"
              "\"scalar_fwd_seconds\":%.6f,\"simd_speedup\":%.4f}\n",
              ab_batch, core::gemm_isa_name(), simd_sec, scalar_sec,
              simd_speedup);

  // --- fused epilogue A/B: conv+BN+ReLU as one GEMM vs the layer chain --
  ConvBnReluStep step(weights, rng);
  step.run(x16, true);  // warm-up: packed weights, arena, output buffers
  step.run(x16, false);
  const PairAb fused = interleave([&] { step.run(x16, true); },
                                  [&] { step.run(x16, false); });
  const std::vector<double>& pair_speedups = fused.ratios;
  const double fused_sec = median(fused.a_trials);
  const double unfused_sec = median(fused.b_trials);
  const double fused_speedup = median(pair_speedups);
  std::printf("\n--- fused conv+BN+ReLU A/B (eval fwd, batch %d, median of "
              "%d pairs) ---\n",
              ab_batch, kPairTrials);
  std::printf("%-11s %12.6f s  %12.1f img/s\n", "fused", fused_sec,
              ab_batch / fused_sec);
  std::printf("%-11s %12.6f s  %12.1f img/s  (%.2fx from fusion, IQR "
              "%.2f-%.2f)\n",
              "unfused", unfused_sec, ab_batch / unfused_sec, fused_speedup,
              util::quantile(pair_speedups, 0.25),
              util::quantile(pair_speedups, 0.75));
  std::printf("JSON {\"bench\":\"conv_gemm\",\"fused_ab\":true,\"batch\":%d,"
              "\"trials\":%d,\"trial_seconds\":%.3f,"
              "\"fused_fwd_seconds\":%.6f,\"unfused_fwd_seconds\":%.6f,"
              "\"fused_conv_bn_relu_speedup\":%.4f,"
              "\"speedup_q1\":%.4f,\"speedup_q3\":%.4f}\n",
              ab_batch, kPairTrials, kTrialSeconds, fused_sec, unfused_sec,
              fused_speedup, util::quantile(pair_speedups, 0.25),
              util::quantile(pair_speedups, 0.75));

  // --- thread scaling: 1/2/4/all workers on the kernel pool -------------
  std::printf("\n--- thread scaling (batched fwd, batch %d) ---\n", ab_batch);
  double t1_sec = 0.0;
  for (std::size_t workers : {1u, 2u, 4u, 0u}) {
    util::ThreadPool pool(workers);
    core::set_kernel_pool(&pool);
    const double sec = time_batched_fwd(weights, x16, ab_reps);
    core::set_kernel_pool(nullptr);
    if (workers == 1) t1_sec = sec;
    const double scaling = t1_sec > 0.0 ? t1_sec / sec : 1.0;
    std::printf("%2zu workers  %12.6f s  %12.1f img/s  %6.2fx vs 1\n",
                pool.worker_count(), sec, ab_batch / sec, scaling);
    std::printf("JSON {\"bench\":\"conv_gemm\",\"thread_scaling\":true,"
                "\"batch\":%d,\"workers\":%zu,\"fwd_seconds\":%.6f,"
                "\"fwd_images_per_sec\":%.2f,\"speedup_vs_1\":%.4f}\n",
                ab_batch, pool.worker_count(), sec, ab_batch / sec, scaling);
  }

  std::printf("JSON {\"bench\":\"conv_gemm\",\"summary\":true,"
              "\"channels\":%d,\"size\":%d,\"isa\":\"%s\","
              "\"batched_fwd_speedup_b16\":%.4f,"
              "\"batched_bwd_speedup_b16\":%.4f,"
              "\"simd_speedup_b16\":%.4f,"
              "\"fused_conv_bn_relu_speedup\":%.4f,"
              "\"meets_1p5x\":%s}\n",
              channels, size, core::gemm_isa_name(), speedup_b16,
              bwd_speedup_b16, simd_speedup, fused_speedup,
              speedup_b16 >= 1.5 ? "true" : "false");
  return 0;
}
