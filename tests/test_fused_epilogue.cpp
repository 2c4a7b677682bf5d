// Fused inference epilogues (core/gemm_kernels.hpp tile4x16_ep + the
// elementwise kernel family, core/im2col.hpp gemm_lowered_ep,
// Conv2d::forward_fused, BuildingBlock's fused branch/Euler paths and the
// allocation-free fixed-step solver loop):
//  * the epilogue GEMM against the unfused GEMM + a scalar reference
//    epilogue chain — BITWISE per ISA, across full-tile and ragged
//    geometries x epilogue combinations, including residual aliasing C;
//  * the implicit lowering against the explicit im2col_batched ->
//    GEMM -> permute composition, bitwise, for any geometry;
//  * the standalone elementwise kernels against references and BITWISE
//    scalar-vs-AVX2 (including -0.0 and NaN for relu);
//  * gemm_lowered_ep on the AVX-512 16-row tiles memcmp-equal to AVX2
//    across m, geometries, epilogues and worker counts;
//  * thread-count invariance of the epilogue GEMM (bitwise at 1/2/8), and
//    of the composition and lowering checks (bitwise at 1/2/4);
//  * Conv2d::forward_fused == forward + affine + relu (+ accumulate),
//    at n == 1 and with output tiles straddling samples;
//  * BuildingBlock fused branch/forward/Euler vs the unfused chain;
//  * training mode is untouched (fused path gated off, outputs bitwise);
//  * the restructured fixed-step solver == the exported step functions,
//    with and without caller scratch;
//  * no arena growth after warmup for the fused OdeBlock forward;
//  * shortcut/shortcut_backward vs the per-element reference walk.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/block.hpp"
#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "isa_tiers.hpp"
#include "models/odeblock.hpp"
#include "solver/ode.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace om = odenet::models;
namespace os = odenet::solver;
namespace ou = odenet::util;
using odenet::testing::IsaCap;

namespace {

std::vector<float> random_vec(std::size_t n, ou::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

/// Gives a BN non-trivial eval statistics so the folded affine is not a
/// near-identity (running stats default to mean 0 / var 1 after init).
void randomize_bn(BatchNorm2d& bn, ou::Rng& rng) {
  const std::size_t c = bn.running_mean().numel();
  for (std::size_t i = 0; i < c; ++i) {
    bn.gamma().value.data()[i] = static_cast<float>(rng.uniform(0.5, 1.5));
    bn.beta().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.3));
    bn.running_mean().data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
    bn.running_var().data()[i] = static_cast<float>(rng.uniform(0.5, 2.0));
  }
}

/// The reference epilogue chain, in exactly the kernel's op order:
/// t = c; t *= scale[row]; t += shift[row]; relu; t += beta * r.
void apply_epilogue_ref(std::vector<float>& c, int m, int n,
                        const float* scale, const float* shift, bool relu,
                        const float* residual, float beta) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float t = c[static_cast<std::size_t>(i) * n + j];
      if (scale != nullptr) t = t * scale[i];
      if (shift != nullptr) t = t + shift[i];
      if (relu) t = t > 0.0f ? t : 0.0f;
      if (residual != nullptr) {
        t = t + beta * residual[static_cast<std::size_t>(i) * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = t;
    }
  }
}

double max_abs_diff(const float* a, const float* b, std::size_t n) {
  double diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return diff;
}

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Full tiles, ragged rows (m % 4), ragged cols (n % 16), panel edges.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},    {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {13, 7, 37},   {17, 27, 100}, {16, 32, 256}, {7, 33, 257},
    {20, 36, 255}, {64, 36, 130},
};

struct EpCombo {
  bool affine, relu, residual;
  const char* str;
};
const EpCombo kCombos[] = {
    {true, false, false, "affine"},
    {false, true, false, "relu"},
    {true, true, false, "affine+relu"},
    {false, false, true, "residual"},
    {true, true, true, "affine+relu+residual"},
};

/// The epilogue GEMM on a plain row-major B[k, n]: gemm_lowered_ep over
/// the identity lowering (1x1 kernel, stride 1, no pad) of a one-sample
/// [k, 1, n] image, whose column matrix IS B and whose NCHW output IS the
/// row-major C[m, n].
void gemm_ep(const PackedGemmA& pa, const float* b, float* c, int n,
             const GemmEpilogue& ep) {
  const LoweringGeometry g{.channels = pa.k, .height = 1, .width = n,
                           .kernel = 1, .stride = 1, .pad = 0};
  gemm_lowered_ep(pa, b, g, 1, c, ep);
}

/// RAII kernel-pool + parallel-threshold override.
struct PoolOverride {
  explicit PoolOverride(ou::ThreadPool* pool, std::size_t min_flops) {
    set_kernel_pool(pool);
    gemm_set_parallel_min_flops(min_flops);
  }
  ~PoolOverride() {
    set_kernel_pool(nullptr);
    gemm_set_parallel_min_flops(0);
  }
};

/// RAII fused-epilogue toggle (restores the enabled default).
struct FusedOverride {
  explicit FusedOverride(bool on) { set_fused_epilogues(on); }
  ~FusedOverride() { set_fused_epilogues(true); }
};

/// Returns every fused output, concatenated, for the worker-count check.
std::vector<float> run_ep_vs_composition(const Shape& s, ou::Rng& rng) {
  const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
  const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
  const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
  const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
  const auto resid = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
  const float beta = 0.37f;
  const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

  PackedGemmA pa;
  pack_gemm_a(a.data(), s.m, s.k, pa);
  std::vector<float> plain(cn);
  gemm_tiled(a.data(), b.data(), plain.data(), s.m, s.k, s.n, false);

  std::vector<float> all;
  for (const EpCombo& combo : kCombos) {
    SCOPED_TRACE(s.str() + " ep=" + combo.str);
    GemmEpilogue ep;
    if (combo.affine) {
      ep.scale = scale.data();
      ep.shift = shift.data();
    }
    ep.relu = combo.relu;
    if (combo.residual) {
      ep.residual = resid.data();
      ep.beta = beta;
    }
    std::vector<float> got(cn, -7.0f);
    gemm_ep(pa, b.data(), got.data(), s.n, ep);

    // The unfused composition: the plain GEMM plus a scalar epilogue
    // chain. All epilogue ops are single-rounded IEEE mul/add/max, so the
    // fused result must be BITWISE equal, whichever ISA is active.
    std::vector<float> want = plain;
    apply_epilogue_ref(want, s.m, s.n, ep.scale, ep.shift, ep.relu,
                       ep.residual, ep.beta);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), cn * sizeof(float)));
    all.insert(all.end(), got.begin(), got.end());
  }
  return all;
}

/// The implicit lowering against the explicit composition: the same
/// epilogue GEMM over the im2col_batched matrix, permuted to NCHW. The
/// gather must produce exactly the values im2col materializes, and every
/// output element runs the same kernel lane wherever its tile sits, so
/// the outputs are bitwise equal on either ISA. Returns the implicit
/// outputs, concatenated, for the worker-count check.
std::vector<float> run_implicit_vs_explicit(ou::Rng& rng) {
  struct Geo {
    int c, h, w, m, kernel, stride, pad;
  };
  // Tile-aligned "same" planes; planes that are not a multiple of 16
  // (tiles straddle samples); ragged m; stride 2; a "valid" conv whose
  // output shrinks; a 5x5 kernel.
  const Geo geos[] = {{3, 4, 4, 4, 3, 1, 1},  {5, 8, 8, 8, 3, 1, 1},
                      {2, 2, 8, 12, 3, 1, 1}, {4, 16, 16, 8, 3, 1, 1},
                      {7, 8, 2, 4, 3, 1, 1},  {3, 8, 8, 4, 5, 1, 2},
                      {3, 6, 6, 4, 3, 1, 1},  {3, 8, 8, 6, 3, 1, 1},
                      {3, 8, 8, 4, 3, 2, 1},  {3, 7, 9, 5, 3, 2, 1},
                      {3, 8, 8, 4, 3, 1, 0},  {2, 5, 3, 7, 1, 1, 0}};
  const int batch = 3;
  std::vector<float> all;
  for (const Geo& geo : geos) {
    SCOPED_TRACE(testing::Message() << "c=" << geo.c << " h=" << geo.h
                                    << " w=" << geo.w << " m=" << geo.m
                                    << " k=" << geo.kernel
                                    << " s=" << geo.stride
                                    << " p=" << geo.pad);
    const LoweringGeometry g{.channels = geo.c, .height = geo.h,
                             .width = geo.w, .kernel = geo.kernel,
                             .stride = geo.stride, .pad = geo.pad};
    const std::size_t kk = g.col_rows();
    const std::size_t cc = g.col_cols();
    const std::size_t n = cc * batch;
    const auto src = random_vec(
        static_cast<std::size_t>(batch) * geo.c * geo.h * geo.w, rng);
    const auto wvec = random_vec(static_cast<std::size_t>(geo.m) * kk, rng);
    const auto scale = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(geo.m), rng);
    const auto resid = random_vec(static_cast<std::size_t>(geo.m) * n, rng);
    PackedGemmA pa;
    pack_gemm_a(wvec.data(), geo.m, static_cast<int>(kk), pa);
    std::vector<float> cols(kk * n);
    im2col_batched(src.data(), g, batch, cols.data());
    const std::size_t cn = static_cast<std::size_t>(geo.m) * n;
    // The residual in both layouts (channel-major for the explicit GEMM).
    std::vector<float> resid_cm(cn);
    permute_channel_major(resid.data(), resid_cm.data(), batch, geo.m, cc,
                          /*to_nchw=*/false);
    for (bool with_residual : {false, true}) {
      GemmEpilogue ep;
      ep.scale = scale.data();
      ep.shift = shift.data();
      ep.relu = true;
      ep.beta = 0.25f;
      auto check = [&] {
        std::vector<float> cm(cn, -1.0f), explicit_c(cn, -1.0f),
            implicit_c(cn, -2.0f);
        ep.residual = with_residual ? resid_cm.data() : nullptr;
        gemm_ep(pa, cols.data(), cm.data(), static_cast<int>(n), ep);
        permute_channel_major(cm.data(), explicit_c.data(), batch, geo.m, cc,
                              /*to_nchw=*/true);
        ep.residual = with_residual ? resid.data() : nullptr;
        gemm_lowered_ep(pa, src.data(), g, batch, implicit_c.data(), ep);
        EXPECT_EQ(0, std::memcmp(explicit_c.data(), implicit_c.data(),
                                 cn * sizeof(float)))
            << (with_residual ? "with residual" : "no residual");
        return implicit_c;
      };
      const std::vector<float> got = check();
      all.insert(all.end(), got.begin(), got.end());
      IsaCap cap(GemmIsa::kScalar);
      check();
    }
  }
  return all;
}

}  // namespace

TEST(FusedEpilogue, DispatchTableHasNewKernels) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16_ep, nullptr);
  ASSERT_NE(k.relu_f32, nullptr);
  ASSERT_NE(k.axpy_f32, nullptr);
  ASSERT_NE(k.mul_f32, nullptr);
  ASSERT_NE(k.scale_f32, nullptr);
  ASSERT_NE(k.affine_f32, nullptr);
}

TEST(FusedEpilogue, GemmEpMatchesUnfusedCompositionBitwise) {
  ou::Rng rng(21);
  for (const Shape& s : kShapes) run_ep_vs_composition(s, rng);
}

TEST(FusedEpilogue, GemmEpScalarMatchesUnfusedCompositionBitwise) {
  IsaCap cap(GemmIsa::kScalar);
  ou::Rng rng(22);
  for (const Shape& s : kShapes) run_ep_vs_composition(s, rng);
}

TEST(FusedEpilogue, GemmEpIsaParityWithinTolerance) {
  if (!gemm_isa_usable(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(23);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;

    PackedGemmA pa;
    pack_gemm_a(a.data(), s.m, s.k, pa);
    std::vector<float> vec(cn), sca(cn);
    gemm_ep(pa, b.data(), vec.data(), s.n, ep);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_ep(pa, b.data(), sca.data(), s.n, ep);
    }
    // The k loop uses FMA on AVX2, so parity is tolerance-based (the
    // epilogue itself is contraction-free and adds no extra drift).
    const double tol = 1e-5 * std::sqrt(static_cast<double>(s.k)) + 1e-6;
    EXPECT_LE(max_abs_diff(vec.data(), sca.data(), cn), tol);
  }
}

TEST(FusedEpilogue, GemmEpResidualMayAliasC) {
  // The in-place Euler update z += h * f(z): the residual pointer IS the
  // output buffer. Every tile reads its own residual window before its
  // stores, so the aliased run must match the copy-based run bitwise.
  ou::Rng rng(24);
  for (const Shape& s : {Shape{8, 9, 32}, Shape{13, 7, 37}, Shape{5, 16, 17}}) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto state = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    const std::size_t cn = state.size();

    PackedGemmA pa;
    pack_gemm_a(a.data(), s.m, s.k, pa);
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.beta = 0.125f;

    std::vector<float> separate(cn);
    ep.residual = state.data();
    gemm_ep(pa, b.data(), separate.data(), s.n, ep);

    std::vector<float> inplace = state;
    ep.residual = inplace.data();
    gemm_ep(pa, b.data(), inplace.data(), s.n, ep);
    EXPECT_EQ(0,
              std::memcmp(inplace.data(), separate.data(), cn * sizeof(float)));
  }
}

TEST(FusedEpilogue, ImplicitLoweringMatchesExplicitBitwise) {
  ou::Rng rng(31);
  run_implicit_vs_explicit(rng);
}

TEST(FusedEpilogue, CompositionAndLoweringAreBitwiseAcrossWorkerCounts) {
  // The composition and implicit-vs-explicit checks again with every GEMM
  // forced onto the split path (min flops 1) on explicit 2- and 4-worker
  // pools: each must still pass and reproduce the 1-worker outputs
  // bitwise.
  std::vector<float> base;
  for (std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ou::ThreadPool pool(workers);
    PoolOverride ov(&pool, 1);
    ou::Rng rng(32);
    std::vector<float> got;
    for (const Shape& s : kShapes) {
      const std::vector<float> part = run_ep_vs_composition(s, rng);
      got.insert(got.end(), part.begin(), part.end());
    }
    const std::vector<float> lowered = run_implicit_vs_explicit(rng);
    got.insert(got.end(), lowered.begin(), lowered.end());
    if (workers == 1) {
      base = got;
      continue;
    }
    ASSERT_EQ(got.size(), base.size());
    EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                             got.size() * sizeof(float)));
  }
}

TEST(FusedEpilogue, GemmEpThreadCountInvarianceIsBitwise) {
  ou::Rng rng(25);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const auto b = random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const auto scale = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto shift = random_vec(static_cast<std::size_t>(s.m), rng);
    const auto resid = random_vec(static_cast<std::size_t>(s.m) * s.n, rng);
    const std::size_t cn = resid.size();
    GemmEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    ep.residual = resid.data();
    ep.beta = 0.5f;

    std::vector<float> base(cn);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      gemm_ep(pa, b.data(), base.data(), s.n, ep);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      PackedGemmA pa;
      pack_gemm_a(a.data(), s.m, s.k, pa);
      std::vector<float> got(cn, -3.0f);
      gemm_ep(pa, b.data(), got.data(), s.n, ep);
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(), cn * sizeof(float)))
          << "differs at " << workers << " workers";
    }
  }
}

TEST(FusedEpilogue, Avx512LoweredConvMatchesAvx2Bitwise) {
  // gemm_lowered_ep with m covering whole 16-row groups, a lone 4-row
  // remainder and ragged rows; 64-px planes (windows inside one sample),
  // 36-px planes (windows straddling samples), stride 2, and the identity
  // lowering with ragged n; identity, affine + ReLU, and affine + ReLU +
  // the in-place residual (aliasing the output); 1, 2 and 4 workers.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  struct Geo {
    int batch, c, h, w, kernel, stride, pad;
  };
  const Geo geos[] = {{3, 4, 8, 8, 3, 1, 1},   {3, 3, 6, 6, 3, 1, 1},
                      {2, 3, 12, 12, 3, 2, 1}, {1, 9, 1, 17, 1, 1, 0},
                      {1, 5, 1, 257, 1, 1, 0}};
  ou::Rng rng(34);
  for (int m : {4, 8, 12, 16, 20, 64, 100}) {
    for (const Geo& geo : geos) {
      const LoweringGeometry g{.channels = geo.c, .height = geo.h,
                               .width = geo.w, .kernel = geo.kernel,
                               .stride = geo.stride, .pad = geo.pad};
      SCOPED_TRACE(testing::Message() << "m=" << m << " c=" << geo.c << " "
                                      << geo.h << "x" << geo.w
                                      << " s=" << geo.stride);
      const auto src = random_vec(
          static_cast<std::size_t>(geo.batch) * geo.c * geo.h * geo.w, rng);
      const auto wvec = random_vec(m * g.col_rows(), rng);
      const auto scale = random_vec(static_cast<std::size_t>(m), rng);
      const auto shift = random_vec(static_cast<std::size_t>(m), rng);
      const auto resid = random_vec(
          static_cast<std::size_t>(m) * g.col_cols() * geo.batch, rng);
      PackedGemmA pa;
      pack_gemm_a(wvec.data(), m, static_cast<int>(g.col_rows()), pa);
      for (int mode = 0; mode < 3; ++mode) {
        for (std::size_t workers : {1u, 2u, 4u}) {
          ou::ThreadPool pool(workers);
          PoolOverride ov(&pool, 1);
          odenet::testing::expect_avx512_matches_avx2(
              [&] {
                std::vector<float> out(resid.size(), -7.0f);
                GemmEpilogue ep;
                if (mode > 0) {
                  ep.scale = scale.data();
                  ep.shift = shift.data();
                  ep.relu = true;
                }
                if (mode == 2) {
                  out = resid;
                  ep.residual = out.data();
                  ep.beta = 0.37f;
                }
                gemm_lowered_ep(pa, src.data(), g, geo.batch, out.data(), ep);
                return out;
              },
              "mode=" + std::to_string(mode) +
                  " workers=" + std::to_string(workers));
        }
      }
    }
  }
}

TEST(FusedEpilogue, ElementwiseKernelsMatchReference) {
  ou::Rng rng(26);
  const GemmKernels& k = active_gemm_kernels();
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, std::size_t{64}, std::size_t{1037}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);

    std::vector<float> got(n);
    k.relu_f32(x.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], x[i] > 0.0f ? x[i] : 0.0f);
    }
    // In-place form (src == dst is allowed).
    std::vector<float> inpl = x;
    k.relu_f32(inpl.data(), inpl.data(), n);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));

    std::vector<float> y = y0;
    k.axpy_f32(0.75f, x.data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(y[i], y0[i] + 0.75f * x[i]);
    }

    k.mul_f32(x.data(), y0.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], x[i] * y0[i]);
    inpl = x;  // dst aliasing the first operand (Tensor::mul's form)
    k.mul_f32(inpl.data(), y0.data(), inpl.data(), n);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));

    inpl = x;
    k.scale_f32(inpl.data(), n, -1.5f);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(inpl[i], x[i] * -1.5f);

    k.affine_f32(x.data(), got.data(), n, 1.25f, -0.5f);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], x[i] * 1.25f + -0.5f);
    }
    inpl = x;
    k.affine_f32(inpl.data(), inpl.data(), n, 1.25f, -0.5f);
    EXPECT_EQ(0, std::memcmp(inpl.data(), got.data(), n * sizeof(float)));
  }
}

TEST(FusedEpilogue, ReluKernelSpecialValues) {
  // NaN clamps to 0 and -0.0 comes out as +0.0 — the scalar rule
  // `t > 0 ? t : 0` — in both ISA variants.
  const GemmKernels& k = active_gemm_kernels();
  std::vector<float> x = {std::numeric_limits<float>::quiet_NaN(), -0.0f,
                          0.0f,  -1.0f, 2.0f,
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 3.0f,
                          -4.0f};
  std::vector<float> got(x.size());
  k.relu_f32(x.data(), got.data(), x.size());
  EXPECT_EQ(got[0], 0.0f);
  EXPECT_EQ(std::signbit(got[1]), false);  // -0.0 -> +0.0
  EXPECT_EQ(got[2], 0.0f);
  EXPECT_EQ(got[3], 0.0f);
  EXPECT_EQ(got[4], 2.0f);
  EXPECT_EQ(got[5], std::numeric_limits<float>::infinity());
  EXPECT_EQ(got[6], 0.0f);

  IsaCap cap(GemmIsa::kScalar);
  std::vector<float> sca(x.size());
  active_gemm_kernels().relu_f32(x.data(), sca.data(), x.size());
  EXPECT_EQ(0, std::memcmp(sca.data(), got.data(), x.size() * sizeof(float)));
}

TEST(FusedEpilogue, ElementwiseIsaParityIsBitwise) {
  if (!gemm_isa_usable(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(27);
  for (std::size_t n : {std::size_t{1}, std::size_t{8}, std::size_t{9},
                        std::size_t{31}, std::size_t{1000}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto x = random_vec(n, rng);
    const auto y0 = random_vec(n, rng);
    std::vector<float> vec(n), sca(n);

    active_gemm_kernels().relu_f32(x.data(), vec.data(), n);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().relu_f32(x.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    vec = y0;
    active_gemm_kernels().axpy_f32(-0.3f, x.data(), vec.data(), n);
    sca = y0;
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().axpy_f32(-0.3f, x.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    active_gemm_kernels().mul_f32(x.data(), y0.data(), vec.data(), n);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().mul_f32(x.data(), y0.data(), sca.data(), n);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    vec = x;
    active_gemm_kernels().scale_f32(vec.data(), n, 0.7f);
    sca = x;
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().scale_f32(sca.data(), n, 0.7f);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));

    active_gemm_kernels().affine_f32(x.data(), vec.data(), n, 1.1f, 0.2f);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().affine_f32(x.data(), sca.data(), n, 1.1f, 0.2f);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(), n * sizeof(float)));
  }
}

TEST(FusedEpilogue, ConvForwardFusedMatchesUnfusedChain) {
  ou::Rng rng(28);
  struct Geo {
    int n, ci, co, hw;
    bool time_channel;
  };
  // n == 1 and n > 1; the 36-, 49-, 25- and 81-pixel planes put output
  // tiles across sample boundaries (the local-tile edge rule).
  const Geo geos[] = {
      {1, 3, 5, 6, false}, {1, 4, 4, 7, true},  {3, 3, 5, 6, false},
      {2, 4, 4, 5, true},  {4, 8, 8, 8, true},  {2, 2, 7, 9, false},
  };
  for (const Geo& g : geos) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " ci=" + std::to_string(g.ci) +
                 " co=" + std::to_string(g.co) + " hw=" + std::to_string(g.hw) +
                 " tc=" + std::to_string(g.time_channel));
    Conv2d conv({.in_channels = g.ci,
                 .out_channels = g.co,
                 .time_channel = g.time_channel});
    init_conv(conv, rng);
    conv.set_training(false);
    conv.set_time(0.625f);
    const auto scale = random_vec(static_cast<std::size_t>(g.co), rng);
    const auto shift = random_vec(static_cast<std::size_t>(g.co), rng);
    Tensor x = random_tensor({g.n, g.ci, g.hw, g.hw}, rng);

    Tensor plain = conv.forward(x);
    ConvEpilogue ep;
    ep.scale = scale.data();
    ep.shift = shift.data();
    ep.relu = true;
    Tensor fused;
    conv.forward_fused(x, ep, fused, /*accumulate=*/false);
    ASSERT_TRUE(fused.same_shape(plain));

    // Scalar composition of the same chain; fused must be bitwise equal.
    const std::size_t plane =
        static_cast<std::size_t>(plain.dim(2)) * plain.dim(3);
    Tensor want = plain;
    for (int ni = 0; ni < g.n; ++ni) {
      for (int c = 0; c < g.co; ++c) {
        float* p = want.data() +
                   (static_cast<std::size_t>(ni) * g.co + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          float t = p[i] * scale[c] + shift[c];
          p[i] = t > 0.0f ? t : 0.0f;
        }
      }
    }
    EXPECT_EQ(0, std::memcmp(fused.data(), want.data(),
                             fused.numel() * sizeof(float)))
        << "overwrite mode";

    // accumulate = true: out += ep(conv(x)).
    Tensor acc = random_tensor(plain.shape(), rng);
    Tensor expect_acc = acc;
    for (std::size_t i = 0; i < acc.numel(); ++i) {
      expect_acc.data()[i] = expect_acc.data()[i] + want.data()[i];
    }
    conv.forward_fused(x, ep, acc, /*accumulate=*/true);
    EXPECT_EQ(0, std::memcmp(acc.data(), expect_acc.data(),
                             acc.numel() * sizeof(float)))
        << "accumulate mode";
  }
}

TEST(FusedEpilogue, BlockFusedBranchMatchesUnfusedBitwise) {
  // At alpha = 1 the fused branch applies exactly the same float ops as
  // conv -> BN(folded affine) -> ReLU -> conv -> BN, so enabling fusion
  // must not change a single bit of the branch output.
  ou::Rng rng(29);
  for (int ch : {3, 8}) {
    for (int n : {1, 2}) {
      SCOPED_TRACE("ch=" + std::to_string(ch) + " n=" + std::to_string(n));
      BuildingBlock block({.in_channels = ch,
                           .out_channels = ch,
                           .stride = 1,
                           .time_channel = true});
      init_block(block, rng);
      randomize_bn(block.bn1(), rng);
      randomize_bn(block.bn2(), rng);
      block.set_training(false);
      Tensor x = random_tensor({n, ch, 6, 6}, rng);

      ASSERT_TRUE(block.fused_eval_ready());
      Tensor fused = block.branch_forward(x, 0.5f);
      Tensor fused_fwd = block.forward(x);
      Tensor unfused, unfused_fwd;
      {
        FusedOverride off(false);
        ASSERT_FALSE(block.fused_eval_ready());
        unfused = block.branch_forward(x, 0.5f);
        unfused_fwd = block.forward(x);
      }
      ASSERT_TRUE(fused.same_shape(unfused));
      EXPECT_EQ(0, std::memcmp(fused.data(), unfused.data(),
                               fused.numel() * sizeof(float)))
          << "branch_forward";
      EXPECT_EQ(0, std::memcmp(fused_fwd.data(), unfused_fwd.data(),
                               fused_fwd.numel() * sizeof(float)))
          << "forward";
    }
  }
}

TEST(FusedEpilogue, BlockFusedEulerStepMatchesUnfused) {
  // z += h * f(z, t) with h folded into the bn2 coefficients — one float
  // regrouping vs the unfused h-scaled axpy, so tolerance, not bitwise.
  ou::Rng rng(30);
  BuildingBlock block({.in_channels = 4,
                       .out_channels = 4,
                       .stride = 1,
                       .time_channel = true});
  init_block(block, rng);
  randomize_bn(block.bn1(), rng);
  randomize_bn(block.bn2(), rng);
  block.set_training(false);
  Tensor z0 = random_tensor({2, 4, 6, 6}, rng);
  const float h = 0.25f;

  Tensor z_fused = z0;
  ASSERT_TRUE(block.fused_eval_ready());
  block.fused_euler_step(z_fused, 1.5f, h);

  Tensor z_ref = z0;
  {
    FusedOverride off(false);
    Tensor k1 = block.branch_forward(z_ref, 1.5f);
    z_ref.axpy(h, k1);
  }
  EXPECT_LE(max_abs_diff(z_fused.data(), z_ref.data(), z_ref.numel()), 1e-5);
}

TEST(FusedEpilogue, TrainingModeIsUntouched) {
  ou::Rng rng(31);
  BuildingBlock block({.in_channels = 3,
                       .out_channels = 3,
                       .stride = 1,
                       .time_channel = true});
  init_block(block, rng);
  block.set_training(true);
  EXPECT_FALSE(block.fused_eval_ready());

  // Training forward/backward runs identically whether the fused flag is
  // on or off — the gate keys off training mode, not just the toggle.
  Tensor x = random_tensor({2, 3, 5, 5}, rng);
  block.bn1().set_use_batch_stats_in_eval(true);  // deterministic replay
  block.bn2().set_use_batch_stats_in_eval(true);
  Tensor on = block.forward(x);
  Tensor g_on = block.backward(Tensor::full(on.shape(), 0.5f));
  Tensor off_out, g_off;
  {
    FusedOverride off(false);
    off_out = block.forward(x);
    g_off = block.backward(Tensor::full(on.shape(), 0.5f));
  }
  EXPECT_EQ(0, std::memcmp(on.data(), off_out.data(),
                           on.numel() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(g_on.data(), g_off.data(),
                           g_on.numel() * sizeof(float)));

  // Batch-stat eval also blocks fusion (the affine is not fixed).
  block.set_training(false);
  EXPECT_FALSE(block.fused_eval_ready());
  block.bn1().set_use_batch_stats_in_eval(false);
  block.bn2().set_use_batch_stats_in_eval(false);
  EXPECT_TRUE(block.fused_eval_ready());
  set_fused_epilogues(false);
  EXPECT_FALSE(block.fused_eval_ready());
  set_fused_epilogues(true);
  EXPECT_TRUE(fused_epilogues_enabled());
}

TEST(FusedEpilogue, OdeBlockFusedSolveMatchesUnfused) {
  ou::Rng rng(32);
  for (auto method : {os::Method::kEuler, os::Method::kHeun, os::Method::kRk4}) {
    SCOPED_TRACE(os::method_name(method));
    om::OdeBlock ob({.channels = 4, .executions = 4, .method = method});
    init_block(ob.block(), rng);
    randomize_bn(ob.block().bn1(), rng);
    randomize_bn(ob.block().bn2(), rng);
    ob.set_training(false);
    Tensor x = random_tensor({2, 4, 6, 6}, rng);

    Tensor fused = ob.forward(x);
    Tensor unfused;
    {
      FusedOverride off(false);
      unfused = ob.forward(x);
    }
    // Euler folds h per step (one regrouping per step); heun/rk4 run the
    // same eval + axpy sequence either way.
    EXPECT_LE(max_abs_diff(fused.data(), unfused.data(), fused.numel()), 1e-5);
  }
}

TEST(FusedEpilogue, SolverLoopMatchesExportedStepsBitwise) {
  // The restructured in-place fixed-step loop — with AND without caller
  // scratch — reproduces repeated euler_step/heun_step/rk4_step exactly.
  ou::Rng rng(33);
  Tensor z0 = random_tensor({2, 3, 4, 4}, rng);
  os::FunctionDynamics f([](const Tensor& z, float t) {
    Tensor out = z;
    out.scale(-0.3f + 0.05f * t);
    return out;
  });
  const int steps = 5;
  const float t0 = 0.0f, t1 = 1.0f;
  for (auto method : {os::Method::kEuler, os::Method::kHeun, os::Method::kRk4}) {
    SCOPED_TRACE(os::method_name(method));
    Tensor want = z0;
    const float h = (t1 - t0) / static_cast<float>(steps);
    for (int i = 0; i < steps; ++i) {
      const float t = t0 + h * static_cast<float>(i);
      switch (method) {
        case os::Method::kEuler: want = os::euler_step(f, want, t, h); break;
        case os::Method::kHeun: want = os::heun_step(f, want, t, h); break;
        case os::Method::kRk4: want = os::rk4_step(f, want, t, h); break;
        default: break;
      }
    }
    os::SolveOptions opts;
    opts.method = method;
    opts.steps = steps;
    Tensor no_scratch = os::ode_solve(f, z0, t0, t1, opts);
    os::StepScratch scratch;
    opts.scratch = &scratch;
    Tensor with_scratch = os::ode_solve(f, z0, t0, t1, opts);
    EXPECT_EQ(0, std::memcmp(no_scratch.data(), want.data(),
                             want.numel() * sizeof(float)))
        << "no scratch";
    EXPECT_EQ(0, std::memcmp(with_scratch.data(), want.data(),
                             want.numel() * sizeof(float)))
        << "with scratch";
  }
}

TEST(FusedEpilogue, OdeBlockStepsWithoutAllocationAfterWarmup) {
  ou::Rng rng(34);
  om::OdeBlock ob({.channels = 4, .executions = 6});
  init_block(ob.block(), rng);
  randomize_bn(ob.block().bn1(), rng);
  randomize_bn(ob.block().bn2(), rng);
  ob.set_training(false);
  ASSERT_TRUE(ob.block().fused_eval_ready());
  Tensor x = random_tensor({2, 4, 8, 8}, rng);

  (void)ob.forward(x);  // warmup: arenas grow, packs build, scratch sizes
  (void)ob.forward(x);
  const std::uint64_t g1 = ob.block().conv1().scratch_arena().growths();
  const std::uint64_t g2 = ob.block().conv2().scratch_arena().growths();
  for (int i = 0; i < 5; ++i) (void)ob.forward(x);
  EXPECT_EQ(ob.block().conv1().scratch_arena().growths(), g1);
  EXPECT_EQ(ob.block().conv2().scratch_arena().growths(), g2);
}

TEST(FusedEpilogue, ShortcutMatchesReferenceWalk) {
  // The memcpy/strided-copy rewrite against the original per-element
  // reference, including odd extents, stride 2 and channel padding.
  ou::Rng rng(35);
  struct Geo {
    int n, c, h, w, stride, co;
  };
  const Geo geos[] = {
      {1, 4, 6, 6, 1, 4},  {2, 3, 5, 7, 2, 6}, {1, 2, 4, 4, 2, 4},
      {3, 5, 9, 9, 2, 5},  {2, 4, 7, 5, 2, 8}, {1, 1, 1, 1, 2, 2},
  };
  for (const Geo& g : geos) {
    SCOPED_TRACE("n=" + std::to_string(g.n) + " c=" + std::to_string(g.c) +
                 " h=" + std::to_string(g.h) + " w=" + std::to_string(g.w) +
                 " s=" + std::to_string(g.stride) +
                 " co=" + std::to_string(g.co));
    Tensor x = random_tensor({g.n, g.c, g.h, g.w}, rng);
    Tensor got = BuildingBlock::shortcut(x, g.stride, g.co);

    const int ho = (g.h + g.stride - 1) / g.stride;
    const int wo = (g.w + g.stride - 1) / g.stride;
    Tensor want({g.n, g.co, ho, wo});
    for (int ni = 0; ni < g.n; ++ni) {
      for (int ci = 0; ci < std::min(g.c, g.co); ++ci) {
        for (int hi = 0; hi < ho; ++hi) {
          for (int wi = 0; wi < wo; ++wi) {
            want.at(ni, ci, hi, wi) =
                x.at(ni, ci, hi * g.stride, wi * g.stride);
          }
        }
      }
    }
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.numel() * sizeof(float)));

    // Adjoint: scatter grad back, everything off-grid stays zero.
    Tensor gout = random_tensor(got.shape(), rng);
    Tensor gin = BuildingBlock::shortcut_backward(gout, x.shape(), g.stride);
    Tensor gin_want(x.shape());
    for (int ni = 0; ni < g.n; ++ni) {
      for (int ci = 0; ci < std::min(g.c, g.co); ++ci) {
        for (int hi = 0; hi < ho; ++hi) {
          for (int wi = 0; wi < wo; ++wi) {
            if (hi * g.stride < g.h && wi * g.stride < g.w) {
              gin_want.at(ni, ci, hi * g.stride, wi * g.stride) =
                  gout.at(ni, ci, hi, wi);
            }
          }
        }
      }
    }
    EXPECT_EQ(0, std::memcmp(gin.data(), gin_want.data(),
                             gin.numel() * sizeof(float)));
  }
}
