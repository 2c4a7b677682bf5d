// SIMD GEMM micro-kernels and the packed-weight caches built on them
// (core/gemm_kernels.hpp, the tiled GEMMs in core/im2col.hpp):
//  * every tiled GEMM entry point against a double-accumulation reference
//    across a geometry sweep that exercises full tiles and ragged edges;
//  * ISA parity — the AVX2 kernels against the scalar fallback on the
//    same inputs (skipped on hosts without usable AVX2+FMA), and the
//    AVX-512 16-row tiles and every float driver memcmp-equal to AVX2
//    (skipped on hosts without usable AVX-512);
//  * thread-count invariance — the panel split never changes any tile's
//    summation order, so results are BITWISE equal across pool sizes;
//  * the once-per-version weight-packing caches of Conv2d and Linear
//    (hit on repeat calls, rebuild on version change / invalidation /
//    unversioned weights).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "core/linear.hpp"
#include "isa_tiers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace ou = odenet::util;
using odenet::testing::IsaCap;

namespace {

std::vector<float> random_matrix(int rows, int cols, ou::Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = static_cast<float>(rng.normal(0.0, 1.0));
  return m;
}

/// C[m,n] = A[m,k] * B[k,n] accumulated in double — the ground truth the
/// float kernels are compared against.
std::vector<float> reference_gemm(const std::vector<float>& a,
                                  const std::vector<float>& b, int m, int k,
                                  int n) {
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[static_cast<std::size_t>(i) * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

/// B[k,n] -> B^T stored [n,k] row-major (the gemm_bt_tiled/pack_gemm_b_nt
/// input; of A[m,k], the gemm_at input).
std::vector<float> transpose(const std::vector<float>& b, int k, int n) {
  std::vector<float> bt(static_cast<std::size_t>(n) * k);
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bt[static_cast<std::size_t>(j) * k + p] = b[p * n + j];
  }
  return bt;
}

double max_abs_diff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff,
                    std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return diff;
}

/// Error scale: k-length float dot products drift ~sqrt(k) ULPs.
double tol_for(int k) { return 1e-5 * std::sqrt(static_cast<double>(k)) + 1e-6; }

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Full tiles, ragged rows (m % 4), ragged cols (n % 16), sub-tile sizes,
/// panel boundaries (n near the 256-wide packing panel), a long-n case
/// shaped like a batched lowering, and a long-k case that spans three
/// depth blocks of the weight-gradient GEMMs.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},   {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {17, 27, 100}, {20, 36, 255}, {16, 32, 256}, {7, 33, 257},
    {64, 36, 585}, {100, 7, 130}, {24, 600, 70},
};

void run_all_tiled(const Shape& s, ou::Rng& rng) {
  SCOPED_TRACE(s.str());
  const auto a = random_matrix(s.m, s.k, rng);
  const auto b = random_matrix(s.k, s.n, rng);
  const auto bt = transpose(b, s.k, s.n);
  const auto want = reference_gemm(a, b, s.m, s.k, s.n);
  const double tol = tol_for(s.k);
  const std::size_t cn = want.size();

  std::vector<float> c(cn, -7.0f);
  gemm_tiled(a.data(), b.data(), c.data(), s.m, s.k, s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_tiled";

  PackedGemmB pb;
  pack_gemm_b_nt(bt.data(), s.k, s.n, pb);
  std::fill(c.begin(), c.end(), -7.0f);
  gemm_tiled_pb(a.data(), pb, c.data(), s.m, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_tiled_pb";

  std::fill(c.begin(), c.end(), -7.0f);
  gemm_bt_tiled(a.data(), bt.data(), c.data(), s.m, s.k, s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_bt_tiled";

  const auto at = transpose(a, s.m, s.k);
  std::fill(c.begin(), c.end(), -7.0f);
  gemm_at(at.data(), b.data(), c.data(), s.m, s.k, s.n, false);
  EXPECT_LE(max_abs_diff(c, want), tol) << "gemm_at";

  // accumulate=true adds onto the existing C.
  std::vector<float> acc(cn, 1.5f);
  gemm_tiled(a.data(), b.data(), acc.data(), s.m, s.k, s.n, true);
  std::vector<float> want_acc(cn);
  for (std::size_t i = 0; i < cn; ++i) want_acc[i] = want[i] + 1.5f;
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_tiled accumulate";
  acc.assign(cn, 1.5f);
  gemm_tiled_pb(a.data(), pb, acc.data(), s.m, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_tiled_pb accumulate";
  acc.assign(cn, 1.5f);
  gemm_bt_tiled(a.data(), bt.data(), acc.data(), s.m, s.k, s.n, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_bt_tiled accumulate";
  acc.assign(cn, 1.5f);
  gemm_at(at.data(), b.data(), acc.data(), s.m, s.k, s.n, true);
  EXPECT_LE(max_abs_diff(acc, want_acc), tol) << "gemm_at accumulate";
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

}  // namespace

TEST(GemmKernels, DispatchIsConsistent) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16, nullptr);
  ASSERT_NE(k.tile4x16_i16, nullptr);
  ASSERT_NE(k.tile16x16, nullptr);
  ASSERT_NE(k.tile16x16_ep, nullptr);
  ASSERT_NE(k.tile16x16_i16, nullptr);
  ASSERT_NE(k.tile16x16_i16_ep, nullptr);
  EXPECT_STREQ(k.isa, gemm_isa_name());
  // Printed so a CI log shows which tier the suites ran on.
  std::printf("dispatched ISA: %s\n", gemm_isa_name());
  EXPECT_TRUE(gemm_isa_usable(GemmIsa::kScalar));
  // No cap by default; gemm_cap_isa returns the cap it replaces.
  EXPECT_EQ(gemm_cap_isa(GemmIsa::kAvx512), GemmIsa::kAvx512);
  if (gemm_isa_usable(GemmIsa::kAvx512)) {
    EXPECT_TRUE(gemm_isa_usable(GemmIsa::kAvx2));
    EXPECT_STREQ(gemm_isa_name(), "avx512");
  } else if (gemm_isa_usable(GemmIsa::kAvx2)) {
    EXPECT_STREQ(gemm_isa_name(), "avx2+fma");
  } else {
    EXPECT_STREQ(gemm_isa_name(), "scalar");
  }
  {
    IsaCap cap(GemmIsa::kAvx2);
    EXPECT_EQ(gemm_cap_isa(GemmIsa::kAvx2), GemmIsa::kAvx2);
    EXPECT_STREQ(gemm_isa_name(), gemm_isa_usable(GemmIsa::kAvx2)
                                      ? "avx2+fma"
                                      : "scalar");
  }
  IsaCap cap(GemmIsa::kScalar);
  EXPECT_STREQ(gemm_isa_name(), "scalar");
}

TEST(GemmKernels, TiledVariantsMatchReferenceAcrossGeometries) {
  ou::Rng rng(7);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, ScalarFallbackMatchesReferenceAcrossGeometries) {
  IsaCap cap(GemmIsa::kScalar);
  ou::Rng rng(8);
  for (const Shape& s : kShapes) run_all_tiled(s, rng);
}

TEST(GemmKernels, IsaParityAvx2VsScalar) {
  if (!gemm_isa_usable(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(9);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    const auto bt = transpose(b, s.k, s.n);
    const double tol = tol_for(s.k);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<float> vec(cn), sca(cn);
    gemm_tiled(a.data(), b.data(), vec.data(), s.m, s.k, s.n, false);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_tiled(a.data(), b.data(), sca.data(), s.m, s.k, s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "gemm_tiled isa parity";

    gemm_bt_tiled(a.data(), bt.data(), vec.data(), s.m, s.k, s.n, false);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_bt_tiled(a.data(), bt.data(), sca.data(), s.m, s.k, s.n, false);
    }
    EXPECT_LE(max_abs_diff(vec, sca), tol) << "gemm_bt_tiled isa parity";
  }
}

TEST(GemmKernels, Avx512TilesMatchAvx2Bitwise) {
  // The 16-row float tiles against the AVX2 table's four 4x16 tiles on
  // the same packed panels: plain, accumulating, and every epilogue stage
  // (with NaN/inf/-0 residuals and the residual aliasing C).
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ou::Rng rng(12);
  constexpr std::size_t ldc = 21;  // a window inside a wider matrix
  for (int k : {1, 2, 7, 64, 585}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const auto apanel = random_matrix(kGemmGroupRows, k, rng);
    const auto bpanel = random_matrix(k, kGemmTileCols, rng);
    auto init = random_matrix(kGemmGroupRows, static_cast<int>(ldc), rng);
    init[3] = std::numeric_limits<float>::quiet_NaN();
    init[40] = std::numeric_limits<float>::infinity();
    init[77] = -0.0f;
    const auto coeffs = random_matrix(2, kGemmGroupRows, rng);
    for (bool accumulate : {false, true}) {
      odenet::testing::expect_avx512_matches_avx2(
          [&] {
            std::vector<float> c = init;
            active_gemm_kernels().tile16x16(apanel.data(), bpanel.data(), k,
                                            c.data(), ldc, accumulate);
            return c;
          },
          accumulate ? "tile16x16 accumulate" : "tile16x16");
    }
    for (int mask = 0; mask < 16; ++mask) {
      const bool affine = (mask & 1) != 0, relu = (mask & 2) != 0;
      const bool residual = (mask & 4) != 0, aliased = (mask & 8) != 0;
      if (aliased && !residual) continue;
      odenet::testing::expect_avx512_matches_avx2(
          [&] {
            std::vector<float> c = init;
            const std::vector<float> r = init;
            active_gemm_kernels().tile16x16_ep(
                apanel.data(), bpanel.data(), k, c.data(), ldc,
                affine ? coeffs.data() : nullptr,
                affine ? coeffs.data() + kGemmGroupRows : nullptr, relu,
                residual ? (aliased ? c.data() : r.data()) : nullptr, ldc,
                0.375f);
            return c;
          },
          "tile16x16_ep mask=" + std::to_string(mask));
    }
  }
}

TEST(GemmKernels, Avx512DriversMatchAvx2Bitwise) {
  // Every float front-end of the tiled driver — gemm_tiled, gemm_tiled_pb,
  // gemm_at and gemm_bt_tiled — plain and accumulating, with m covering
  // whole 16-row groups, a lone 4-row remainder and ragged rows, ragged n
  // and panel edges, a short and a multi-block depth, at 1, 2 and 4
  // workers on the split path.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ou::Rng rng(13);
  for (int m : {4, 8, 12, 16, 20, 64, 100}) {
    for (int n : {1, 17, 100, 257}) {
      const int k = m == 20 ? 600 : 36;
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                   " k=" + std::to_string(k));
      const auto a = random_matrix(m, k, rng);
      const auto at = transpose(a, m, k);
      const auto b = random_matrix(k, n, rng);
      const auto bt = transpose(b, k, n);
      const auto init = random_matrix(m, n, rng);
      PackedGemmB pb;
      pack_gemm_b_nt(bt.data(), k, n, pb);
      for (std::size_t workers : {1u, 2u, 4u}) {
        ou::ThreadPool pool(workers);
        PoolOverride ov(&pool, 1);
        odenet::testing::expect_avx512_matches_avx2(
            [&] {
              std::vector<float> out, c(init.size());
              auto keep = [&] { out.insert(out.end(), c.begin(), c.end()); };
              gemm_tiled(a.data(), b.data(), c.data(), m, k, n, false);
              keep();
              c = init;
              gemm_tiled(a.data(), b.data(), c.data(), m, k, n, true);
              keep();
              gemm_tiled_pb(a.data(), pb, c.data(), m, false);
              keep();
              c = init;
              gemm_tiled_pb(a.data(), pb, c.data(), m, true);
              keep();
              gemm_at(at.data(), b.data(), c.data(), m, k, n, false);
              keep();
              c = init;
              gemm_at(at.data(), b.data(), c.data(), m, k, n, true);
              keep();
              gemm_bt_tiled(a.data(), bt.data(), c.data(), m, k, n, false);
              keep();
              c = init;
              gemm_bt_tiled(a.data(), bt.data(), c.data(), m, k, n, true);
              keep();
              return out;
            },
            "workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(GemmKernels, ThreadCountInvarianceIsBitwise) {
  // Each 4x16 output tile's k loop runs entirely on one worker, so the
  // panel split is pure work division: 1, 2, 4 and 8 threads must produce
  // BITWISE identical results (threshold forced to 1 flop so even the
  // smallest shapes take the parallel path), for every front-end and
  // store mode of the tiled driver.
  ou::Rng rng(10);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    const auto bt = transpose(b, s.k, s.n);
    const auto at = transpose(a, s.m, s.k);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;
    PackedGemmB pb;
    pack_gemm_b_nt(bt.data(), s.k, s.n, pb);
    const auto init = random_matrix(s.m, s.n, rng);
    // Every variant's output, concatenated.
    auto run_all = [&] {
      std::vector<float> out, c(cn);
      auto keep = [&] { out.insert(out.end(), c.begin(), c.end()); };
      gemm_tiled(a.data(), b.data(), c.data(), s.m, s.k, s.n, false);
      keep();
      c = init;
      gemm_tiled(a.data(), b.data(), c.data(), s.m, s.k, s.n, true);
      keep();
      gemm_tiled_pb(a.data(), pb, c.data(), s.m, false);
      keep();
      c = init;
      gemm_tiled_pb(a.data(), pb, c.data(), s.m, true);
      keep();
      gemm_bt_tiled(a.data(), bt.data(), c.data(), s.m, s.k, s.n, false);
      keep();
      gemm_at(at.data(), b.data(), c.data(), s.m, s.k, s.n, false);
      keep();
      c = init;
      gemm_at(at.data(), b.data(), c.data(), s.m, s.k, s.n, true);
      keep();
      return out;
    };
    std::vector<float> base;
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      base = run_all();
    }
    for (std::size_t workers : {2u, 4u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      const std::vector<float> got = run_all();
      ASSERT_EQ(got.size(), base.size());
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                               got.size() * sizeof(float)))
          << "differs at " << workers << " workers";
    }
  }
}

TEST(GemmKernels, Conv2dPacksOncePerWeightVersion) {
  ou::Rng rng(11);
  Conv2d conv({.in_channels = 3, .out_channels = 8});
  init_conv(conv, rng);
  conv.set_training(false);

  Tensor x({2, 3, 8, 8});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  // Unversioned weights (training default): every call repacks.
  EXPECT_EQ(conv.weight_version(), 0u);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 2u);

  // Versioned: one pack, then cache hits.
  conv.set_weight_version(41);
  (void)conv.forward(x);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 3u);

  // New version -> one repack.
  conv.set_weight_version(42);
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 4u);

  // Explicit invalidation -> one repack even at the same version.
  conv.invalidate_packed_weights();
  (void)conv.forward(x);
  (void)conv.forward(x);
  EXPECT_EQ(conv.weight_packs(), 5u);
}

TEST(GemmKernels, LinearPacksOncePerWeightVersion) {
  ou::Rng rng(12);
  Linear fc(6, 4);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  Tensor x({3, 6});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }

  EXPECT_EQ(fc.weight_version(), 0u);
  (void)fc.forward(x);
  (void)fc.forward(x);
  EXPECT_EQ(fc.weight_packs(), 2u);

  fc.set_weight_version(9);
  (void)fc.forward(x);
  (void)fc.forward(x);
  EXPECT_EQ(fc.weight_packs(), 3u);

  fc.set_weight_version(10);
  (void)fc.forward(x);
  EXPECT_EQ(fc.weight_packs(), 4u);

  fc.invalidate_packed_weights();
  (void)fc.forward(x);
  EXPECT_EQ(fc.weight_packs(), 5u);
}

TEST(GemmKernels, PackedCacheStillCorrectAfterRepack) {
  // The cached pack must track the live weights: forward after an SGD-like
  // in-place weight mutation with version 0 re-reads the new values.
  ou::Rng rng(13);
  Linear fc(5, 3);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  Tensor x({2, 5});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  Tensor before = fc.forward(x);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] += 0.25f;
  }
  Tensor after = fc.forward(x);
  double diff = 0.0;
  for (std::size_t i = 0; i < before.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(before.data()[i]) -
                                    after.data()[i]));
  }
  EXPECT_GT(diff, 0.0) << "version-0 cache served stale weights";
}

TEST(GemmKernels, LinearForwardOnSplitPoolMatchesReference) {
  // Regression: gemm_tiled_pb packed A into a thread-local buffer and then
  // fanned its row tiles out to pool workers, each of which read its OWN
  // (empty) copy. A 64 -> 10 head at batch 1024 crosses the parallel
  // threshold; on an explicit 4-worker pool with every GEMM forced onto
  // the split path it must match a double-accumulation reference.
  ou::Rng rng(13);
  const int batch = 1024, in = 64, out = 10;
  Linear fc(in, out);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.2));
  }
  for (int o = 0; o < out; ++o) {
    fc.bias().value.data()[o] = static_cast<float>(rng.normal(0.0, 0.1));
  }
  Tensor x({batch, in});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  ou::ThreadPool pool(4);
  set_kernel_pool(&pool);
  gemm_set_parallel_min_flops(1);
  const Tensor y = fc.forward(x);
  set_kernel_pool(nullptr);
  gemm_set_parallel_min_flops(0);

  ASSERT_EQ(y.dim(0), batch);
  ASSERT_EQ(y.dim(1), out);
  double worst = 0.0;
  for (int b = 0; b < batch; ++b) {
    for (int o = 0; o < out; ++o) {
      double want = fc.bias().value.data()[o];
      for (int i = 0; i < in; ++i) {
        want += static_cast<double>(x.data()[b * in + i]) *
                fc.weight().value.data()[o * in + i];
      }
      worst = std::max(worst, std::fabs(want - y.data()[b * out + o]));
    }
  }
  EXPECT_LT(worst, 1e-4);
}

namespace {

/// One Linear forward + backward in training mode on fixed inputs:
/// returns dX, dW and db concatenated.
std::vector<float> linear_backward_run(int batch, int in, int out) {
  ou::Rng rng(14);
  Linear fc(in, out);
  fc.set_training(true);
  for (std::size_t i = 0; i < fc.weight().value.numel(); ++i) {
    fc.weight().value.data()[i] = static_cast<float>(rng.normal(0.0, 0.2));
  }
  Tensor x({batch, in}), g({batch, out});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  for (std::size_t i = 0; i < g.numel(); ++i) {
    g.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  (void)fc.forward(x);
  const Tensor gx = fc.backward(g);
  std::vector<float> got(gx.data(), gx.data() + gx.numel());
  got.insert(got.end(), fc.weight().grad.data(),
             fc.weight().grad.data() + fc.weight().grad.numel());
  got.insert(got.end(), fc.bias().grad.data(),
             fc.bias().grad.data() + fc.bias().grad.numel());
  return got;
}

}  // namespace

TEST(GemmKernels, LinearBackwardIsBitwiseAcrossWorkerCounts) {
  // Linear dW (gemm_at over a 300-deep batch: two depth blocks) and dX
  // (gemm_tiled) on explicit 1-, 2- and 4-worker pools with every GEMM
  // forced onto the split path: bitwise equal, and dW within a double
  // reference's tolerance.
  const int batch = 300, in = 64, out = 10;
  std::vector<float> base;
  for (std::size_t workers : {1u, 2u, 4u}) {
    ou::ThreadPool pool(workers);
    PoolOverride ov(&pool, 1);
    const std::vector<float> got = linear_backward_run(batch, in, out);
    if (base.empty()) {
      base = got;
      continue;
    }
    ASSERT_EQ(got.size(), base.size());
    EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                             got.size() * sizeof(float)))
        << "differs at " << workers << " workers";
  }
  // The same inputs, rebuilt: dW[o][i] = sum_b g[b][o] * x[b][i].
  ou::Rng rng(14);
  std::vector<float> w(static_cast<std::size_t>(out) * in);
  for (auto& v : w) v = static_cast<float>(rng.normal(0.0, 0.2));
  const auto x = random_matrix(batch, in, rng);
  const auto g = random_matrix(batch, out, rng);
  const auto want = reference_gemm(transpose(g, batch, out), x, out, batch, in);
  const std::vector<float> dw(
      base.begin() + static_cast<std::ptrdiff_t>(batch) * in,
      base.begin() + static_cast<std::ptrdiff_t>(batch) * in + out * in);
  EXPECT_LE(max_abs_diff(dw, want), tol_for(batch));
}

TEST(GemmKernels, LinearBackwardAvx512MatchesAvx2Bitwise) {
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  for (int batch : {1, 9, 300}) {
    odenet::testing::expect_avx512_matches_avx2(
        [&] { return linear_backward_run(batch, 64, 10); },
        "Linear backward batch=" + std::to_string(batch));
  }
}
