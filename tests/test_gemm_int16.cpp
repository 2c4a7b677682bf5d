// The int16 integer GEMM micro-kernel path (core/gemm_kernels.hpp):
//  * gemm_i16_tiled_pa against an int64-accumulation reference across the
//    same geometry sweep as the float kernels (full tiles, ragged rows,
//    ragged cols, panel boundaries, odd k);
//  * ISA parity — the AVX2 madd kernel against the scalar fallback must
//    be BITWISE identical, including on accumulators that wrap mod 2^32
//    (both sides use defined wraparound arithmetic), and the AVX-512 VNNI
//    16-row tiles and the fused conv driver memcmp-equal to AVX2;
//  * thread-count invariance — the panel x row-block split never changes
//    any tile's summation order, so 1/2/8 workers agree bitwise;
//  * saturation edges — operands at the int16 rails accumulate exactly
//    while the true sum fits int32;
//  * the SIMD quantize kernels (qdq_f32, quant_f32_i16) against the
//    scalar fallback bitwise, and against Fixed's round-half-away
//    semantics including NaN/inf/-0.0 specials;
//  * the fused int16 conv (gemm_i16_lowered_ep: implicit lowering plus
//    the requant -> BN -> qdq -> ReLU -> Euler/shortcut tile epilogue)
//    against the unfused chain of standalone primitives, bitwise, across
//    geometries, epilogues, ISAs and worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/batchnorm.hpp"
#include "core/gemm_kernels.hpp"
#include "core/im2col.hpp"
#include "core/tensor.hpp"
#include "fixed/fixed_tensor.hpp"
#include "isa_tiers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace ou = odenet::util;
namespace of = odenet::fixed;
using odenet::testing::IsaCap;

namespace {

std::vector<std::int16_t> random_i16(int rows, int cols, int mag,
                                     ou::Rng& rng) {
  std::vector<std::int16_t> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) {
    v = static_cast<std::int16_t>(
        std::lround(rng.normal(0.0, mag / 3.0)));
  }
  return m;
}

/// C[m,n] = A[m,k] * B[k,n] accumulated in int64, then truncated mod 2^32
/// — the kernel's exact contract (wraparound included).
std::vector<std::int32_t> reference_gemm_i16(
    const std::vector<std::int16_t>& a, const std::vector<std::int16_t>& b,
    int m, int k, int n) {
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::uint32_t acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<std::uint32_t>(
            static_cast<std::int32_t>(a[i * k + p]) * b[p * n + j]);
      }
      c[static_cast<std::size_t>(i) * n + j] =
          static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

struct Shape {
  int m, k, n;
  std::string str() const {
    return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
           " n=" + std::to_string(n);
  }
};

/// Same sweep as the float suite: full tiles, ragged rows (m % 4), ragged
/// cols (n % 16), odd k (the phantom zero tap), panel boundaries around
/// the 256-wide packing panel and a long-n batched-lowering shape.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 8, 16},   {5, 16, 17},  {8, 9, 32},
    {12, 64, 48}, {17, 27, 100}, {20, 36, 255}, {16, 32, 256}, {7, 33, 257},
    {64, 36, 585}, {100, 7, 130},
};

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

void run_i16_sweep(ou::Rng& rng) {
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    // |acc| <= k * 300^2 < 5.3e7 for the largest k — no wrap, so the
    // int64-truncated reference equals plain integer arithmetic.
    const auto a = random_i16(s.m, s.k, 300, rng);
    const auto b = random_i16(s.k, s.n, 300, rng);
    const auto want = reference_gemm_i16(a, b, s.m, s.k, s.n);

    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), s.m, s.k, pa);
    std::vector<std::int32_t> c(want.size(), -7);
    gemm_i16_tiled_pa(pa, b.data(), c.data(), s.n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                             want.size() * sizeof(std::int32_t)))
        << "gemm_i16_tiled_pa";

    // accumulate=true adds onto the existing C (mod 2^32).
    std::vector<std::int32_t> acc(want.size(), 15);
    gemm_i16_tiled_pa(pa, b.data(), acc.data(), s.n, true);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(acc[i], want[i] + 15) << "accumulate at " << i;
    }
  }
}

}  // namespace

TEST(GemmInt16, TiledMatchesInt64ReferenceAcrossGeometries) {
  ou::Rng rng(21);
  run_i16_sweep(rng);
}

TEST(GemmInt16, ScalarFallbackMatchesReferenceAcrossGeometries) {
  IsaCap cap(GemmIsa::kScalar);
  ou::Rng rng(22);
  run_i16_sweep(rng);
}

TEST(GemmInt16, IsaParityIsBitwise) {
  if (!gemm_isa_usable(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  ou::Rng rng(23);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    // Full-rail magnitudes: lanes may wrap mod 2^32; both ISAs must wrap
    // identically (the wraparound IS the contract, not UB).
    const auto a = random_i16(s.m, s.k, 20000, rng);
    const auto b = random_i16(s.k, s.n, 20000, rng);
    PackedGemmA16 pa;
    pack_gemm_a_i16(a.data(), s.m, s.k, pa);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<std::int32_t> vec(cn, -1), sca(cn, -2);
    gemm_i16_tiled_pa(pa, b.data(), vec.data(), s.n, false);
    {
      IsaCap cap(GemmIsa::kScalar);
      gemm_i16_tiled_pa(pa, b.data(), sca.data(), s.n, false);
    }
    EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(),
                             cn * sizeof(std::int32_t)))
        << "i16 isa parity";
  }
}

TEST(GemmInt16, ThreadCountInvarianceIsBitwise) {
  // Each 4x16 tile's k loop runs entirely on one worker and integer
  // addition commutes mod 2^32, so the panel split is pure work division:
  // 1, 2 and 8 workers produce BITWISE identical accumulators (threshold
  // forced to 1 flop so even the smallest shapes take the parallel path).
  ou::Rng rng(24);
  for (const Shape& s : kShapes) {
    SCOPED_TRACE(s.str());
    const auto a = random_i16(s.m, s.k, 300, rng);
    const auto b = random_i16(s.k, s.n, 300, rng);
    const std::size_t cn = static_cast<std::size_t>(s.m) * s.n;

    std::vector<std::int32_t> base(cn);
    {
      ou::ThreadPool one(1);
      PoolOverride ov(&one, 1);
      PackedGemmA16 pa;
      pack_gemm_a_i16(a.data(), s.m, s.k, pa);
      gemm_i16_tiled_pa(pa, b.data(), base.data(), s.n, false);
    }
    for (std::size_t workers : {2u, 8u}) {
      ou::ThreadPool pool(workers);
      PoolOverride ov(&pool, 1);
      std::vector<std::int32_t> got(cn, -3);
      PackedGemmA16 pa;
      pack_gemm_a_i16(a.data(), s.m, s.k, pa);
      gemm_i16_tiled_pa(pa, b.data(), got.data(), s.n, false);
      EXPECT_EQ(0, std::memcmp(got.data(), base.data(),
                               cn * sizeof(std::int32_t)))
          << "gemm_i16_tiled_pa differs at " << workers << " workers";
    }
  }
}

TEST(GemmInt16, SaturationRailOperandsAccumulateExactly) {
  // Operands parked at the int16 rails: 2 * 32767^2 and mixed-sign rail
  // products all fit int32, so the kernel must return them exactly. The
  // executor's weight envelope guarantees real models never wrap; this
  // pins the arithmetic at the extreme the envelope allows.
  const int m = 5, k = 2, n = 17;  // ragged row + col edges included
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  std::vector<std::int16_t> b(static_cast<std::size_t>(k) * n);
  const std::int16_t rails[] = {32767, -32768, -32767, 1};
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rails[i % 4];
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rails[(i + 1) % 4];
  const auto want = reference_gemm_i16(a, b, m, k, n);
  // Sanity: this fixture stays within int32 (no wrap in the reference).
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      std::int64_t wide = 0;
      for (int p = 0; p < k; ++p) {
        wide += static_cast<std::int64_t>(a[i * k + p]) * b[p * n + j];
      }
      ASSERT_EQ(wide, want[static_cast<std::size_t>(i) * n + j]);
    }
  }

  PackedGemmA16 pa;
  pack_gemm_a_i16(a.data(), m, k, pa);
  std::vector<std::int32_t> c(want.size());
  gemm_i16_tiled_pa(pa, b.data(), c.data(), n, false);
  EXPECT_EQ(0, std::memcmp(c.data(), want.data(),
                           want.size() * sizeof(std::int32_t)));
  if (gemm_isa_usable(GemmIsa::kAvx2)) {
    IsaCap cap(GemmIsa::kScalar);
    std::vector<std::int32_t> sca(want.size());
    gemm_i16_tiled_pa(pa, b.data(), sca.data(), n, false);
    EXPECT_EQ(0, std::memcmp(c.data(), sca.data(),
                             want.size() * sizeof(std::int32_t)));
  }
}

TEST(GemmInt16, PackedPanelsZeroPadEdges) {
  // m=3 (one ragged row), k=5 (phantom odd tap): every pad slot is zero
  // and every live slot lands at [p][i][s] = A[4t+i][2p+s].
  const int m = 3, k = 5;
  std::vector<std::int16_t> a(static_cast<std::size_t>(m) * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int16_t>(100 + i);
  }
  PackedGemmA16 pa;
  pack_gemm_a_i16(a.data(), m, k, pa);
  ASSERT_EQ(pa.kpairs(), 3);
  ASSERT_EQ(pa.data.size(), static_cast<std::size_t>(1) * 3 * 4 * 2);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 4; ++i) {
      for (int s = 0; s < 2; ++s) {
        const std::int16_t got = pa.data[(p * 4 + i) * 2 + s];
        const int row = i, col = 2 * p + s;
        if (row >= m || col >= k) {
          EXPECT_EQ(got, 0) << "pad at p=" << p << " i=" << i << " s=" << s;
        } else {
          EXPECT_EQ(got, a[row * k + col]);
        }
      }
    }
  }

  PackedGemmB16 pb;
  pack_gemm_b_i16(a.data(), /*k=*/m, /*n=*/k, pb);  // 3x5 as B
  ASSERT_EQ(pb.kpairs(), 2);
  ASSERT_EQ(pb.data.size(), static_cast<std::size_t>(1) * 2 * 16 * 2);
  for (int p = 0; p < 2; ++p) {
    for (int j = 0; j < 16; ++j) {
      for (int s = 0; s < 2; ++s) {
        const std::int16_t got = pb.data[(p * 16 + j) * 2 + s];
        const int row = 2 * p + s, col = j;
        if (row >= m || col >= k) {
          EXPECT_EQ(got, 0) << "pad at p=" << p << " j=" << j << " s=" << s;
        } else {
          EXPECT_EQ(got, a[row * k + col]);
        }
      }
    }
  }
}

TEST(GemmInt16, QuantizeKernelsAreIsaBitwiseAndHandleSpecials) {
  const GemmKernels& k = active_gemm_kernels();
  ASSERT_NE(k.tile4x16_i16, nullptr);
  ASSERT_NE(k.qdq_f32, nullptr);
  ASSERT_NE(k.quant_f32_i16, nullptr);

  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> src = {0.0f,   -0.0f,  1.0f,     -1.0f,  0.3333f,
                            -0.3333f, 1e30f, -1e30f,  inf,    -inf,
                            nan,    7.9999f, -7.9999f, 0.5f / 4096.0f,
                            1.5f / 4096.0f, -1.5f / 4096.0f};
  ou::Rng rng(25);
  for (int i = 0; i < 333; ++i) {  // odd count: SIMD tail path covered
    src.push_back(static_cast<float>(rng.normal(0.0, 4.0)));
  }

  for (int frac : {8, 12, 15}) {
    SCOPED_TRACE("frac=" + std::to_string(frac));
    std::vector<std::int16_t> qv(src.size()), qs(src.size());
    k.quant_f32_i16(src.data(), qv.data(), src.size(), frac);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().quant_f32_i16(src.data(), qs.data(), src.size(),
                                          frac);
    }
    EXPECT_EQ(0, std::memcmp(qv.data(), qs.data(),
                             qv.size() * sizeof(std::int16_t)));
    // Specials: NaN -> 0, +-inf/huge -> rails.
    EXPECT_EQ(qs[8], 32767);   // +inf
    EXPECT_EQ(qs[9], -32768);  // -inf
    EXPECT_EQ(qs[10], 0);      // NaN
    EXPECT_EQ(qs[6], 32767);   // +huge
    EXPECT_EQ(qs[7], -32768);  // -huge

    std::vector<float> dv(src), ds(src);
    k.qdq_f32(dv.data(), dv.size(), frac);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().qdq_f32(ds.data(), ds.size(), frac);
    }
    EXPECT_EQ(0,
              std::memcmp(dv.data(), ds.data(), dv.size() * sizeof(float)));
    // qdq matches the Fixed scalar reference value-for-value (including
    // -0.0 normalization: the result compares bitwise equal to +0.0).
    for (std::size_t i = 0; i < src.size(); ++i) {
      const float want = of::qdq_value(src[i], frac);
      ASSERT_EQ(ds[i], want) << "qdq mismatch at " << i << " v=" << src[i];
    }
    const float zero = 0.0f;
    EXPECT_EQ(0, std::memcmp(&ds[1], &zero, sizeof(float)));  // -0.0 -> +0.0
  }

  // requant_i32: the AVX2 double-domain shift against the int64 scalar,
  // bitwise, across shifts including 0 (passthrough) and accumulators at
  // the int32 rails.
  std::vector<std::int32_t> accs = {0,          1,           -1,
                                    24,         -24,         23,
                                    2147483647, -2147483647, -2147483648};
  for (int i = 0; i < 500; ++i) {
    accs.push_back(static_cast<std::int32_t>(
        std::llround(rng.normal(0.0, 1e8))));
  }
  for (int shift : {0, 4, 8, 27}) {
    SCOPED_TRACE("shift=" + std::to_string(shift));
    std::vector<float> rv(accs.size()), rs(accs.size());
    k.requant_i32(accs.data(), rv.data(), accs.size(), shift, 20);
    {
      IsaCap cap(GemmIsa::kScalar);
      active_gemm_kernels().requant_i32(accs.data(), rs.data(), accs.size(),
                                        shift, 20);
    }
    EXPECT_EQ(0,
              std::memcmp(rv.data(), rs.data(), rv.size() * sizeof(float)));
  }

  // Round-half-away-from-zero at the exact midpoint: 1.5 ulp of Q12 is
  // 1.5/4096, which must round to raw 2, not the round-to-even 2 vs the
  // round-to-zero 1 — and symmetrically for the negative midpoint.
  std::int16_t q[2];
  const float mids[2] = {1.5f / 4096.0f, -1.5f / 4096.0f};
  active_gemm_kernels().quant_f32_i16(mids, q, 2, 12);
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(q[1], -2);
}

TEST(GemmInt16, MaxAbsKernelIsIsaBitwiseAndExact) {
  ou::Rng rng(31);
  // Odd length exercises the SIMD tail; the winner sits in the tail so a
  // dropped remainder would be caught.
  std::vector<float> src(8 * 123 + 5);
  for (auto& v : src) v = static_cast<float>(rng.normal(0.0, 3.0));
  src[src.size() - 2] = -97.5f;  // |max| is a negative tail element

  float ref = 0.0f;
  for (float v : src) ref = std::max(ref, std::fabs(v));
  ASSERT_EQ(ref, 97.5f);

  const float vec = active_gemm_kernels().max_abs_f32(src.data(), src.size());
  float sca;
  {
    IsaCap cap(GemmIsa::kScalar);
    sca = active_gemm_kernels().max_abs_f32(src.data(), src.size());
  }
  EXPECT_EQ(vec, ref);
  EXPECT_EQ(sca, ref);
  EXPECT_EQ(0, std::memcmp(&vec, &sca, sizeof(float)));

  // The thread-split wrapper reduces chunk partials — exact max is
  // associative, so any split is bitwise identical; +inf passes through
  // (the executor's isfinite guard rejects it downstream).
  EXPECT_EQ(of::max_abs(src.data(), src.size()), ref);
  EXPECT_EQ(of::max_abs(src.data(), 0), 0.0f);
  std::vector<float> big(100000, 0.25f);
  big[70001] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(of::max_abs(big.data(), big.size()),
            std::numeric_limits<float>::infinity());
}

// ---- The fused int16 conv datapath (gemm_i16_lowered_ep) ---------------
//
// Oracle: the unfused chain built from the standalone primitives —
// im2col_batched_i16 -> gemm_i16_tiled_pa -> requantize_i32 ->
// permute_channel_major -> BatchNorm2d::forward -> qdq_inplace -> ReLU ->
// axpy/add -> qdq_inplace. The fused driver must match it with memcmp
// on every geometry, epilogue, ISA and worker count.

namespace {

struct ConvCase {
  int n, c, h, w, kernel, stride, pad, m;
  bool time;  // last input channel is a constant time plane
  std::string str() const {
    return "n=" + std::to_string(n) + " c=" + std::to_string(c) +
           (time ? "+t" : "") + " " + std::to_string(h) + "x" +
           std::to_string(w) + " k=" + std::to_string(kernel) +
           " s=" + std::to_string(stride) + " m=" + std::to_string(m);
  }
};

/// Stride 1 and 2, with and without a time channel, odd k (C*9 odd),
/// n in {1, 3, 16}, planes that are not a multiple of 16 (6x6 out), a
/// ragged row tile (m % 4 != 0), a plane wider than one micro-tile
/// (32x32) and a 1x1 kernel.
const ConvCase kConvCases[] = {
    {1, 5, 8, 8, 3, 1, 1, 8, false},   {3, 4, 8, 8, 3, 1, 1, 16, true},
    {16, 8, 8, 8, 3, 1, 1, 16, true},  {3, 4, 16, 16, 3, 2, 1, 8, false},
    {3, 3, 12, 12, 3, 2, 1, 6, true},  {3, 3, 6, 6, 3, 1, 1, 5, false},
    {1, 3, 32, 32, 3, 1, 1, 4, true},  {16, 4, 4, 4, 3, 1, 1, 8, true},
    {3, 7, 4, 4, 1, 1, 0, 4, false},
};

enum class EpMode { kRequantOnly, kConv1, kEuler, kShortcut };

struct ConvFixture {
  LoweringGeometry g;
  std::vector<std::int16_t> image;  // [n, c(+t), h, w]
  PackedGemmA16 pa;
  odenet::core::BatchNorm2d bn;
  std::vector<float> residual;      // NCHW output shape
  std::size_t out_elems = 0;

  ConvFixture(const ConvCase& cc, ou::Rng& rng) : bn(cc.m, "bn_fixture") {
    const int ci = cc.c + (cc.time ? 1 : 0);
    g = {.channels = ci, .height = cc.h, .width = cc.w, .kernel = cc.kernel,
         .stride = cc.stride, .pad = cc.pad};
    const std::size_t plane = static_cast<std::size_t>(cc.h) * cc.w;
    image = random_i16(cc.n * ci, static_cast<int>(plane), 9000, rng);
    if (cc.time) {
      for (int i = 0; i < cc.n; ++i) {
        std::int16_t* tp =
            image.data() + (static_cast<std::size_t>(i) * ci + cc.c) * plane;
        std::fill_n(tp, plane, static_cast<std::int16_t>(1234));
      }
    }
    const int kk = static_cast<int>(g.col_rows());
    const auto w = random_i16(cc.m, kk, 600, rng);
    pack_gemm_a_i16(w.data(), cc.m, kk, pa);
    for (int ch = 0; ch < cc.m; ++ch) {
      bn.gamma().value.at1(ch) = static_cast<float>(rng.normal(1.0, 0.3));
      bn.beta().value.at1(ch) = static_cast<float>(rng.normal(0.0, 0.5));
      bn.running_mean().at1(ch) = static_cast<float>(rng.normal(0.0, 0.5));
      bn.running_var().at1(ch) =
          static_cast<float>(0.5 + std::fabs(rng.normal(0.0, 1.0)));
    }
    out_elems = static_cast<std::size_t>(cc.n) * cc.m * g.col_cols();
    residual.resize(out_elems);
    for (auto& v : residual) v = static_cast<float>(rng.normal(0.0, 2.0));
  }
};

/// The unfused chain, op for op as the fixed executor used to run it.
std::vector<float> unfused_conv(ConvFixture& f, const ConvCase& cc,
                                EpMode mode, int shift, int frac,
                                float beta) {
  const std::size_t kk = f.g.col_rows(), ccols = f.g.col_cols();
  const std::size_t ncols = ccols * cc.n;
  std::vector<std::int16_t> cols(kk * ncols);
  im2col_batched_i16(f.image.data(), f.g, cc.n, cols.data());
  std::vector<std::int32_t> acc(static_cast<std::size_t>(cc.m) * ncols);
  gemm_i16_tiled_pa(f.pa, cols.data(), acc.data(), static_cast<int>(ncols),
                    false);
  std::vector<float> cm(acc.size());
  of::requantize_i32(acc.data(), cm.data(), acc.size(), shift, frac);
  Tensor y({cc.n, cc.m, f.g.out_h(), f.g.out_w()});
  permute_channel_major(cm.data(), y.data(), cc.n, cc.m, ccols, true);
  if (mode != EpMode::kRequantOnly) {
    y = f.bn.forward(y);
    of::qdq_inplace(y, frac);
  }
  if (mode == EpMode::kConv1) {
    for (std::size_t i = 0; i < y.numel(); ++i) {
      if (y.data()[i] < 0.0f) y.data()[i] = 0.0f;
    }
  } else if (mode == EpMode::kEuler) {
    Tensor z(y.shape());
    std::copy(f.residual.begin(), f.residual.end(), z.data());
    z.axpy(beta, y);
    of::qdq_inplace(z, frac);
    y = z;
  } else if (mode == EpMode::kShortcut) {
    Tensor sc(y.shape());
    std::copy(f.residual.begin(), f.residual.end(), sc.data());
    y.add(sc);
    of::qdq_inplace(y, frac);
  }
  return std::vector<float>(y.data(), y.data() + y.numel());
}

std::vector<float> fused_conv(ConvFixture& f, const ConvCase& cc, EpMode mode,
                              int shift, int frac, float beta) {
  std::vector<float> scale, bias;
  f.bn.fold_eval_affine(scale, bias);
  GemmI16Epilogue ep;
  ep.round_shift = shift;
  ep.frac_bits = frac;
  if (mode != EpMode::kRequantOnly) {
    ep.scale = scale.data();
    ep.shift = bias.data();
  }
  ep.relu = mode == EpMode::kConv1;
  std::vector<float> out(f.out_elems, -7.0f);
  if (mode == EpMode::kEuler) {
    out = f.residual;  // z = qdq(z + h*t), written in place
    ep.residual = out.data();
    ep.beta = beta;
  } else if (mode == EpMode::kShortcut) {
    ep.residual = f.residual.data();
  }
  gemm_i16_lowered_ep(f.pa, f.image.data(), f.g, cc.n, out.data(), ep);
  return out;
}

}  // namespace

TEST(GemmInt16, FusedLoweredEpilogueMatchesUnfusedChainBitwise) {
  ou::Rng rng(41);
  for (const ConvCase& cc : kConvCases) {
    SCOPED_TRACE(cc.str());
    ConvFixture f(cc, rng);
    // (round_shift, frac_bits): a pass-through shift; a typical one; and a
    // BN scale large enough that qdq saturates at the Q11.20 rails.
    for (const auto& [shift, frac, gain] :
         {std::tuple{0, 20, 1.0f}, std::tuple{10, 12, 1.0f},
          std::tuple{4, 20, 3000.0f}}) {
      for (int ch = 0; ch < cc.m; ++ch) f.bn.gamma().value.at1(ch) *= gain;
      for (EpMode mode : {EpMode::kRequantOnly, EpMode::kConv1, EpMode::kEuler,
                          EpMode::kShortcut}) {
        SCOPED_TRACE("shift=" + std::to_string(shift) + " frac=" +
                     std::to_string(frac) + " mode=" +
                     std::to_string(static_cast<int>(mode)));
        const float beta = mode == EpMode::kEuler ? 0.125f : 1.0f;
        const auto want = unfused_conv(f, cc, mode, shift, frac, beta);
        for (GemmIsa isa : odenet::testing::kAllIsas) {
          if (!gemm_isa_usable(isa)) continue;
          IsaCap cap(isa);
          for (std::size_t workers : {1u, 2u, 4u}) {
            ou::ThreadPool pool(workers);
            PoolOverride ov(&pool, 1);
            const auto got = fused_conv(f, cc, mode, shift, frac, beta);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                     want.size() * sizeof(float)))
                << gemm_isa_name() << " workers=" << workers;
          }
        }
      }
      for (int ch = 0; ch < cc.m; ++ch) f.bn.gamma().value.at1(ch) /= gain;
    }
  }
}

TEST(GemmInt16, FusedEpilogueTileIsIsaBitwiseOnRailAccumulators) {
  // Accumulators at the int32 rails through every epilogue stage: the
  // AVX2 tile (integer-domain requant, float-domain Q-grid rounding) and
  // the scalar tile (int64 and double domains) agree bitwise.
  if (!gemm_isa_usable(GemmIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2+FMA kernels not usable on this host";
  }
  const int kp = 1;
  std::vector<std::int16_t> apanel(kp * kGemmTileRows * 2);
  std::vector<std::int16_t> bpanel(kp * kGemmTileCols * 2);
  const std::int16_t rails[] = {32767, -32768, -32767, 1, 0, -1, 12345};
  for (std::size_t i = 0; i < apanel.size(); ++i) apanel[i] = rails[i % 7];
  for (std::size_t i = 0; i < bpanel.size(); ++i) {
    bpanel[i] = rails[(i + 3) % 7];
  }
  const float scale4[kGemmTileRows] = {1.0f, -0.75f, 1e-3f, 2048.0f};
  const float shift4[kGemmTileRows] = {0.0f, 0.5f, -3.25f, 1.0f};
  // Residuals include the specials the Q-grid rounding must handle: NaN,
  // +-inf, magnitudes that overflow float once scaled by 2^frac, exact
  // half-step midpoints and values just inside the rails.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> residual(kGemmTileRows * kGemmTileCols);
  for (std::size_t i = 0; i < residual.size(); ++i) {
    residual[i] = static_cast<float>(i) * 37.5f - 1000.0f;
  }
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf, -inf, 1e38f, -1e38f, 2047.9999f,
                            -2048.0f, 0.5f / 4096.0f, -1.5f / 4096.0f,
                            0.49999997f / 4096.0f, -0.0f, 16777217.0f};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    residual[i * 5 % residual.size()] = specials[i];
  }
  for (int frac : {12, 20, 30}) {
    for (int shift : {0, 7, 20}) {
      for (bool relu : {false, true}) {
        std::vector<float> vec(residual.size()), sca(residual.size());
        active_gemm_kernels().tile4x16_i16_ep(
            apanel.data(), bpanel.data(), kp, vec.data(), kGemmTileCols,
            scale4, shift4, residual.data(), kGemmTileCols, shift, frac,
            relu, 0.5f);
        {
          IsaCap cap(GemmIsa::kScalar);
          active_gemm_kernels().tile4x16_i16_ep(
              apanel.data(), bpanel.data(), kp, sca.data(), kGemmTileCols,
              scale4, shift4, residual.data(), kGemmTileCols, shift, frac,
              relu, 0.5f);
        }
        EXPECT_EQ(0, std::memcmp(vec.data(), sca.data(),
                                 vec.size() * sizeof(float)))
            << "frac=" << frac << " shift=" << shift << " relu=" << relu;
      }
    }
  }
}

namespace {

/// Uniform over the whole int16 range, rails included.
std::vector<std::int16_t> full_range_i16(std::size_t n, ou::Rng& rng) {
  std::vector<std::int16_t> v(n);
  for (auto& x : v) {
    x = static_cast<std::int16_t>(static_cast<int>(rng.uniform_int(65536)) -
                                  32768);
  }
  const std::int16_t rails[] = {32767, -32768, -32767, 0};
  for (std::size_t i = 0; i < n && i < 4; ++i) v[i * 7 % n] = rails[i];
  return v;
}

}  // namespace

TEST(GemmInt16, Avx512TilesMatchAvx2OnFullInt16Range) {
  // The VNNI 16-row tiles against the AVX2 table's four madd 4x16 tiles
  // on full-range operands (lanes wrap mod 2^32; both must wrap alike),
  // plain, accumulating, and through every fixed-point epilogue stage
  // with special residuals, the residual aliasing C included.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ou::Rng rng(42);
  constexpr std::size_t ldc = 19;
  const float inf = std::numeric_limits<float>::infinity();
  for (int kp : {1, 3, 293}) {
    SCOPED_TRACE("kpairs=" + std::to_string(kp));
    const auto apanel = full_range_i16(
        static_cast<std::size_t>(kp) * kGemmGroupRows * 2, rng);
    const auto bpanel = full_range_i16(
        static_cast<std::size_t>(kp) * kGemmTileCols * 2, rng);
    std::vector<std::int32_t> init32(kGemmGroupRows * ldc);
    for (auto& v : init32) {
      v = static_cast<std::int32_t>(rng.uniform_int(1ull << 32));
    }
    for (bool accumulate : {false, true}) {
      odenet::testing::expect_avx512_matches_avx2(
          [&] {
            std::vector<std::int32_t> c = init32;
            active_gemm_kernels().tile16x16_i16(apanel.data(), bpanel.data(),
                                                kp, c.data(), ldc,
                                                accumulate);
            return c;
          },
          accumulate ? "tile16x16_i16 accumulate" : "tile16x16_i16");
    }
    std::vector<float> residual(kGemmGroupRows * ldc);
    for (auto& v : residual) v = static_cast<float>(rng.normal(0.0, 500.0));
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              inf, -inf, 1e38f, -1e38f, 2047.9999f,
                              -2048.0f, 0.5f / 4096.0f, -1.5f / 4096.0f,
                              -0.0f, 16777217.0f};
    for (std::size_t i = 0; i < std::size(specials); ++i) {
      residual[i * 13 % residual.size()] = specials[i];
    }
    std::vector<float> coeffs(2 * kGemmGroupRows);
    for (auto& v : coeffs) v = static_cast<float>(rng.normal(0.0, 40.0));
    for (int frac : {12, 20, 30}) {
      for (int shift : {0, 7, 20}) {
        for (int mask = 0; mask < 8; ++mask) {
          const bool affine = (mask & 1) != 0, relu = (mask & 2) != 0;
          const bool aliased = (mask & 4) != 0;
          odenet::testing::expect_avx512_matches_avx2(
              [&] {
                std::vector<float> c = residual;
                active_gemm_kernels().tile16x16_i16_ep(
                    apanel.data(), bpanel.data(), kp, c.data(), ldc,
                    affine ? coeffs.data() : nullptr,
                    affine ? coeffs.data() + kGemmGroupRows : nullptr,
                    aliased ? c.data() : residual.data(), ldc, shift, frac,
                    relu, 0.25f);
                return c;
              },
              "tile16x16_i16_ep frac=" + std::to_string(frac) +
                  " shift=" + std::to_string(shift) +
                  " mask=" + std::to_string(mask));
          odenet::testing::expect_avx512_matches_avx2(
              [&] {
                std::vector<float> c(residual.size(), -5.0f);
                active_gemm_kernels().tile16x16_i16_ep(
                    apanel.data(), bpanel.data(), kp, c.data(), ldc,
                    affine ? coeffs.data() : nullptr,
                    affine ? coeffs.data() + kGemmGroupRows : nullptr,
                    nullptr, ldc, shift, frac, relu, 1.0f);
                return c;
              },
              "tile16x16_i16_ep no residual");
        }
      }
    }
  }
}

TEST(GemmInt16, Avx512FusedConvMatchesAvx2Bitwise) {
  // gemm_i16_lowered_ep with m covering whole 16-row groups, a lone
  // 4-row remainder and ragged rows; stride 1 with 64-px planes (windows
  // inside one sample) and 36-px planes (windows straddling samples), and
  // stride 2; the conv1 epilogue and the in-place Euler update (residual
  // aliasing the output); 1, 2 and 4 workers on the split path.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  ou::Rng rng(43);
  for (int m : {4, 8, 12, 16, 20, 64, 100}) {
    for (ConvCase cc : {ConvCase{3, 4, 8, 8, 3, 1, 1, 0, true},
                        ConvCase{3, 3, 6, 6, 3, 1, 1, 0, false},
                        ConvCase{2, 3, 12, 12, 3, 2, 1, 0, true}}) {
      cc.m = m;
      SCOPED_TRACE(cc.str());
      ConvFixture f(cc, rng);
      for (EpMode mode : {EpMode::kConv1, EpMode::kEuler}) {
        for (std::size_t workers : {1u, 2u, 4u}) {
          ou::ThreadPool pool(workers);
          PoolOverride ov(&pool, 1);
          odenet::testing::expect_avx512_matches_avx2(
              [&] { return fused_conv(f, cc, mode, 10, 20, 0.3f); },
              "mode=" + std::to_string(static_cast<int>(mode)) +
                  " workers=" + std::to_string(workers));
        }
      }
    }
  }
}
