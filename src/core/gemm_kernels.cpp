#include "core/gemm_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "core/gemm_tile_stack.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

// Defined in gemm_kernels_avx2.cpp — the only translation unit compiled
// with -mavx2 -mfma. Returns nullptr when that TU was built without AVX2
// codegen (non-x86, -mno-avx2, or -DODENET_DISABLE_AVX2=ON).
const GemmKernels* gemm_avx2_kernels_impl();
// Defined in gemm_kernels_avx512.cpp: a table holding only the four
// 16-row AVX-512 tiles (and the isa name), or nullptr when that TU was
// built without AVX-512 codegen. Returning a constant table runs no
// AVX-512 instruction, so this is safe to call on any host.
const GemmKernels* gemm_avx512_tiles_impl();

namespace {

/// Scalar full-tile kernel: the exact loop nest (and therefore the exact
/// float summation order) of the pre-dispatch gemm_tiled full-tile path,
/// reading A from the packed [k][4] panel instead of a strided matrix.
void tile4x16_scalar(const float* apanel, const float* bpanel, int k,
                     float* c, std::size_t ldc, bool accumulate) {
  float acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) {
      acc[i][j] = accumulate ? c[i * ldc + j] : 0.0f;
    }
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const float a0 = apanel[p * kGemmTileRows + 0];
    const float a1 = apanel[p * kGemmTileRows + 1];
    const float a2 = apanel[p * kGemmTileRows + 2];
    const float a3 = apanel[p * kGemmTileRows + 3];
    for (int j = 0; j < kGemmTileCols; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    float* crow = c + i * ldc;
    for (int j = 0; j < kGemmTileCols; ++j) crow[j] = acc[i][j];
  }
}

/// Full-tile kernel with fused epilogue: the accumulation loop is the
/// byte-for-byte twin of tile4x16_scalar (never accumulating — an epilogue
/// store always overwrites), then every element runs the fixed epilogue
/// chain before its single store. The chain's op order (affine, relu,
/// residual) is mirrored in the AVX2 twin; keeping both identical is what
/// makes fused output bitwise equal to GEMM + elementwise kernels on
/// either ISA.
void tile4x16_ep_scalar(const float* apanel, const float* bpanel, int k,
                        float* c, std::size_t ldc, const float* scale4,
                        const float* shift4, bool relu, const float* residual,
                        std::size_t ldr, float beta) {
  float acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) acc[i][j] = 0.0f;
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = bpanel + static_cast<std::size_t>(p) * kGemmTileCols;
    const float a0 = apanel[p * kGemmTileRows + 0];
    const float a1 = apanel[p * kGemmTileRows + 1];
    const float a2 = apanel[p * kGemmTileRows + 2];
    const float a3 = apanel[p * kGemmTileRows + 3];
    for (int j = 0; j < kGemmTileCols; ++j) {
      const float bv = brow[j];
      acc[0][j] += a0 * bv;
      acc[1][j] += a1 * bv;
      acc[2][j] += a2 * bv;
      acc[3][j] += a3 * bv;
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    float* crow = c + i * ldc;
    const float* rrow =
        residual != nullptr ? residual + static_cast<std::size_t>(i) * ldr
                            : nullptr;
    const float s = scale4 != nullptr ? scale4[i] : 0.0f;
    const float b = shift4 != nullptr ? shift4[i] : 0.0f;
    for (int j = 0; j < kGemmTileCols; ++j) {
      float t = acc[i][j];
      if (scale4 != nullptr) t = t * s;
      if (shift4 != nullptr) t = t + b;
      if (relu) t = t > 0.0f ? t : 0.0f;
      if (rrow != nullptr) t = t + beta * rrow[j];
      crow[j] = t;
    }
  }
}

/// Scalar integer full-tile kernel over the pair-interleaved int16 panels.
/// Accumulates in uint32 so the (impossible under the fixed backend's
/// overflow envelope, but reachable with adversarial operands) wraparound
/// is defined behaviour and bitwise identical to `_mm256_madd_epi16` +
/// `_mm256_add_epi32`. The int16*int16 products themselves always fit in
/// int (|p| <= 2^30), so the multiplies are UB-free.
void tile4x16_i16_scalar(const std::int16_t* apanel,
                         const std::int16_t* bpanel, int kpairs,
                         std::int32_t* c, std::size_t ldc, bool accumulate) {
  std::uint32_t acc[kGemmTileRows][kGemmTileCols];
  for (int i = 0; i < kGemmTileRows; ++i) {
    for (int j = 0; j < kGemmTileCols; ++j) {
      acc[i][j] =
          accumulate ? static_cast<std::uint32_t>(c[i * ldc + j]) : 0u;
    }
  }
  for (int p = 0; p < kpairs; ++p) {
    const std::int16_t* ap = apanel + static_cast<std::size_t>(p) * 8;
    const std::int16_t* bp = bpanel + static_cast<std::size_t>(p) * 32;
    for (int i = 0; i < kGemmTileRows; ++i) {
      const int a0 = ap[i * 2 + 0];
      const int a1 = ap[i * 2 + 1];
      for (int j = 0; j < kGemmTileCols; ++j) {
        // The madd dot-pair: both products summed in one 32-bit lane.
        acc[i][j] += static_cast<std::uint32_t>(a0 * bp[j * 2 + 0]) +
                     static_cast<std::uint32_t>(a1 * bp[j * 2 + 1]);
      }
    }
  }
  for (int i = 0; i < kGemmTileRows; ++i) {
    std::int32_t* crow = c + i * ldc;
    for (int j = 0; j < kGemmTileCols; ++j) {
      crow[j] = static_cast<std::int32_t>(acc[i][j]);
    }
  }
}

/// Scalar direct 3x3 conv tile over the zero-padded plane stack. Products
/// are exact in int64 (|a*w| <= 2^62); the running sums are uint64, so
/// wraparound is defined and matches `_mm256_mul_epi32` +
/// `_mm256_add_epi64` lane for lane.
void conv3x3_i32_scalar(const std::int32_t* wpanel, const std::int32_t* in,
                        int channels, std::size_t plane_stride,
                        std::size_t row_stride, std::int64_t* acc) {
  std::uint64_t sum[kConvTileOut][kConvTilePos] = {};
  for (int tap = 0; tap < 9; ++tap) {
    const std::int32_t* x = in + (tap / 3) * row_stride + tap % 3;
    const std::int32_t* wt =
        wpanel + static_cast<std::size_t>(tap) * channels * kConvTileOut;
    for (int c = 0; c < channels; ++c) {
      for (int i = 0; i < kConvTileOut; ++i) {
        const std::int64_t wi = wt[i];
        for (int j = 0; j < kConvTilePos; ++j) {
          sum[i][j] += static_cast<std::uint64_t>(wi * x[j]);
        }
      }
      x += plane_stride;
      wt += kConvTileOut;
    }
  }
  for (int i = 0; i < kConvTileOut; ++i) {
    for (int j = 0; j < kConvTilePos; ++j) {
      acc[i * kConvTilePos + j] = static_cast<std::int64_t>(sum[i][j]);
    }
  }
}

/// One float through the saturating Q(frac_bits) rounding used by every
/// quantize kernel: NaN -> 0, round half away from zero, clamp in the
/// DOUBLE domain (casting an out-of-range double to an integer is UB, so
/// the bound comparison happens before any integer conversion). Returns
/// the integral raw value as a double; +0.0 normalized so the scalar and
/// AVX2 kernels agree bitwise on negatives that round to zero.
inline double quantize_raw_double(float v, double one, double lo, double hi) {
  const double scaled = static_cast<double>(v) * one;
  if (scaled != scaled) return 0.0;  // NaN
  double r = std::trunc(scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5);
  if (r > hi) r = hi;
  if (r < lo) r = lo;
  return r + 0.0;  // -0.0 -> +0.0
}

void qdq_f32_scalar(float* data, std::size_t n, int frac_bits) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  const double inv = 1.0 / one;
  constexpr double hi = 2147483647.0;   // int32 max, exactly representable
  constexpr double lo = -2147483648.0;  // int32 min
  for (std::size_t i = 0; i < n; ++i) {
    data[i] =
        static_cast<float>(quantize_raw_double(data[i], one, lo, hi) * inv);
  }
}

void quant_f32_i16_scalar(const float* src, std::int16_t* dst, std::size_t n,
                          int frac_bits) {
  const double one = static_cast<double>(std::int64_t{1} << frac_bits);
  constexpr double hi = 32767.0;
  constexpr double lo = -32768.0;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] =
        static_cast<std::int16_t>(quantize_raw_double(src[i], one, lo, hi));
  }
}

void requant_i32_scalar(const std::int32_t* acc, float* dst, std::size_t n,
                        int shift, int frac_bits) {
  const double inv =
      1.0 / static_cast<double>(std::int64_t{1} << frac_bits);
  if (shift == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<float>(static_cast<double>(acc[i]) * inv);
    }
    return;
  }
  // Round half away from zero — the Fixed::operator* post-multiply
  // rounding stage, applied once per accumulator instead of once per MAC.
  const std::int64_t half = std::int64_t{1} << (shift - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = acc[i];
    const std::int64_t r =
        a >= 0 ? (a + half) >> shift : -((-a + half) >> shift);
    // r * 2^-f is exact in double (|r| < 2^31), so the only float
    // rounding is the final narrowing — the value lands on the Q grid.
    dst[i] = static_cast<float>(static_cast<double>(r) * inv);
  }
}

float max_abs_f32_scalar(const float* src, std::size_t n) {
  // Four independent accumulators break the dependence chain; exact max
  // makes the regrouping bitwise-neutral.
  float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, std::fabs(src[i]));
    m1 = std::max(m1, std::fabs(src[i + 1]));
    m2 = std::max(m2, std::fabs(src[i + 2]));
    m3 = std::max(m3, std::fabs(src[i + 3]));
  }
  for (; i < n; ++i) m0 = std::max(m0, std::fabs(src[i]));
  return std::max(std::max(m0, m1), std::max(m2, m3));
}

// Scalar elementwise family — the epilogue ops as streaming passes. Each
// op is a single mul/add/compare per element (no contraction possible at
// the baseline ISA), so the AVX2 twins, built with -ffp-contract=off and
// the same two-op sequences, are bitwise identical.

void relu_f32_scalar(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float t = src[i];
    dst[i] = t > 0.0f ? t : 0.0f;  // NaN -> 0, -0.0 -> +0.0
  }
}

void axpy_f32_scalar(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void mul_f32_scalar(const float* a, const float* b, float* dst,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
}

void scale_f32_scalar(float* x, std::size_t n, float a) {
  for (std::size_t i = 0; i < n; ++i) x[i] = x[i] * a;
}

void affine_f32_scalar(const float* src, float* dst, std::size_t n,
                       float scale, float shift) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] * scale + shift;
}

/// Integer tile with the fused fixed-point epilogue, composed from the
/// scalar standalone kernels themselves — requant, per-row affine, qdq,
/// ReLU, axpy onto the residual, qdq — so it is the unfused chain by
/// construction; the AVX2 twin matches it bitwise.
void tile4x16_i16_ep_scalar(const std::int16_t* apanel,
                            const std::int16_t* bpanel, int kpairs, float* c,
                            std::size_t ldc, const float* scale4,
                            const float* shift4, const float* residual,
                            std::size_t ldr, int round_shift, int frac_bits,
                            bool relu, float beta) {
  constexpr int kTile = kGemmTileRows * kGemmTileCols;
  std::int32_t acc[kTile];
  tile4x16_i16_scalar(apanel, bpanel, kpairs, acc, kGemmTileCols, false);
  float t[kTile];
  requant_i32_scalar(acc, t, kTile, round_shift, frac_bits);
  if (scale4 != nullptr) {
    for (int i = 0; i < kGemmTileRows; ++i) {
      float* row = t + i * kGemmTileCols;
      affine_f32_scalar(row, row, kGemmTileCols, scale4[i], shift4[i]);
    }
  }
  qdq_f32_scalar(t, kTile, frac_bits);
  if (relu) relu_f32_scalar(t, t, kTile);
  for (int i = 0; i < kGemmTileRows; ++i) {
    float* row = t + i * kGemmTileCols;
    if (residual != nullptr) {
      // row = qdq(residual + beta * row), through a copy: residual may
      // alias c.
      float r[kGemmTileCols];
      std::copy_n(residual + static_cast<std::size_t>(i) * ldr, kGemmTileCols,
                  r);
      axpy_f32_scalar(beta, row, r, kGemmTileCols);
      qdq_f32_scalar(r, kGemmTileCols, frac_bits);
      std::copy_n(r, kGemmTileCols, row);
    }
    std::copy_n(row, kGemmTileCols, c + i * ldc);
  }
}

constexpr GemmKernels kScalarKernels{tile4x16_scalar, tile4x16_i16_scalar,
                                     tile4x16_i16_ep_scalar,
                                     detail::stack_tile<tile4x16_scalar>,
                                     detail::stack_tile_ep<tile4x16_ep_scalar>,
                                     detail::stack_tile_i16<
                                         tile4x16_i16_scalar>,
                                     detail::stack_tile_i16_ep<
                                         tile4x16_i16_ep_scalar>,
                                     conv3x3_i32_scalar, qdq_f32_scalar,
                                     quant_f32_i16_scalar, requant_i32_scalar,
                                     max_abs_f32_scalar, tile4x16_ep_scalar,
                                     relu_f32_scalar, axpy_f32_scalar,
                                     mul_f32_scalar, scale_f32_scalar,
                                     affine_f32_scalar, "scalar"};

bool cpu_supports_avx2_fma() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

/// The highest tier env ODENET_SIMD permits: 0|off|OFF|scalar -> scalar,
/// avx2|AVX2 -> AVX2, unset or anything else -> no cap.
GemmIsa env_isa_cap() {
  const char* e = std::getenv("ODENET_SIMD");
  if (e == nullptr) return GemmIsa::kAvx512;
  if (std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
      std::strcmp(e, "OFF") == 0 || std::strcmp(e, "scalar") == 0) {
    return GemmIsa::kScalar;
  }
  if (std::strcmp(e, "avx2") == 0 || std::strcmp(e, "AVX2") == 0) {
    return GemmIsa::kAvx2;
  }
  return GemmIsa::kAvx512;
}

/// The highest usable tier, decided once: compiled in, supported by the
/// CPU (AVX-512 builds on the AVX2 table, so it needs both), and within
/// the env cap.
GemmIsa best_usable_isa() {
  static const GemmIsa best = [] {
    const GemmIsa cap = env_isa_cap();
    if (gemm_avx2_kernels_impl() == nullptr || !cpu_supports_avx2_fma() ||
        cap == GemmIsa::kScalar) {
      return GemmIsa::kScalar;
    }
    if (gemm_avx512_tiles_impl() == nullptr || !cpu_supports_avx512() ||
        cap == GemmIsa::kAvx2) {
      return GemmIsa::kAvx2;
    }
    return GemmIsa::kAvx512;
  }();
  return best;
}

/// The AVX2 table with the AVX-512 16-row tiles swapped in. Built on
/// first use, which best_usable_isa() gates on CPU support.
const GemmKernels& avx512_kernels() {
  static const GemmKernels table = [] {
    GemmKernels k = *gemm_avx2_kernels_impl();
    const GemmKernels& wide = *gemm_avx512_tiles_impl();
    k.tile16x16 = wide.tile16x16;
    k.tile16x16_ep = wide.tile16x16_ep;
    k.tile16x16_i16 = wide.tile16x16_i16;
    k.tile16x16_i16_ep = wide.tile16x16_i16_ep;
    k.isa = wide.isa;
    return k;
  }();
  return table;
}

bool env_disables_fused_epilogues() {
  const char* e = std::getenv("ODENET_FUSED_EPILOGUE");
  if (e == nullptr) return false;
  return std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
         std::strcmp(e, "OFF") == 0;
}

std::atomic<GemmIsa> g_isa_cap{GemmIsa::kAvx512};
// -1 = unset (follow the env default), 0 = off, 1 = on.
std::atomic<int> g_fused_epilogues{-1};
std::atomic<std::size_t> g_min_flops_override{0};
std::atomic<util::ThreadPool*> g_kernel_pool{nullptr};

std::size_t default_min_flops() {
  static const std::size_t value = [] {
    if (const char* e = std::getenv("ODENET_GEMM_PAR_FLOPS")) {
      const long long v = std::strtoll(e, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{1} << 20;  // ~1M flops: under ~0.5 ms of work
  }();
  return value;
}

}  // namespace

bool gemm_isa_usable(GemmIsa isa) { return isa <= best_usable_isa(); }

GemmIsa gemm_cap_isa(GemmIsa cap) {
  return g_isa_cap.exchange(cap, std::memory_order_relaxed);
}

void set_fused_epilogues(bool enabled) {
  g_fused_epilogues.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool fused_epilogues_enabled() {
  const int v = g_fused_epilogues.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  static const bool env_default = !env_disables_fused_epilogues();
  return env_default;
}

const GemmKernels& active_gemm_kernels() {
  switch (std::min(best_usable_isa(),
                   g_isa_cap.load(std::memory_order_relaxed))) {
    case GemmIsa::kAvx512:
      return avx512_kernels();
    case GemmIsa::kAvx2:
      return *gemm_avx2_kernels_impl();
    case GemmIsa::kScalar:
      break;
  }
  return kScalarKernels;
}

const char* gemm_isa_name() { return active_gemm_kernels().isa; }

std::size_t gemm_parallel_min_flops() {
  const std::size_t v = g_min_flops_override.load(std::memory_order_relaxed);
  return v != 0 ? v : default_min_flops();
}

void gemm_set_parallel_min_flops(std::size_t flops) {
  g_min_flops_override.store(flops, std::memory_order_relaxed);
}

void set_kernel_pool(util::ThreadPool* pool) {
  g_kernel_pool.store(pool, std::memory_order_release);
}

util::ThreadPool& kernel_pool() {
  util::ThreadPool* pool = g_kernel_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : util::ThreadPool::global();
}

}  // namespace odenet::core
