// AVX-512 16x16 register tiles — the only translation unit built with
// -mavx512f -mavx512bw -mavx512vl -mavx512vnni -mfma (CMake sets
// per-source flags, behind the same ODENET_DISABLE_AVX2 switch as the
// AVX2 TU). It provides just the four 16-row table entries; every other
// kernel of the AVX-512 tier is the AVX2 one (gemm_kernels.cpp merges the
// tables). When the flags are absent this file compiles to a stub that
// reports "no AVX-512 tiles".
//
// Bitwise contract: each output element is computed exactly as the AVX2
// 4x16 tile computes it — the same ascending-k FMA chain from the same
// start value (float), the same wraparound int32 sum (int16: vpdpwssd
// adds both products of a k-pair mod 2^32, as madd + add do), and the
// same epilogue operations in the same order (separate mul and add; this
// TU is built with -ffp-contract=off). Only the register shape differs:
// one zmm per output row, 16 rows sharing each B row load.
#include "core/gemm_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && \
    defined(__AVX512VL__) && defined(__AVX512VNNI__) && defined(__FMA__)

// GCC 12's AVX-512 headers seed the unused source operand of unmasked
// intrinsics (_mm512_abs_epi32, _mm512_max_ps, ...) from a self-initialized
// "undefined" vector, which -Wuninitialized reports at every inlined use
// (GCC bug 105593, fixed in GCC 13). Silence exactly those two warnings
// for this TU's intrinsics.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>

#include <cstring>

namespace odenet::core {
namespace {

constexpr int kRows = kGemmGroupRows;

/// The float k loop: acc[r] (r = 4q + i) gathers A panel q's row i, the
/// panels k*4 floats apart; each [16] B row is one zmm reused 16 times.
__attribute__((always_inline)) inline void f32_accumulate(
    const float* apanel, const float* bpanel, int k, __m512 (&acc)[kRows]) {
  const std::size_t astride = static_cast<std::size_t>(k) * kGemmTileRows;
  for (int p = 0; p < k; ++p) {
    const __m512 b =
        _mm512_loadu_ps(bpanel + static_cast<std::size_t>(p) * kGemmTileCols);
    const float* a = apanel + static_cast<std::size_t>(p) * kGemmTileRows;
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm512_fmadd_ps(
          _mm512_set1_ps(a[(r / kGemmTileRows) * astride + r % kGemmTileRows]),
          b, acc[r]);
    }
  }
}

void tile16x16_avx512(const float* apanel, const float* bpanel, int k,
                      float* c, std::size_t ldc, bool accumulate) {
  __m512 acc[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    acc[r] = accumulate ? _mm512_loadu_ps(c + r * ldc) : _mm512_setzero_ps();
  }
  f32_accumulate(apanel, bpanel, k, acc);
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) _mm512_storeu_ps(c + r * ldc, acc[r]);
}

/// Fused-epilogue twin of tile4x16_ep_avx2: the same per-row chain —
/// affine (separate mul, add), relu as max(t, 0) with the value first
/// (NaN -> 0, -0.0 -> +0.0), t + beta * residual — one zmm per row.
void tile16x16_ep_avx512(const float* apanel, const float* bpanel, int k,
                         float* c, std::size_t ldc, const float* scale,
                         const float* shift, bool relu, const float* residual,
                         std::size_t ldr, float beta) {
  __m512 acc[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_ps();
  f32_accumulate(apanel, bpanel, k, acc);
  const __m512 zero = _mm512_setzero_ps();
  const __m512 beta_v = _mm512_set1_ps(beta);
  for (int r = 0; r < kRows; ++r) {
    __m512 t = acc[r];
    if (scale != nullptr) t = _mm512_mul_ps(t, _mm512_set1_ps(scale[r]));
    if (shift != nullptr) t = _mm512_add_ps(t, _mm512_set1_ps(shift[r]));
    if (relu) t = _mm512_max_ps(t, zero);
    if (residual != nullptr) {
      t = _mm512_add_ps(
          t, _mm512_mul_ps(beta_v, _mm512_loadu_ps(residual + r * ldr)));
    }
    _mm512_storeu_ps(c + r * ldc, t);
  }
}

/// The int16 k loop: per k-pair one [16][2] B row (32 int16, one zmm,
/// dword lane j = column j's pair) against row r's broadcast A pair,
/// vpdpwssd-accumulated with wraparound into acc[r]. The A panels sit
/// kpairs*8 int16 apart.
__attribute__((always_inline)) inline void i16_accumulate(
    const std::int16_t* apanel, const std::int16_t* bpanel, int kpairs,
    __m512i (&acc)[kRows]) {
  const std::size_t astride =
      static_cast<std::size_t>(kpairs) * kGemmTileRows * 2;
  for (int p = 0; p < kpairs; ++p) {
    const __m512i b = _mm512_loadu_si512(bpanel + static_cast<std::size_t>(p) *
                                                      kGemmTileCols * 2);
    const std::int16_t* a = apanel + static_cast<std::size_t>(p) * 8;
#pragma GCC unroll 16
    for (int r = 0; r < kRows; ++r) {
      std::int32_t pair;
      std::memcpy(&pair,
                  a + (r / kGemmTileRows) * astride + (r % kGemmTileRows) * 2,
                  sizeof(pair));
      acc[r] = _mm512_dpwssd_epi32(acc[r], _mm512_set1_epi32(pair), b);
    }
  }
}

void tile16x16_i16_avx512(const std::int16_t* apanel,
                          const std::int16_t* bpanel, int kpairs,
                          std::int32_t* c, std::size_t ldc, bool accumulate) {
  __m512i acc[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) {
    acc[r] = accumulate ? _mm512_loadu_si512(c + r * ldc)
                        : _mm512_setzero_si512();
  }
  i16_accumulate(apanel, bpanel, kpairs, acc);
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) _mm512_storeu_si512(c + r * ldc, acc[r]);
}

/// requant8 of the AVX2 TU on 16 lanes: sign(a) * ((|a| + half) >>
/// shift) in uint32, then * 2^-frac. AVX-512 has no vpsignd, so the
/// negation is a masked 0 - mag; where a == 0, mag is already 0 (half <
/// 2^shift), matching vpsignd's zeroing.
inline __m512 requant16(__m512i a, __m512i half, __m128i shift,
                        __m512 inv_frac) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mag = _mm512_srl_epi32(
      _mm512_add_epi32(_mm512_abs_epi32(a), half), shift);
  const __m512i r = _mm512_mask_sub_epi32(
      mag, _mm512_cmplt_epi32_mask(a, zero), zero, mag);
  return _mm512_mul_ps(_mm512_cvtepi32_ps(r), inv_frac);
}

/// qdq8 of the AVX2 TU on 16 lanes, step for step: trunc, exact
/// remainder, +-1 where |remainder| >= 0.5 (else +0.0), clamp to
/// [-2^31, 2^31], NaN -> 0, + 0.0, * 2^-frac. The AVX2 and/or/andnot
/// bit operations become integer ops and zeroing masks.
inline __m512 qdq16(__m512 t, __m512 one, __m512 inv) {
  const __m512i sign_mask = _mm512_set1_epi32(INT32_MIN);
  const __m512 s = _mm512_mul_ps(t, one);
  const __m512 whole =
      _mm512_roundscale_ps(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512 frac = _mm512_abs_ps(_mm512_sub_ps(s, whole));
  const __m512 unit = _mm512_castsi512_ps(_mm512_or_si512(
      _mm512_and_si512(_mm512_castps_si512(s), sign_mask),
      _mm512_castps_si512(_mm512_set1_ps(1.0f))));
  const __m512 step = _mm512_maskz_mov_ps(
      _mm512_cmp_ps_mask(frac, _mm512_set1_ps(0.5f), _CMP_GE_OQ), unit);
  __m512 r = _mm512_add_ps(whole, step);
  r = _mm512_max_ps(r, _mm512_set1_ps(-2147483648.0f));
  r = _mm512_min_ps(r, _mm512_set1_ps(2147483648.0f));
  r = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(s, s, _CMP_ORD_Q), r);
  return _mm512_mul_ps(_mm512_add_ps(r, _mm512_setzero_ps()), inv);
}

/// Integer tile with the fused fixed-point epilogue: i16_accumulate, then
/// per row tile4x16_i16_ep_avx2's chain — requant, affine, qdq, ReLU,
/// qdq(residual + beta * t).
void tile16x16_i16_ep_avx512(const std::int16_t* apanel,
                             const std::int16_t* bpanel, int kpairs, float* c,
                             std::size_t ldc, const float* scale,
                             const float* shift, const float* residual,
                             std::size_t ldr, int round_shift, int frac_bits,
                             bool relu, float beta) {
  __m512i acc[kRows];
#pragma GCC unroll 16
  for (int r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_si512();
  i16_accumulate(apanel, bpanel, kpairs, acc);
  const __m512i half = _mm512_set1_epi32(
      round_shift > 0 ? std::int32_t{1} << (round_shift - 1) : 0);
  const __m128i shift_count = _mm_cvtsi32_si128(round_shift);
  const float one_f = static_cast<float>(std::int64_t{1} << frac_bits);
  const __m512 one = _mm512_set1_ps(one_f);
  const __m512 inv = _mm512_set1_ps(1.0f / one_f);
  const __m512 zero = _mm512_setzero_ps();
  const __m512 beta_v = _mm512_set1_ps(beta);
  for (int r = 0; r < kRows; ++r) {
    __m512 t = requant16(acc[r], half, shift_count, inv);
    if (scale != nullptr) {
      t = _mm512_mul_ps(t, _mm512_set1_ps(scale[r]));
      t = _mm512_add_ps(t, _mm512_set1_ps(shift[r]));
    }
    t = qdq16(t, one, inv);
    if (relu) t = _mm512_max_ps(t, zero);
    if (residual != nullptr) {
      t = qdq16(_mm512_add_ps(_mm512_loadu_ps(residual + r * ldr),
                              _mm512_mul_ps(beta_v, t)),
                one, inv);
    }
    _mm512_storeu_ps(c + r * ldc, t);
  }
}

// Only the 16-row entries are set; gemm_kernels.cpp takes the rest from
// the AVX2 table.
constexpr GemmKernels kAvx512Tiles{
    nullptr,          nullptr,
    nullptr,
    tile16x16_avx512, tile16x16_ep_avx512,
    tile16x16_i16_avx512, tile16x16_i16_ep_avx512,
    nullptr,          nullptr,
    nullptr,          nullptr,
    nullptr,          nullptr,
    nullptr,          nullptr,
    nullptr,          nullptr,
    nullptr,          "avx512"};

}  // namespace

const GemmKernels* gemm_avx512_tiles_impl() { return &kAvx512Tiles; }

}  // namespace odenet::core

#else

namespace odenet::core {

const GemmKernels* gemm_avx512_tiles_impl() { return nullptr; }

}  // namespace odenet::core

#endif
