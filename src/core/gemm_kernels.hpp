// GEMM micro-kernel dispatch: one kernel table per instruction-set tier —
// scalar, AVX2/FMA and (on x86 hosts that have them) AVX-512 with VNNI —
// holding the inner kernels every tiled GEMM in im2col.cpp is built from,
// selected at runtime.
//
// Every kernel operates on PACKED panels (PackedGemmA/PackedGemmB and
// their int16 twins in im2col.hpp, all written by one panel packer) so all
// tiers share one data layout and one outer loop nest, the run_tiles
// driver; only the innermost arithmetic differs. The scalar kernels are the
// portable fallback — non-x86 targets, -mno-avx2 builds (cmake
// -DODENET_DISABLE_AVX2=ON skips the SIMD translation units entirely) and
// hosts without AVX2/FMA all run them, producing the same ascending-k
// summation order as the pre-SIMD code. The AVX-512 tier is the AVX2
// table with its four 16-row register tiles swapped in; every output
// element keeps the AVX2 tile's FMA chain (or int32 wraparound sum) and
// epilogue op sequence, so the two tiers are bitwise equal.
//
// Knobs:
//  * env ODENET_SIMD=0|off|scalar — disable the vector kernels at startup;
//    ODENET_SIMD=avx2 — cap dispatch at the AVX2 tier;
//  * gemm_cap_isa(GemmIsa) — per-process cap for benches/tests (A/B rows,
//    ISA-parity suites);
//  * env ODENET_GEMM_PAR_FLOPS / gemm_set_parallel_min_flops() — the flop
//    count below which a GEMM runs sequentially instead of fanning out on
//    the thread pool (small batches stay on the calling thread);
//  * set_kernel_pool() — substitute the pool the lowering/GEMM kernels
//    fan out on (nullptr = the global pool); used by the thread-count
//    invariance tests and the bench's thread-scaling rows.
#pragma once

#include <cstddef>
#include <cstdint>

namespace odenet::util {
class ThreadPool;
}

namespace odenet::core {

/// Micro-kernel geometry shared by every tiled GEMM: MR rows of A against
/// an NR-wide column strip of B, the MR x NR output tile held in registers
/// across the whole k loop. 4 x 16 floats = 8 AVX ymm accumulators (or 16
/// SSE xmm) — small enough to stay resident, big enough that each loaded
/// B row is reused MR times.
inline constexpr int kGemmTileRows = 4;
inline constexpr int kGemmTileCols = 16;
/// The 16-row register tiles (the tile16x16* table entries) cover four
/// consecutive packed 4-row A panels — the conv_x16 engine's 16 output
/// channels in lockstep. The panels sit a fixed k*4 floats (kpairs*8
/// int16) apart, so a 16-row entry takes the first panel's pointer and the
/// GemmTile* signature of its 4-row twin; per-row coefficients and the
/// residual / C windows then span 16 rows.
inline constexpr int kGemmGroupTiles = 4;
inline constexpr int kGemmGroupRows = kGemmTileRows * kGemmGroupTiles;

/// Full-tile micro-kernel: C[4][16] (+)= sum_p Apanel[p][4] * Bpanel[p][16].
/// `apanel` is a packed [k][4] row panel, `bpanel` a packed [k][16] column
/// panel (both contiguous); C is row-major with leading dimension `ldc`.
using GemmTile4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                int k, float* c, std::size_t ldc,
                                bool accumulate);

/// Integer full-tile micro-kernel: C[4][16] (+)= A16 * B16 with int16
/// operands accumulated into int32. k is processed in PAIRS (the
/// `_mm256_madd_epi16` dot-pair shape): `apanel` is a packed
/// [kpairs][4][2] row panel, `bpanel` a packed [kpairs][16][2] column
/// panel (see PackedGemmA16 / PackedGemmB16 in im2col.hpp), both
/// pair-interleaved and zero-padded to an even k. Accumulation is two's-
/// complement wraparound (never saturating, never UB): integer addition is
/// associative mod 2^32, so every ISA, k-order and thread split produces
/// bitwise-identical C. Callers get *mathematically* exact sums by
/// bounding |sum| < 2^31 — the fixed backend's per-conv weight-scale
/// selection guarantees it.
using GemmTileI16Fn = void (*)(const std::int16_t* apanel,
                               const std::int16_t* bpanel, int kpairs,
                               std::int32_t* c, std::size_t ldc,
                               bool accumulate);

/// Integer full-tile micro-kernel with the fixed backend's fused conv
/// EPILOGUE: the tile4x16_i16 accumulation (never accumulating onto C),
/// then — while the int32 tile is still in registers — every element runs
/// this chain before its single float store into C (leading dimension
/// ldc), all on the Q(frac_bits) grid:
///   t = requant(acc, round_shift)       (RequantI32Fn's rounding shift)
///   t = t * scale4[i] + shift4[i]       (when scale4; separate mul + add)
///   t = qdq(t)                          (QdqF32Fn's round trip)
///   t = max(t, 0)                       (when relu)
///   t = qdq(residual[i*ldr+j] + beta*t) (when residual != nullptr)
/// scale4/shift4 are this tile's 4 per-row coefficients (set together or
/// both null); residual points at the tile's own window and may alias c
/// (each element is read before its store). Every step is the standalone
/// kernel's exact operation sequence, so the tile is bitwise identical to
/// requantize -> BN affine -> qdq -> ReLU -> axpy -> qdq run as passes, on
/// either ISA.
using GemmTileI16Ep4x16Fn = void (*)(const std::int16_t* apanel,
                                     const std::int16_t* bpanel, int kpairs,
                                     float* c, std::size_t ldc,
                                     const float* scale4, const float* shift4,
                                     const float* residual, std::size_t ldr,
                                     int round_shift, int frac_bits,
                                     bool relu, float beta);

/// Direct 3x3 conv tile of the FPGA-sim PL conv engine: 4 output channels
/// x 8 consecutive output positions of one row, int32 x int32 -> int64,
/// reduced over `channels` input planes and the 9 taps:
///   acc[i*8 + j] = sum_{c, kh, kw}
///       wpanel[((kh*3 + kw)*channels + c)*4 + i] *
///       in[c*plane_stride + kh*row_stride + kw + j]
/// `in` points at the top-left tap of position 0 inside a zero-padded
/// plane stack, `wpanel` at one packed [9][channels][4] output-channel
/// panel. Reads may run up to 8 int32 past the last tap (callers pad the
/// stack's tail). The sum is two's-complement wraparound mod 2^64 (never
/// UB): integer addition is associative mod 2^64, so every ISA and tile
/// order gives bitwise-identical acc, equal to the exact sum whenever that
/// fits int64.
inline constexpr int kConvTileOut = 4;
inline constexpr int kConvTilePos = 8;
using Conv3x3TileI32Fn = void (*)(const std::int32_t* wpanel,
                                  const std::int32_t* in, int channels,
                                  std::size_t plane_stride,
                                  std::size_t row_stride, std::int64_t* acc);

/// Saturating Q(frac_bits) quantize/dequantize round trip over a float
/// span, elementwise — fixed::qdq_inplace's inner loop, lifted into the
/// kernel table so the SIMD TU can vectorize it. Bitwise identical to
/// fixed::qdq_value per element (NaN -> 0, round half away from zero,
/// clamp in the double domain).
using QdqF32Fn = void (*)(float* data, std::size_t n, int frac_bits);

/// Saturating quantize of a float span to int16 raw values at
/// Q(frac_bits) — the activation-side entry into the integer GEMM. Same
/// rounding/NaN/saturation semantics as QdqF32Fn, bounds ±int16.
using QuantF32ToI16Fn = void (*)(const float* src, std::int16_t* dst,
                                 std::size_t n, int frac_bits);

/// Largest |src[i]| over n floats (0 for n == 0). NaNs propagate as "not
/// larger", inf is returned as-is; exact max is associative, so any chunk
/// split or ISA gives the identical result.
using MaxAbsF32Fn = float (*)(const float* src, std::size_t n);

/// Int32 accumulators -> float Q(frac_bits) values via one rounding shift:
/// dst[i] = ((acc[i] +- half) >> shift) * 2^-frac_bits with round half
/// away from zero (Fixed::operator* semantics). All carriers are exact in
/// double, so every ISA variant is bitwise identical to the int64 scalar.
using RequantI32Fn = void (*)(const std::int32_t* acc, float* dst,
                              std::size_t n, int shift, int frac_bits);

/// Full-tile micro-kernel with a fused EPILOGUE: the 4x16 accumulator tile
/// is lowered exactly like GemmTile4x16Fn, then — while still in registers
/// — transformed per element in this fixed order before the single store:
///   t = acc * scale4[i] + shift4[i]   (skipped per-part when null)
///   t = max(t, 0)                     (when relu; NaN -> 0, -0 -> +0)
///   t = t + beta * residual[i*ldr+j]  (when residual != nullptr)
/// scale4/shift4 are the 4 per-row (out-channel) coefficients of THIS
/// tile; residual points at the tile's own 4x16 window (leading dimension
/// ldr) and may alias c — each element is read before its store, and a
/// tile only touches its own window, so in-place residual accumulation
/// (z += h*f(z)) is safe under any thread split.
///
/// Bitwise contract: the epilogue arithmetic uses NO fused multiply-add in
/// either ISA variant (the AVX2 TU is built with -ffp-contract=off), so
/// fused-epilogue output is bitwise identical to running the plain GEMM
/// followed by the elementwise kernels below, on either ISA.
using GemmTileEp4x16Fn = void (*)(const float* apanel, const float* bpanel,
                                  int k, float* c, std::size_t ldc,
                                  const float* scale4, const float* shift4,
                                  bool relu, const float* residual,
                                  std::size_t ldr, float beta);

/// Standalone SIMD elementwise kernels — the epilogue ops as streaming
/// passes, for every elementwise sweep that cannot fuse into a GEMM
/// (Tensor::axpy/scale/mul, ReLU forward/backward, BatchNorm2d eval).
/// Each is bitwise identical between the scalar and AVX2 variants (two-op
/// mul-then-add sequences, no contraction) and bitwise identical to the
/// matching fused-epilogue stage.
/// dst[i] = src[i] > 0 ? src[i] : 0 (NaN -> 0, -0 -> +0). src may == dst.
using ReluF32Fn = void (*)(const float* src, float* dst, std::size_t n);
/// y[i] += a * x[i].
using AxpyF32Fn = void (*)(float a, const float* x, float* y, std::size_t n);
/// dst[i] = a[i] * b[i]; dst may alias a and/or b.
using MulF32Fn = void (*)(const float* a, const float* b, float* dst,
                          std::size_t n);
/// x[i] *= a.
using ScaleF32Fn = void (*)(float* x, std::size_t n, float a);
/// dst[i] = src[i] * scale + shift (one BN channel plane). src may == dst.
using AffineF32Fn = void (*)(const float* src, float* dst, std::size_t n,
                             float scale, float shift);

struct GemmKernels {
  GemmTile4x16Fn tile4x16;
  GemmTileI16Fn tile4x16_i16;
  GemmTileI16Ep4x16Fn tile4x16_i16_ep;
  // The 16-row twins of tile4x16 / tile4x16_ep / tile4x16_i16 /
  // tile4x16_i16_ep (see kGemmGroupRows). The scalar and AVX2 tables run
  // their 4-row tile four times; the AVX-512 table has zmm tiles.
  GemmTile4x16Fn tile16x16;
  GemmTileEp4x16Fn tile16x16_ep;
  GemmTileI16Fn tile16x16_i16;
  GemmTileI16Ep4x16Fn tile16x16_i16_ep;
  Conv3x3TileI32Fn conv3x3_i32;
  QdqF32Fn qdq_f32;
  QuantF32ToI16Fn quant_f32_i16;
  RequantI32Fn requant_i32;
  MaxAbsF32Fn max_abs_f32;
  GemmTileEp4x16Fn tile4x16_ep;
  ReluF32Fn relu_f32;
  AxpyF32Fn axpy_f32;
  MulF32Fn mul_f32;
  ScaleF32Fn scale_f32;
  AffineF32Fn affine_f32;
  const char* isa;  // "scalar", "avx2+fma" or "avx512"
};

/// Instruction-set tiers, lowest first.
enum class GemmIsa { kScalar, kAvx2, kAvx512 };

/// The kernel set every tiled GEMM call uses right now: the highest tier
/// that is usable (gemm_isa_usable) and not above the gemm_cap_isa cap.
const GemmKernels& active_gemm_kernels();

/// Name of the active instruction set ("scalar" / "avx2+fma" / "avx512").
const char* gemm_isa_name();

/// True when `isa`'s kernels are compiled in (AVX2+FMA, resp. AVX-512
/// F/BW/VL/VNNI codegen), the host CPU supports them, and ODENET_SIMD
/// does not cap dispatch below them. kScalar is always usable.
bool gemm_isa_usable(GemmIsa isa);

/// Caps dispatch at `cap` regardless of CPU support and returns the
/// previous cap; kAvx512 (the default) removes the cap. The bench's A/B
/// rows and the ISA-parity tests set this around runs. Not meant to be
/// changed while kernels are executing concurrently.
GemmIsa gemm_cap_isa(GemmIsa cap);

/// Fused-epilogue master switch: when off, eval-mode Conv2d/BuildingBlock
/// keep the unfused conv -> BN -> ReLU -> axpy sequence (the benches' A/B
/// lever, and an escape hatch for debugging). Defaults to on unless env
/// ODENET_FUSED_EPILOGUE=0|off disables it at startup. Not meant to be
/// toggled while forwards are executing concurrently.
void set_fused_epilogues(bool enabled);
bool fused_epilogues_enabled();

/// GEMMs below this many flops (2*m*k*n) run sequentially on the calling
/// thread — fan-out overhead beats the win on small batches. Default 1M
/// flops, overridable via env ODENET_GEMM_PAR_FLOPS.
std::size_t gemm_parallel_min_flops();
/// Overrides the threshold (0 restores the default/env value).
void gemm_set_parallel_min_flops(std::size_t flops);

/// Substitutes the thread pool the GEMM/lowering kernels fan out on;
/// nullptr restores the global pool. The pool must outlive every kernel
/// call made while it is installed.
void set_kernel_pool(util::ThreadPool* pool);
util::ThreadPool& kernel_pool();

/// The fused epilogue of gemm_i16_lowered_ep (see GemmTileI16Ep4x16Fn for
/// the per-element chain). Accumulators are at Q(frac_bits + round_shift);
/// every output lands on the Q(frac_bits) grid. scale/shift hold one
/// coefficient per output row (conv out channel) and are set together or
/// both null. residual shares the output's NCHW layout and may alias it
/// (the in-place Euler update z = qdq(z + h*t)).
struct GemmI16Epilogue {
  int round_shift = 0;
  int frac_bits = 20;
  const float* scale = nullptr;
  const float* shift = nullptr;
  bool relu = false;
  const float* residual = nullptr;
  float beta = 1.0f;
};

}  // namespace odenet::core
