// Convolution lowering and the one tiled GEMM driver behind every conv and
// Linear layer, forward and backward.
//
// The driver (im2col.cpp run_tiles) sweeps 4x16 micro-kernel tiles column
// panel by column panel on one panel x row-block thread split, running
// whole groups of four row tiles through the kernel table's 16-row entry
// (the AVX-512 zmm tiles, four 4x16 tiles on the other tiers). It has two
// variation points:
//  * where B micro-panels come from — packed per column panel from a
//    strided B (gemm_tiled, gemm_at, gemm_bt_tiled: the training backward
//    products; gemm_i16_tiled_pa: the int16 explicit-lowering oracle),
//    pre-packed (gemm_tiled_pb: Linear forward), or gathered straight from
//    an NCHW image through one per-tap mask/offset plan (gemm_lowered_ep /
//    gemm_i16_lowered_ep: every inference conv, any geometry — the column
//    matrix is never materialized);
//  * how a tile is stored — plain or accumulating (float, or int32 for
//    the int16 GEMM), through a float GemmEpilogue, or through the integer
//    GemmI16Epilogue.
// Every packed operand — the A row panels and the B micro-panels, float or
// pair-interleaved int16 — is written by one strided panel packer; the
// front-ends differ only in the strides they hand it.
// Edge tiles (ragged rows or columns, or tiles that straddle two samples)
// run the same full kernel into a local tile, so every output element is
// computed the same way wherever it sits: outputs are bitwise independent
// of tiling, B source and thread split.
//
// The explicit lowering (im2col_batched, col2im_batched) remains for the
// training backward pass and as a test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/gemm_kernels.hpp"

namespace odenet::core {

/// Geometry for one lowering (square input, square kernel).
struct LoweringGeometry {
  int channels = 0;
  int height = 0;
  int width = 0;
  int kernel = 3;
  int stride = 1;
  int pad = 1;

  int out_h() const { return (height + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  std::size_t col_rows() const {
    return static_cast<std::size_t>(channels) * kernel * kernel;
  }
  std::size_t col_cols() const {
    return static_cast<std::size_t>(out_h()) * out_w();
  }
};

/// Batched lowering: unfolds a whole [N,C,H,W] batch into ONE column
/// matrix [col_rows(), N * col_cols()], sample n occupying the contiguous
/// column block [n * col_cols(), (n+1) * col_cols()). Out-of-image taps
/// read 0. Parallelized over samples; each sample writes only its block.
void im2col_batched(const float* src, const LoweringGeometry& g, int batch,
                    float* dst);

/// One [C,H,W] sample lowered into a column block of a wider matrix:
/// lowered row r is written to dst[r * row_stride, r * row_stride +
/// col_cols()) and nothing else is touched (row_stride >= col_cols()).
/// im2col_batched runs one of these per sample in parallel, so a write
/// outside the block would race with the neighbouring sample's task.
void im2col_block(const float* src, const LoweringGeometry& g,
                  std::size_t row_stride, float* dst);

/// Same batched lowering over int16 activations (the integer GEMM's
/// explicit-lowering oracle).
void im2col_batched_i16(const std::int16_t* src, const LoweringGeometry& g,
                        int batch, std::int16_t* dst);

/// Adjoint of im2col_batched: scatter-adds the batched column matrix back
/// into a [N,C,H,W] buffer (which must be zero-initialized or hold a
/// partial sum). Parallelized over samples (disjoint writes).
void col2im_batched(const float* cols, const LoweringGeometry& g, int batch,
                    float* dst);

/// The layout change around a batched-lowering GEMM: copies between the
/// channel-major matrix view [C, N*plane] (sample n in column block
/// n*plane) and the sample-major NCHW view [N, C, plane]. to_nchw selects
/// the direction; src and dst must not alias. Parallelized over samples.
void permute_channel_major(const float* src, float* dst, int batch,
                           int channels, std::size_t plane, bool to_nchw);

/// C[m,n] (+)= A^T[m,k] * B[k,n] where A is stored [k,m] row-major, on the
/// tiled driver (Linear backward dW, k = the batch). The weight-gradient
/// GEMMs sum k in blocks of 256, ascending: the first block onto C, each
/// later one summed from zero and then added, so rounding grows with the
/// block, not with k.
void gemm_at(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate);

/// C[m,n] (+)= A[m,k] * B^T with B stored [n,k] row-major, on the tiled
/// driver, k in blocks as gemm_at. Used by the batched conv backward for
/// dW, where k is the long n*Ho*Wo axis.
void gemm_bt_tiled(const float* a, const float* b, float* c, int m, int k,
                   int n, bool accumulate);

/// A [m,k] matrix repacked into the row-panel layout the 4x16 micro-kernel
/// consumes: [ceil(m/4)] panels of [k][4] (panel t holds rows 4t..4t+3,
/// k-major so the kernel reads 4 contiguous A values per k step). Edge
/// rows past m are zero-padded, so a full-width kernel run over the last
/// panel computes zeros for the phantom rows. This is the once-per-layer
/// packed-weight format Conv2d caches across calls.
struct PackedGemmA {
  std::vector<float> data;
  int m = 0;
  int k = 0;

  bool empty() const { return m == 0 || k == 0; }
};

/// Packs row-major A[m,k] into `out` (storage recycled across calls).
void pack_gemm_a(const float* a, int m, int k, PackedGemmA& out);

/// B^T stored [n,k] row-major (a Linear weight [out,in]) repacked into the
/// column-panel layout the micro-kernel consumes: [ceil(n/16)] panels of
/// [k][16], edge columns zero-padded. Cached once per weight version.
struct PackedGemmB {
  std::vector<float> data;
  int k = 0;
  int n = 0;

  bool empty() const { return n == 0 || k == 0; }
};

/// Packs `bt` (stored [n,k] row-major, i.e. B transposed) into `out`.
void pack_gemm_b_nt(const float* bt, int k, int n, PackedGemmB& out);

/// An int16 [m,k] matrix repacked into the pair-interleaved row-panel
/// layout the integer micro-kernel consumes: [ceil(m/4)] panels of
/// [kpairs][4][2], where panel t holds rows 4t..4t+3 and entry
/// [p][i][s] = A[4t+i][2p+s]. The [2] pair axis is innermost so one 32-bit
/// broadcast yields a row's (even, odd) k-pair for `_mm256_madd_epi16`.
/// Edge rows past m and the phantom odd-k tap are zero-padded. This is the
/// once-per-layer packed-weight format the fixed backend caches.
struct PackedGemmA16 {
  std::vector<std::int16_t> data;
  int m = 0;
  int k = 0;  // logical (un-padded) depth

  int kpairs() const { return (k + 1) / 2; }
  bool empty() const { return m == 0 || k == 0; }
};

/// Packs row-major A[m,k] int16 into `out` (storage recycled across calls).
void pack_gemm_a_i16(const std::int16_t* a, int m, int k, PackedGemmA16& out);

/// An int16 B[k,n] matrix repacked into the pair-interleaved column-panel
/// layout: [ceil(n/16)] panels of [kpairs][16][2], entry [p][j][s] =
/// B[2p+s][16t+j], edge columns and the phantom odd-k tap zero-padded. One
/// 256-bit load covers 8 columns' k-pairs. gemm_i16_tiled_pa packs the
/// same layout per column panel; the standalone pack exists for the
/// kernel parity tests and callers with a reusable B.
struct PackedGemmB16 {
  std::vector<std::int16_t> data;
  int k = 0;
  int n = 0;

  int kpairs() const { return (k + 1) / 2; }
  bool empty() const { return n == 0 || k == 0; }
};

/// Packs row-major B[k,n] int16 into `out` (storage recycled across calls).
void pack_gemm_b_i16(const std::int16_t* b, int k, int n, PackedGemmB16& out);

/// C[m,n] (+)= A[m,k] * B[k,n], all row-major, through the tiled driver
/// with B packed panel by panel (k-ascending accumulation per element).
/// A is packed per call into storage the call owns.
void gemm_tiled(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate);

/// C[m,n] (+)= A[m,k] * B with B pre-packed (the Linear forward product
/// X * W^T with W packed once per version).
void gemm_tiled_pb(const float* a, const PackedGemmB& b, float* c, int m,
                   bool accumulate);

/// Integer GEMM: C[m,n] (+)= A * B with A pre-packed (PackedGemmA16), B
/// row-major int16 [k,n], C int32 — the explicit-lowering oracle of
/// gemm_i16_lowered_ep (test-side only), on the tiled driver with int32
/// tile stores: B is packed per column panel, every tile (edge tiles into
/// a local int32 tile) runs the dispatched micro-kernel, and the sums wrap
/// mod 2^32, so any ISA and any worker count give bitwise-identical C.
void gemm_i16_tiled_pa(const PackedGemmA16& a, const std::int16_t* b,
                       std::int32_t* c, int n, bool accumulate);

/// Epilogue applied to every output element of gemm_lowered_ep while the
/// tile is still in registers, in this fixed order:
///   t = acc * scale[i] + shift[i]   (each part skipped when null; i is
///                                    the output ROW, i.e. the conv's out
///                                    channel)
///   t = max(t, 0)                   (when relu)
///   t = t + beta * residual[...]    (when residual != nullptr)
/// residual shares the output's layout and MAY alias it — each tile reads
/// its own residual window before storing, so in-place `out = ep(conv) +
/// beta*out` (the Euler update z += h*f(z)) is safe under any thread
/// split. A default-constructed epilogue is the identity (plain conv).
struct GemmEpilogue {
  const float* scale = nullptr;  // per-row multipliers [m]
  const float* shift = nullptr;  // per-row addends [m]
  bool relu = false;
  const float* residual = nullptr;  // output layout, may alias it
  float beta = 1.0f;
};

/// The float convolution: out = ep(A * lower(src)) with the lowering
/// implicit. src is the [batch, C, H, W] image (g.channels = C, a time
/// plane included); out and ep.residual are NCHW [batch, a.m, out_h,
/// out_w]. Any geometry and batch; a.k must be g.col_rows(). The values
/// gathered are exactly the columns im2col_batched materializes and the
/// epilogue arithmetic is contraction-free, so the output is bitwise the
/// explicit im2col_batched -> GEMM -> permute -> elementwise-passes chain,
/// on either ISA and under any thread split.
void gemm_lowered_ep(const PackedGemmA& a, const float* src,
                     const LoweringGeometry& g, int batch, float* out,
                     const GemmEpilogue& ep);

/// The fixed backend's int16 convolution, the integer twin of
/// gemm_lowered_ep: out = ep(A16 * lower(src)) over an int16 image, the
/// pair-interleaved B micro-panels gathered by the same plan, every tile
/// running tile4x16_i16_ep and storing NCHW float. The int32 accumulators
/// equal gemm_i16_tiled_pa over im2col_batched_i16, so the output is
/// bitwise identical to quantize -> lower -> GEMM -> requantize -> permute
/// -> BN -> qdq -> ReLU -> axpy -> qdq as passes, on either ISA and under
/// any thread split. a.k must be g.col_rows().
void gemm_i16_lowered_ep(const PackedGemmA16& a, const std::int16_t* src,
                         const LoweringGeometry& g, int batch, float* out,
                         const GemmI16Epilogue& ep);

}  // namespace odenet::core
