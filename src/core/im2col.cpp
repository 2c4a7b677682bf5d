#include "core/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/gemm_kernels.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

namespace {

/// First output column whose tap ow*stride - pad + kw lands inside [0, w),
/// and one past the last — hoisting the bounds check out of the copy loop.
inline int first_valid_ow(int kw, int pad, int stride) {
  const int shift = pad - kw;
  if (shift <= 0) return 0;
  return (shift + stride - 1) / stride;  // ceil(shift / stride)
}

inline int end_valid_ow(int kw, int pad, int stride, int w, int wo) {
  const int span = w + pad - kw;  // iw < w  <=>  ow*stride < span
  if (span <= 0) return 0;
  const int end = (span + stride - 1) / stride;
  return end < wo ? end : wo;
}

/// Lowers one [C,H,W] sample. Lowered row r of this sample lives at
/// dst + r * row_stride; with row_stride == batch * col_cols() it writes
/// one sample's column block of the batched matrix.
///
/// Per (kh, kw) tap the valid output-column range is computed once, so the
/// interior is a branch-free copy: one memcpy per output row at stride 1,
/// a gathered strided copy otherwise. Values are identical to the naive
/// per-element walk (zeros outside, source reads inside). Templated on the
/// element type: float for the backward pass, int16 for the integer GEMM's
/// test oracle.
template <typename T>
void im2col_strided(const T* src, const LoweringGeometry& g,
                    std::size_t row_stride, T* dst) {
  const int ho = g.out_h(), wo = g.out_w();
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  // "Same" geometry (stride 1, symmetric pad: the ODE-block 3x3/pad-1
  // conv): each tap's lowered row is the input plane flat-shifted by
  // (kh-pad)*w + (kw-pad). One plane-sized memcpy replaces ho row-sized
  // ones — the per-call overhead of the small copies dominates on the
  // 8x8/4x4 planes — then the wrapped edge columns and the out-of-range
  // top/bottom rows are zeroed. Values match the general walk exactly.
  if (g.stride == 1 && ho == g.height && wo == g.width) {
    const int h = g.height, w = g.width;
    std::size_t row = 0;
    for (int c = 0; c < g.channels; ++c) {
      const T* cplane = src + static_cast<std::size_t>(c) * plane;
      for (int kh = 0; kh < g.kernel; ++kh) {
        for (int kw = 0; kw < g.kernel; ++kw, ++row) {
          T* out_row = dst + row * row_stride;
          const int dh = kh - g.pad, dw = kw - g.pad;
          const std::ptrdiff_t shift =
              static_cast<std::ptrdiff_t>(dh) * w + dw;
          std::size_t lo = shift < 0 ? static_cast<std::size_t>(-shift) : 0;
          std::size_t hi = shift > 0 ? plane - std::min<std::size_t>(
                                                   plane,
                                                   static_cast<std::size_t>(
                                                       shift))
                                     : plane;
          lo = std::min(lo, plane);
          hi = std::max(hi, lo);
          if (lo > 0) std::memset(out_row, 0, lo * sizeof(T));
          if (hi > lo) {
            std::memcpy(out_row + lo, cplane + lo + shift,
                        (hi - lo) * sizeof(T));
          }
          if (hi < plane) {
            std::memset(out_row + hi, 0, (plane - hi) * sizeof(T));
          }
          // Rows whose source row is outside [0, h) are all zeros. Both
          // bounds are clamped to [0, h]: with pad > h a tap's shift
          // exceeds the plane, and an unclamped range would zero memory
          // past this sample's block (another pool task's sample).
          const int row0 = dh < 0 ? std::min(-dh, h) : 0;
          const int row1 = dh > 0 ? std::max(h - dh, row0) : h;
          if (row0 > 0) {
            std::memset(out_row, 0,
                        static_cast<std::size_t>(row0) * w * sizeof(T));
          }
          if (row1 < h) {
            std::memset(out_row + static_cast<std::size_t>(row1) * w, 0,
                        static_cast<std::size_t>(h - row1) * w * sizeof(T));
          }
          // The flat shift wraps row ends into neighboring rows; those
          // columns read outside [0, w) and must be zero.
          const int zl = std::min(dw < 0 ? -dw : 0, w);
          const int zr = std::max(w - (dw > 0 ? dw : 0), zl);
          for (int oh = row0; oh < row1; ++oh) {
            T* out = out_row + static_cast<std::size_t>(oh) * w;
            for (int ow = 0; ow < zl; ++ow) out[ow] = T{};
            for (int ow = zr; ow < w; ++ow) out[ow] = T{};
          }
        }
      }
    }
    return;
  }
  std::size_t row = 0;
  for (int c = 0; c < g.channels; ++c) {
    const T* cplane = src + static_cast<std::size_t>(c) * plane;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw, ++row) {
        T* out_row = dst + row * row_stride;
        const int lo = first_valid_ow(kw, g.pad, g.stride);
        const int hi = end_valid_ow(kw, g.pad, g.stride, g.width, wo);
        for (int oh = 0; oh < ho; ++oh) {
          const int ih = oh * g.stride - g.pad + kh;
          T* out = out_row + static_cast<std::size_t>(oh) * wo;
          if (ih < 0 || ih >= g.height || lo >= hi) {
            std::memset(out, 0, static_cast<std::size_t>(wo) * sizeof(T));
            continue;
          }
          const T* in_row = cplane + static_cast<std::size_t>(ih) * g.width;
          for (int ow = 0; ow < lo; ++ow) out[ow] = T{};
          if (g.stride == 1) {
            std::memcpy(out + lo, in_row + lo - g.pad + kw,
                        static_cast<std::size_t>(hi - lo) * sizeof(T));
          } else {
            const T* in = in_row + lo * g.stride - g.pad + kw;
            for (int ow = lo; ow < hi; ++ow, in += g.stride) out[ow] = *in;
          }
          for (int ow = hi; ow < wo; ++ow) out[ow] = T{};
        }
      }
    }
  }
}

/// Adjoint of im2col_strided for one sample (same row_stride convention).
void col2im_strided(const float* cols, const LoweringGeometry& g,
                    std::size_t row_stride, float* dst) {
  const int ho = g.out_h(), wo = g.out_w();
  const std::size_t plane = static_cast<std::size_t>(g.height) * g.width;
  std::size_t row = 0;
  for (int c = 0; c < g.channels; ++c) {
    float* cplane = dst + static_cast<std::size_t>(c) * plane;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw, ++row) {
        const float* in_row = cols + row * row_stride;
        for (int oh = 0; oh < ho; ++oh) {
          const int ih = oh * g.stride - g.pad + kh;
          if (ih < 0 || ih >= g.height) continue;
          float* out = cplane + static_cast<std::size_t>(ih) * g.width;
          const float* in = in_row + static_cast<std::size_t>(oh) * wo;
          for (int ow = 0; ow < wo; ++ow) {
            const int iw = ow * g.stride - g.pad + kw;
            if (iw >= 0 && iw < g.width) out[iw] += in[ow];
          }
        }
      }
    }
  }
}

template <typename T>
void im2col_batched_any(const T* src, const LoweringGeometry& g, int batch,
                        T* dst) {
  ODENET_CHECK(batch > 0, "im2col_batched needs a non-empty batch");
  const std::size_t sample =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    im2col_strided(src + ni * sample, g, row_stride, dst + ni * cc);
  });
}

}  // namespace

void im2col_block(const float* src, const LoweringGeometry& g,
                  std::size_t row_stride, float* dst) {
  im2col_strided(src, g, row_stride, dst);
}

void im2col_batched(const float* src, const LoweringGeometry& g, int batch,
                    float* dst) {
  im2col_batched_any(src, g, batch, dst);
}

void im2col_batched_i16(const std::int16_t* src, const LoweringGeometry& g,
                        int batch, std::int16_t* dst) {
  im2col_batched_any(src, g, batch, dst);
}

void col2im_batched(const float* cols, const LoweringGeometry& g, int batch,
                    float* dst) {
  ODENET_CHECK(batch > 0, "col2im_batched needs a non-empty batch");
  const std::size_t sample =
      static_cast<std::size_t>(g.channels) * g.height * g.width;
  const std::size_t cc = g.col_cols();
  const std::size_t row_stride = cc * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    col2im_strided(cols + ni * cc, g, row_stride, dst + ni * sample);
  });
}

void permute_channel_major(const float* src, float* dst, int batch,
                           int channels, std::size_t plane, bool to_nchw) {
  const std::size_t ncols = plane * static_cast<std::size_t>(batch);
  util::parallel_for(kernel_pool(), 0, static_cast<std::size_t>(batch),
                     [&](std::size_t ni) {
    for (int c = 0; c < channels; ++c) {
      const std::size_t nchw =
          (ni * static_cast<std::size_t>(channels) + c) * plane;
      const std::size_t cmajor =
          static_cast<std::size_t>(c) * ncols + ni * plane;
      if (to_nchw) {
        std::memcpy(dst + nchw, src + cmajor, plane * sizeof(float));
      } else {
        std::memcpy(dst + cmajor, src + nchw, plane * sizeof(float));
      }
    }
  });
}

namespace {

// Micro-kernel geometry (see core/gemm_kernels.hpp — the 4 x 16 tile the
// scalar and AVX2 kernels share).
constexpr int kTileRows = kGemmTileRows;
constexpr int kTileCols = kGemmTileCols;
// Column-panel width (multiple of kTileCols): every row tile of A sweeps
// one k x kPanelCols panel of B before the next panel is touched, so the
// panel is streamed from memory once and re-read m/MR times from cache.
// Without this, a batched lowering (k ~ C*9, n ~ N*Ho*Wo, megabytes)
// would be re-streamed from DRAM once per row tile. k * 256 floats ~ 0.6 MB
// at the paper's largest lowering (k = 585).
constexpr int kPanelCols = 256;
// Minimum row tiles per task when a GEMM is additionally split along m
// (panels alone can't feed every worker): big enough that the duplicated
// B-panel pack per task stays amortized.
constexpr int kMinRowTilesPerTask = 8;
// Depth block of the weight-gradient GEMMs (gemm_at, gemm_bt_tiled): their
// sums over the batch (and every output position) are cut into dot
// products this deep.
constexpr int kDepthBlock = 256;

// Runs run_span(panel, t0, t1) over every column panel x row-tile span
// of an [m, k] x [k, n] product: sequentially below the parallel flop
// threshold, else one task per panel x row block on the kernel pool.
// Split along m too when column panels alone cannot feed every worker
// (the tall-skinny dX GEMM, small batches on wide machines); each extra
// row block re-packs its panel's B tiles, so blocks stay >= 8 row tiles.
// Every output tile is computed whole inside one task, so any split
// gives bitwise-identical output.
template <typename Span>
void run_panel_split(int m, int k, int n, int panels, int row_tiles,
                     const Span& run_span) {
  const std::size_t flops = 2ull * static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(n);
  util::ThreadPool& pool = kernel_pool();
  const std::size_t workers = pool.worker_count();
  if (flops < gemm_parallel_min_flops() || workers <= 1) {
    for (int pi = 0; pi < panels; ++pi) run_span(pi, 0, row_tiles);
    return;
  }
  int row_blocks = 1;
  if (static_cast<std::size_t>(panels) < workers) {
    const int max_blocks =
        (row_tiles + kMinRowTilesPerTask - 1) / kMinRowTilesPerTask;
    row_blocks = std::min<int>(
        max_blocks,
        static_cast<int>((workers + panels - 1) /
                         static_cast<std::size_t>(panels)));
    row_blocks = std::max(row_blocks, 1);
  }
  // Blocks start on a whole group of kGemmGroupTiles row tiles, so a
  // split does not break up the 16-row tiles.
  const int tiles_per_block =
      ((row_tiles + row_blocks - 1) / row_blocks + kGemmGroupTiles - 1) /
      kGemmGroupTiles * kGemmGroupTiles;
  util::parallel_for(
      pool, 0, static_cast<std::size_t>(panels) * row_blocks,
      [&](std::size_t task) {
        const int pi = static_cast<int>(task) / row_blocks;
        const int rb = static_cast<int>(task) % row_blocks;
        const int t0 = rb * tiles_per_block;
        const int t1 = std::min(row_tiles, t0 + tiles_per_block);
        if (t0 < t1) run_span(pi, t0, t1);
      });
}

/// Where the driver stores: element (row i, flat column j) of the [m, n]
/// product lives at c[((j / plane) * m + i) * plane + j % plane] — NCHW
/// with `plane` columns per sample, so plane == n is the plain row-major
/// [m, n] matrix. r (same layout, may alias c, or null) is the window
/// each tile reads before its store: the epilogue residual, or C itself
/// for an accumulating GEMM. S is the stored element: float for every
/// conv and Linear product, int32 for the int16 GEMM's raw accumulators.
template <typename S>
struct TileOut {
  S* c;
  const S* r;
  int m;
  std::size_t plane;

  std::size_t at(int i, int j) const {
    const std::size_t ni = static_cast<std::size_t>(j) / plane;
    return (ni * static_cast<std::size_t>(m) + static_cast<std::size_t>(i)) *
               plane +
           (static_cast<std::size_t>(j) - ni * plane);
  }
};

/// THE tiled GEMM driver: every 4x16 tile of an [m, k] x [k, n] product,
/// column panel by column panel on the run_panel_split thread split.
/// Its two variation points:
///  * pack_panel(p0, pn, scratch) returns the ceil(pn/16) B micro-panels
///    of columns [p0, p0 + pn), `bstride` elements apart, phantom columns
///    zero — packed from a strided B, pointed into a pre-packed B, or
///    gathered straight from an NCHW image;
///  * tile(t, rows, bpanel, c, ldc, r, ldr) runs the micro-kernel for the
///    `rows` (4, or kGemmGroupRows = 16: row tiles t..t+3) rows from row
///    tile t and stores them — plain, accumulating, or through an
///    epilogue.
/// Row tiles are walked in groups of four: a full group on a full column
/// tile inside one sample runs the 16-row kernel entry. One edge rule for
/// the rest: a 4-row tile that is ragged (rows past m, columns past n) or
/// straddles two samples runs the same full kernel into a local 4x16 tile
/// (its r window copied in first) and copies the live corner out. Every
/// element is therefore computed by the same kernel lane in the same k
/// order wherever it sits, so the output is bitwise independent of the
/// tiling, the B source and the thread split.
template <typename T, typename S, typename PackPanel, typename Tile>
void run_tiles(int m, int k, int n, std::size_t bstride, const TileOut<S>& o,
               const PackPanel& pack_panel, const Tile& tile) {
  if (m == 0 || n == 0) return;
  const int panels = (n + kPanelCols - 1) / kPanelCols;
  const int row_tiles = (m + kTileRows - 1) / kTileRows;
  run_panel_split(m, k, n, panels, row_tiles, [&](int pi, int t0, int t1) {
    const int p0 = pi * kPanelCols;
    const int pn = std::min(kPanelCols, n - p0);
    // Task-local B panel: written and read by this task only.
    static thread_local std::vector<T> scratch;
    const T* panel = pack_panel(p0, pn, scratch);
    for (int g = t0; g < t1; g += kGemmGroupTiles) {
      const int g1 = std::min(t1, g + kGemmGroupTiles);
      const bool full_group = g1 - g == kGemmGroupTiles &&
                              g1 * kTileRows <= m;
      for (int jt = 0; jt * kTileCols < pn; ++jt) {
        const int j0 = p0 + jt * kTileCols;
        const bool full_cols =
            n - j0 >= kTileCols &&
            static_cast<std::size_t>(j0) % o.plane + kTileCols <= o.plane;
        const T* bp = panel + static_cast<std::size_t>(jt) * bstride;
        if (full_group && full_cols) {
          const std::size_t off = o.at(g * kTileRows, j0);
          tile(g, kGemmGroupRows, bp, o.c + off, o.plane,
               o.r != nullptr ? o.r + off : nullptr, o.plane);
          continue;
        }
        for (int t = g; t < g1; ++t) {
          const int i0 = t * kTileRows;
          if (i0 + kTileRows <= m && full_cols) {
            const std::size_t off = o.at(i0, j0);
            tile(t, kTileRows, bp, o.c + off, o.plane,
                 o.r != nullptr ? o.r + off : nullptr, o.plane);
            continue;
          }
          const int mr = std::min(kTileRows, m - i0);
          const int nr = std::min(kTileCols, n - j0);
          S local[kTileRows * kTileCols] = {};
          if (o.r != nullptr) {
            for (int i = 0; i < mr; ++i) {
              for (int j = 0; j < nr; ++j) {
                local[i * kTileCols + j] = o.r[o.at(i0 + i, j0 + j)];
              }
            }
          }
          tile(t, kTileRows, bp, local, kTileCols,
               o.r != nullptr ? local : nullptr, kTileCols);
          for (int i = 0; i < mr; ++i) {
            for (int j = 0; j < nr; ++j) {
              o.c[o.at(i0 + i, j0 + j)] = local[i * kTileCols + j];
            }
          }
        }
      }
    }
  });
}

/// The per-row epilogue coefficients of the `rows` rows from i0; a ragged
/// last 4-row tile reads a zero-padded copy (16-row groups are never
/// ragged).
inline const float* row_coeffs(const float* v, int i0, int rows, int m,
                               float* pad) {
  if (v == nullptr || i0 + rows <= m) {
    return v != nullptr ? v + i0 : nullptr;
  }
  std::fill_n(pad, kTileRows, 0.0f);
  std::copy_n(v + i0, m - i0, pad);
  return pad;
}

/// Plain or accumulating store: C (+)= A * B, float or (int16 operands)
/// int32 wraparound.
auto plain_tile(const PackedGemmA& a, bool accumulate) {
  const GemmKernels* kernels = &active_gemm_kernels();
  return [&a, kernels, accumulate](int t, int rows, const float* bp,
                                   float* c, std::size_t ldc, const float*,
                                   std::size_t) {
    (rows == kTileRows ? kernels->tile4x16 : kernels->tile16x16)(
        a.data.data() + static_cast<std::size_t>(t) * a.k * kTileRows, bp,
        a.k, c, ldc, accumulate);
  };
}

auto plain_tile(const PackedGemmA16& a, bool accumulate) {
  const GemmKernels* kernels = &active_gemm_kernels();
  return [&a, kernels, accumulate](int t, int rows, const std::int16_t* bp,
                                   std::int32_t* c, std::size_t ldc,
                                   const std::int32_t*, std::size_t) {
    const int kp = a.kpairs();
    (rows == kTileRows ? kernels->tile4x16_i16 : kernels->tile16x16_i16)(
        a.data.data() + static_cast<std::size_t>(t) * kp * kTileRows * 2, bp,
        kp, c, ldc, accumulate);
  };
}

/// THE panel packer. Element (r, d) of a rows x depth operand is
/// src[r * row_stride + d * depth_stride]; out becomes [ceil(rows/W)]
/// panels of [depth][W] floats, or of [ceil(depth/2)][W][2] pair-
/// interleaved int16 (entry [p][w][s] = element (W*t + w, 2p + s), the
/// `_mm256_madd_epi16` dot-pair layout), every slot past rows or depth
/// zero. With W = 4 it writes the A row panels, with W = 16 the B column
/// micro-panels; the strides say whether the operand is stored as is or
/// transposed.
template <int W, typename T>
void pack_panels(const T* src, int rows, int depth, std::size_t row_stride,
                 std::size_t depth_stride, std::vector<T>& out) {
  constexpr int kPair = std::is_same_v<T, std::int16_t> ? 2 : 1;
  const int groups = (depth + kPair - 1) / kPair;
  const int panels = (rows + W - 1) / W;
  out.resize(static_cast<std::size_t>(panels) * groups * W * kPair);
  T* dst = out.data();
  for (int t = 0; t < panels; ++t) {
    const int r0 = t * W;
    const int live = std::min(W, rows - r0);
    const T* base = src + static_cast<std::size_t>(r0) * row_stride;
    for (int g = 0; g < groups; ++g, dst += W * kPair) {
      for (int s = 0; s < kPair; ++s) {
        const int d = g * kPair + s;
        const int have = d < depth ? live : 0;
        const T* col = base + static_cast<std::size_t>(d) * depth_stride;
        if (kPair == 1 && row_stride == 1 && have > 0) {
          std::memcpy(dst, col, static_cast<std::size_t>(have) * sizeof(T));
        } else {
          for (int w = 0; w < have; ++w) {
            dst[w * kPair + s] = col[w * row_stride];
          }
        }
        for (int w = have; w < W; ++w) dst[w * kPair + s] = T{};
      }
    }
  }
}

// ---- The implicit lowering's gather plan --------------------------------

/// The same-width integer lane mask of an operand type: the implicit
/// gather ANDs each 16-value tap row with a 0 / all-ones mask row.
template <typename T>
using MaskOf =
    std::conditional_t<std::is_same_v<T, float>, std::int32_t, std::int16_t>;

/// Lowered row r of an [N, C, H, W] image, 16 output columns at a time,
/// without materializing the column matrix: the one per-tap plan the
/// float and the int16 convs share. Per tap (kh, kw) and output position
/// q it records the in-sample source offset ih*W + iw, or -1 where the
/// tap falls outside the image. In the "same" geometry (stride 1, output
/// extents == input extents) the tap's row is additionally the input
/// plane flat-shifted by (kh - pad)*W + (kw - pad) under a 0 / all-ones
/// mask plane, so a window inside one sample is two vector loads and an
/// AND per 16 columns. Every other window (stride 2, one that straddles
/// two samples or runs past n) reads column by column through the offset
/// plane. Both give exactly the values im2col_batched materializes.
template <typename T>
class ImageGather {
 public:
  using Mask = MaskOf<T>;
  struct Row {
    const T* values;
    const Mask* mask;
  };
  /// The 16 flat columns [col0, col0 + 16) of one micro-panel.
  struct Window {
    bool contiguous = false;  // same geometry, inside one sample
    std::size_t at = 0;       // contiguous: image offset of (sample, q0)
    std::size_t q0 = 0;
    std::size_t base[kTileCols] = {};  // else per column: sample offset
    std::size_t q[kTileCols] = {};     // (image_ past n) and position q
  };

  static constexpr Mask kOnes[kTileCols] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            -1, -1, -1, -1, -1, -1, -1, -1};

  ImageGather(const T* src, const LoweringGeometry& g, int batch)
      : src_(src), plane_(g.col_cols()) {
    const int kk = g.kernel * g.kernel;
    const int ho = g.out_h(), wo = g.out_w();
    const std::size_t in_plane = static_cast<std::size_t>(g.height) * g.width;
    sample_ = static_cast<std::size_t>(g.channels) * in_plane;
    image_ = sample_ * static_cast<std::size_t>(batch);
    n_ = plane_ * static_cast<std::size_t>(batch);
    same_ = g.stride == 1 && ho == g.height && wo == g.width;
    offset_.resize(static_cast<std::size_t>(kk) * plane_);
    if (same_) mask_.resize(offset_.size());
    for (int t = 0; t < kk; ++t) {
      const int kh = t / g.kernel, kw = t % g.kernel;
      std::size_t at = static_cast<std::size_t>(t) * plane_;
      for (int oh = 0; oh < ho; ++oh) {
        const int ih = oh * g.stride - g.pad + kh;
        for (int ow = 0; ow < wo; ++ow, ++at) {
          const int iw = ow * g.stride - g.pad + kw;
          const bool inside =
              ih >= 0 && ih < g.height && iw >= 0 && iw < g.width;
          offset_[at] = inside ? ih * g.width + iw : -1;
          if (same_) mask_[at] = inside ? Mask{-1} : Mask{0};
        }
      }
    }
    const int k = g.channels * kk;
    chan_.resize(static_cast<std::size_t>(k));
    tap_.resize(chan_.size());
    shift_.resize(chan_.size());
    for (int r = 0; r < k; ++r) {
      const int t = r % kk;
      chan_[r] = static_cast<std::size_t>(r / kk) * in_plane;
      tap_[r] = static_cast<std::size_t>(t) * plane_;
      shift_[r] = static_cast<std::ptrdiff_t>(t / g.kernel - g.pad) * g.width +
                  (t % g.kernel - g.pad);
    }
  }

  Window window(std::size_t col0) const {
    Window w;
    const std::size_t ni = col0 / plane_;
    w.q0 = col0 - ni * plane_;
    w.at = ni * sample_ + w.q0;
    w.contiguous = same_ && w.q0 + kTileCols <= plane_;
    if (w.contiguous) return w;
    for (int j = 0; j < kTileCols; ++j) {
      const std::size_t col = std::min(col0 + j, n_ - 1);
      const std::size_t nj = col / plane_;
      w.base[j] = col0 + j < n_ ? nj * sample_ : image_;
      w.q[j] = col - nj * plane_;
    }
    return w;
  }

  /// Row r over window w: 16 values and their mask. Windows that would
  /// read past either end of the image are gathered into tmp (only their
  /// masked-in taps, which always lie inside) under an all-ones mask.
  Row row(int r, const Window& w, T* tmp) const {
    if (w.contiguous) {
      const Mask* m = mask_.data() + tap_[r] + w.q0;
      const std::ptrdiff_t at =
          static_cast<std::ptrdiff_t>(w.at + chan_[r]) + shift_[r];
      if (at >= 0 && at + kTileCols <= static_cast<std::ptrdiff_t>(image_)) {
        return Row{src_ + at, m};
      }
      for (int j = 0; j < kTileCols; ++j) tmp[j] = m[j] != 0 ? src_[at + j] : T{};
      return Row{tmp, kOnes};
    }
    const std::int32_t* off = offset_.data() + tap_[r];
    const T* chan = src_ + chan_[r];
    for (int j = 0; j < kTileCols; ++j) {
      const std::int32_t o = off[w.q[j]];
      tmp[j] = o >= 0 && w.base[j] < image_
                   ? chan[w.base[j] + static_cast<std::size_t>(o)]
                   : T{};
    }
    return Row{tmp, kOnes};
  }

 private:
  const T* src_;
  std::size_t plane_, sample_ = 0, image_ = 0, n_ = 0;
  bool same_ = false;
  std::vector<std::int32_t> offset_;
  std::vector<Mask> mask_;
  // Per lowered row r = (channel, tap): its channel plane's in-sample
  // offset, its tap's plane in offset_/mask_, and the tap's flat shift.
  std::vector<std::size_t> chan_, tap_;
  std::vector<std::ptrdiff_t> shift_;
};

/// dst[j] = v[j] & m[j] over 16 floats (m is 0 or all-ones per lane).
inline void store_masked16(const float* v, const std::int32_t* m,
                           float* dst) {
#if defined(__SSE2__)
  for (int h = 0; h < kTileCols; h += 4) {
    _mm_storeu_ps(dst + h, _mm_and_ps(_mm_loadu_ps(v + h),
                                      _mm_castsi128_ps(_mm_loadu_si128(
                                          reinterpret_cast<const __m128i*>(
                                              m + h)))));
  }
#else
  for (int j = 0; j < kTileCols; ++j) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, v + j, sizeof(bits));
    bits &= static_cast<std::uint32_t>(m[j]);
    std::memcpy(dst + j, &bits, sizeof(bits));
  }
#endif
}

/// Pair-interleaves two masked 16-column tap rows into one [16][2]
/// micro-panel k-pair: dst[2j] = r0[j] & m0[j], dst[2j+1] = r1[j] & m1[j].
inline void interleave_masked_pair16(const std::int16_t* r0,
                                     const std::int16_t* m0,
                                     const std::int16_t* r1,
                                     const std::int16_t* m1,
                                     std::int16_t* dst) {
#if defined(__SSE2__)
  for (int h = 0; h < 2; ++h) {
    const __m128i a = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + 8 * h)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m0 + 8 * h)));
    const __m128i b = _mm_and_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + 8 * h)),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(m1 + 8 * h)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16 * h),
                     _mm_unpacklo_epi16(a, b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16 * h + 8),
                     _mm_unpackhi_epi16(a, b));
  }
#else
  for (int j = 0; j < kTileCols; ++j) {
    dst[2 * j] = static_cast<std::int16_t>(r0[j] & m0[j]);
    dst[2 * j + 1] = static_cast<std::int16_t>(r1[j] & m1[j]);
  }
#endif
}

/// The gathered B micro-panels of columns [p0, p0 + pn) for a depth-k
/// lowering: [k][16] floats, or pair-interleaved [kpairs][16][2] int16
/// (the phantom odd-k tap zero) — the layouts the float and integer
/// micro-kernels consume.
template <typename T>
const T* gather_panel(const ImageGather<T>& plan, int k, int p0, int pn,
                      std::vector<T>& scratch) {
  constexpr bool kPairs = std::is_same_v<T, std::int16_t>;
  const std::size_t bstride =
      static_cast<std::size_t>(kPairs ? (k + 1) / 2 * 2 : k) * kTileCols;
  const int tiles = (pn + kTileCols - 1) / kTileCols;
  scratch.resize(static_cast<std::size_t>(tiles) * bstride);
  static constexpr MaskOf<T> kZeroMask[kTileCols] = {};
  static constexpr T kZeroRow[kTileCols] = {};
  T tmp[2][kTileCols] = {};
  for (int jt = 0; jt < tiles; ++jt) {
    const auto w = plan.window(static_cast<std::size_t>(p0) + jt * kTileCols);
    T* dst = scratch.data() + static_cast<std::size_t>(jt) * bstride;
    if constexpr (kPairs) {
      for (int r = 0; r < k; r += 2, dst += 2 * kTileCols) {
        const auto even = plan.row(r, w, tmp[0]);
        const auto odd = r + 1 < k
                             ? plan.row(r + 1, w, tmp[1])
                             : typename ImageGather<T>::Row{kZeroRow,
                                                            kZeroMask};
        interleave_masked_pair16(even.values, even.mask, odd.values,
                                 odd.mask, dst);
      }
    } else {
      for (int r = 0; r < k; ++r, dst += kTileCols) {
        const auto row = plan.row(r, w, tmp[0]);
        store_masked16(row.values, row.mask, dst);
      }
    }
  }
  return scratch.data();
}

}  // namespace

void pack_gemm_a(const float* a, int m, int k, PackedGemmA& out) {
  ODENET_CHECK(m >= 0 && k >= 0, "bad pack_gemm_a dimensions");
  out.m = m;
  out.k = k;
  pack_panels<kTileRows>(a, m, k, static_cast<std::size_t>(k), 1, out.data);
}

void pack_gemm_b_nt(const float* bt, int k, int n, PackedGemmB& out) {
  ODENET_CHECK(k >= 0 && n >= 0, "bad pack_gemm_b_nt dimensions");
  out.k = k;
  out.n = n;
  pack_panels<kTileCols>(bt, n, k, static_cast<std::size_t>(k), 1, out.data);
}

void pack_gemm_a_i16(const std::int16_t* a, int m, int k, PackedGemmA16& out) {
  ODENET_CHECK(m >= 0 && k >= 0, "bad pack_gemm_a_i16 dimensions");
  out.m = m;
  out.k = k;
  pack_panels<kTileRows>(a, m, k, static_cast<std::size_t>(k), 1, out.data);
}

void pack_gemm_b_i16(const std::int16_t* b, int k, int n, PackedGemmB16& out) {
  ODENET_CHECK(k >= 0 && n >= 0, "bad pack_gemm_b_i16 dimensions");
  out.k = k;
  out.n = n;
  pack_panels<kTileCols>(b, n, k, 1, static_cast<std::size_t>(n), out.data);
}

namespace {

/// Element (i, p) of A is a[i * a_rows + p * a_depth] and element (p, j)
/// of B is b[j * b_cols + p * b_depth]: the one strided float GEMM
/// C[m,n] (+)= A * B behind gemm_tiled, gemm_at and gemm_bt_tiled. A is
/// packed per call into storage the call owns (every pool worker of the
/// split reads it through the captured reference); B's micro-panels are
/// packed per column panel by the task that uses them, so every
/// micro-kernel read is sequential however B is laid out.
///
/// With depth_block > 0 the depth runs in blocks of that many. The first
/// block accumulates straight into C; every later block is summed from
/// zero in a local tile and then added, so a weight gradient's long depth
/// (all N*Ho*Wo columns for conv dW) rounds like depth_block-long dot
/// products, not like one running sum, and each block's A and B panels
/// stay in L1. depth_block = 0 keeps the depth whole, so the product is
/// bitwise the forward conv's tile. Either way every element is summed in
/// one fixed order whatever the ISA tier or split.
void gemm_strided(const float* a, std::size_t a_rows, std::size_t a_depth,
                  const float* b, std::size_t b_cols, std::size_t b_depth,
                  float* c, int m, int k, int n, bool accumulate,
                  int depth_block) {
  ODENET_CHECK(m >= 0 && k >= 0 && n >= 0, "bad gemm dimensions");
  const int kc = depth_block > 0 ? depth_block : std::max(k, 1);
  const int blocks = std::max(1, (k + kc - 1) / kc);
  std::vector<PackedGemmA> pa(static_cast<std::size_t>(blocks));
  for (int blk = 0; blk < blocks; ++blk) {
    const int d0 = blk * kc;
    PackedGemmA& p = pa[static_cast<std::size_t>(blk)];
    p.m = m;
    p.k = std::min(kc, k - d0);
    pack_panels<kTileRows>(a + static_cast<std::size_t>(d0) * a_depth, m, p.k,
                           a_rows, a_depth, p.data);
  }
  const GemmKernels& kernels = active_gemm_kernels();
  run_tiles<float>(
      m, k, n, static_cast<std::size_t>(k) * kTileCols,
      TileOut<float>{c, accumulate ? c : nullptr, m,
                     static_cast<std::size_t>(n)},
      [&](int p0, int pn, std::vector<float>& s) {
        pack_panels<kTileCols>(b + static_cast<std::size_t>(p0) * b_cols, pn,
                               k, b_cols, b_depth, s);
        return static_cast<const float*>(s.data());
      },
      [&](int t, int rows, const float* bp, float* ct, std::size_t ldc,
          const float*, std::size_t) {
        const GemmTile4x16Fn run =
            rows == kTileRows ? kernels.tile4x16 : kernels.tile16x16;
        for (int blk = 0; blk < blocks; ++blk) {
          const PackedGemmA& p = pa[static_cast<std::size_t>(blk)];
          const float* ap =
              p.data.data() + static_cast<std::size_t>(t) * p.k * kTileRows;
          const float* bb =
              bp + static_cast<std::size_t>(blk) * kc * kTileCols;
          if (blk == 0) {
            run(ap, bb, p.k, ct, ldc, accumulate);
            continue;
          }
          float part[kGemmGroupRows * kTileCols];
          run(ap, bb, p.k, part, kTileCols, false);
          for (int i = 0; i < rows; ++i) {
            float* crow = ct + static_cast<std::size_t>(i) * ldc;
            for (int j = 0; j < kTileCols; ++j) {
              crow[j] += part[i * kTileCols + j];
            }
          }
        }
      });
}

}  // namespace

void gemm_tiled(const float* a, const float* b, float* c, int m, int k, int n,
                bool accumulate) {
  gemm_strided(a, static_cast<std::size_t>(k), 1, b, 1,
               static_cast<std::size_t>(n), c, m, k, n, accumulate, 0);
}

void gemm_at(const float* a, const float* b, float* c, int m, int k, int n,
             bool accumulate) {
  // A stored [k, m]: A[i, p] = a[p*m + i].
  gemm_strided(a, 1, static_cast<std::size_t>(m), b, 1,
               static_cast<std::size_t>(n), c, m, k, n, accumulate,
               kDepthBlock);
}

void gemm_bt_tiled(const float* a, const float* b, float* c, int m, int k,
                   int n, bool accumulate) {
  // B stored [n, k]: B[p, j] = b[j*k + p].
  gemm_strided(a, static_cast<std::size_t>(k), 1, b,
               static_cast<std::size_t>(k), 1, c, m, k, n, accumulate,
               kDepthBlock);
}

void gemm_tiled_pb(const float* a, const PackedGemmB& b, float* c, int m,
                   bool accumulate) {
  ODENET_CHECK(m >= 0, "bad gemm dimensions");
  PackedGemmA pa;
  pack_gemm_a(a, m, b.k, pa);
  const std::size_t bstride = static_cast<std::size_t>(b.k) * kTileCols;
  auto prepacked = [&](int p0, int, std::vector<float>&) {
    return b.data.data() + static_cast<std::size_t>(p0 / kTileCols) * bstride;
  };
  run_tiles<float>(m, b.k, b.n, bstride,
                   TileOut<float>{c, accumulate ? c : nullptr, m,
                                  static_cast<std::size_t>(b.n)},
                   prepacked, plain_tile(pa, accumulate));
}

void gemm_i16_tiled_pa(const PackedGemmA16& a, const std::int16_t* b,
                       std::int32_t* c, int n, bool accumulate) {
  ODENET_CHECK(n >= 0, "bad gemm dimensions");
  const int k = a.k;
  run_tiles<std::int16_t>(
      a.m, k, n, static_cast<std::size_t>(a.kpairs()) * kTileCols * 2,
      TileOut<std::int32_t>{c, accumulate ? c : nullptr, a.m,
                            static_cast<std::size_t>(n)},
      [&](int p0, int pn, std::vector<std::int16_t>& s) {
        pack_panels<kTileCols>(b + p0, pn, k, 1, static_cast<std::size_t>(n),
                               s);
        return static_cast<const std::int16_t*>(s.data());
      },
      plain_tile(a, accumulate));
}

void gemm_lowered_ep(const PackedGemmA& a, const float* src,
                     const LoweringGeometry& g, int batch, float* out,
                     const GemmEpilogue& ep) {
  const int m = a.m, k = a.k;
  ODENET_CHECK(k == static_cast<int>(g.col_rows()),
               "gemm_lowered_ep: packed A k " << k << " != lowering rows "
                                              << g.col_rows());
  ODENET_CHECK(batch > 0, "gemm_lowered_ep needs a non-empty batch");
  const ImageGather<float> plan(src, g, batch);
  const int n = static_cast<int>(g.col_cols() * static_cast<std::size_t>(batch));
  const GemmKernels& kernels = active_gemm_kernels();
  run_tiles<float>(
      m, k, n, static_cast<std::size_t>(k) * kTileCols,
      TileOut<float>{out, ep.residual, m, g.col_cols()},
      [&](int p0, int pn, std::vector<float>& s) {
        return gather_panel(plan, k, p0, pn, s);
      },
      [&](int t, int rows, const float* bp, float* c, std::size_t ldc,
          const float* r, std::size_t ldr) {
        float s4[kTileRows] = {}, b4[kTileRows] = {};
        const int i0 = t * kTileRows;
        (rows == kTileRows ? kernels.tile4x16_ep : kernels.tile16x16_ep)(
            a.data.data() + static_cast<std::size_t>(t) * k * kTileRows, bp,
            k, c, ldc, row_coeffs(ep.scale, i0, rows, m, s4),
            row_coeffs(ep.shift, i0, rows, m, b4), ep.relu, r, ldr, ep.beta);
      });
}

void gemm_i16_lowered_ep(const PackedGemmA16& a, const std::int16_t* src,
                         const LoweringGeometry& g, int batch, float* out,
                         const GemmI16Epilogue& ep) {
  const int m = a.m, k = a.k;
  ODENET_CHECK(k == static_cast<int>(g.col_rows()),
               "gemm_i16_lowered_ep: packed A k " << k
                   << " != lowering rows " << g.col_rows());
  ODENET_CHECK(batch > 0, "gemm_i16_lowered_ep needs a non-empty batch");
  ODENET_CHECK((ep.scale == nullptr) == (ep.shift == nullptr),
               "gemm_i16_lowered_ep: scale and shift are set together");
  const ImageGather<std::int16_t> plan(src, g, batch);
  const int n = static_cast<int>(g.col_cols() * static_cast<std::size_t>(batch));
  const int kp = a.kpairs();
  const GemmKernels& kernels = active_gemm_kernels();
  run_tiles<std::int16_t>(
      m, k, n, static_cast<std::size_t>(kp) * kTileCols * 2,
      TileOut<float>{out, ep.residual, m, g.col_cols()},
      [&](int p0, int pn, std::vector<std::int16_t>& s) {
        return gather_panel(plan, k, p0, pn, s);
      },
      [&](int t, int rows, const std::int16_t* bp, float* c,
          std::size_t ldc, const float* r, std::size_t ldr) {
        float s4[kTileRows] = {}, b4[kTileRows] = {};
        const int i0 = t * kTileRows;
        (rows == kTileRows ? kernels.tile4x16_i16_ep
                           : kernels.tile16x16_i16_ep)(
            a.data.data() + static_cast<std::size_t>(t) * kp * kTileRows * 2,
            bp, kp, c, ldc, row_coeffs(ep.scale, i0, rows, m, s4),
            row_coeffs(ep.shift, i0, rows, m, b4), r, ldr, ep.round_shift,
            ep.frac_bits, ep.relu, ep.beta);
      });
}

}  // namespace odenet::core
