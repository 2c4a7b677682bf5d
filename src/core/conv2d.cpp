#include "core/conv2d.hpp"

#include <atomic>
#include <cstring>

#include "core/im2col.hpp"
#include "util/thread_pool.hpp"

namespace odenet::core {

namespace {
// Process-global monotonic layer identity. Never recycled (unlike a heap
// address), so caches keyed by uid can never alias a dead layer's entry
// onto a new layer that happened to reuse its storage.
std::atomic<std::uint64_t> g_conv_uid{0};
}  // namespace

Conv2d::Conv2d(const Conv2dConfig& cfg, std::string name)
    : cfg_(cfg),
      name_(std::move(name)),
      uid_(++g_conv_uid),
      weight_(name_ + ".weight",
              Tensor({cfg.out_channels,
                      cfg.in_channels + (cfg.time_channel ? 1 : 0),
                      cfg.kernel, cfg.kernel})) {
  ODENET_CHECK(cfg.in_channels > 0 && cfg.out_channels > 0,
               "conv2d needs positive channel counts");
  ODENET_CHECK(cfg.kernel > 0 && cfg.stride > 0 && cfg.pad >= 0,
               "invalid conv2d geometry");
}

int Conv2d::out_extent(int in, int kernel, int stride, int pad) {
  ODENET_CHECK(in + 2 * pad >= kernel, "conv input smaller than kernel");
  return (in + 2 * pad - kernel) / stride + 1;
}

std::uint64_t Conv2d::mac_count(int in_h, int in_w) const {
  const std::uint64_t ho = out_extent(in_h, cfg_.kernel, cfg_.stride, cfg_.pad);
  const std::uint64_t wo = out_extent(in_w, cfg_.kernel, cfg_.stride, cfg_.pad);
  return ho * wo * static_cast<std::uint64_t>(cfg_.out_channels) *
         static_cast<std::uint64_t>(cfg_.in_channels) *
         static_cast<std::uint64_t>(cfg_.kernel) *
         static_cast<std::uint64_t>(cfg_.kernel);
}

Tensor Conv2d::augment(const Tensor& x) const {
  if (!cfg_.time_channel) return x;
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  ODENET_CHECK(c == cfg_.in_channels,
               name_ << ": expected " << cfg_.in_channels << " channels, got "
                     << c);
  Tensor out({n, c + 1, h, w});
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t in_sample = static_cast<std::size_t>(c) * plane;
  const std::size_t out_sample = static_cast<std::size_t>(c + 1) * plane;
  for (int i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * out_sample, x.data() + i * in_sample,
                in_sample * sizeof(float));
    float* tplane = out.data() + i * out_sample + in_sample;
    for (std::size_t j = 0; j < plane; ++j) tplane[j] = time_;
  }
  return out;
}

Tensor Conv2d::forward_direct(const Tensor& in) const {
  const int n = in.dim(0), ci = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int k = cfg_.kernel, s = cfg_.stride, p = cfg_.pad;
  const int ho = out_extent(h, k, s, p);
  const int wo = out_extent(w, k, s, p);
  const int co = cfg_.out_channels;

  Tensor out({n, co, ho, wo});
  const float* wt = weight_.value.data();

  // Parallelize over (sample, output channel) pairs: writes are disjoint.
  util::parallel_for(
      0, static_cast<std::size_t>(n) * co,
      [&](std::size_t idx) {
        const int ni = static_cast<int>(idx) / co;
        const int coi = static_cast<int>(idx) % co;
        const std::size_t wbase =
            static_cast<std::size_t>(coi) * ci * k * k;
        float* dst = out.data() +
                     ((static_cast<std::size_t>(ni) * co + coi) *
                      static_cast<std::size_t>(ho) * wo);
        const float* src =
            in.data() + static_cast<std::size_t>(ni) * ci * h * w;
        for (int cii = 0; cii < ci; ++cii) {
          const float* plane = src + static_cast<std::size_t>(cii) * h * w;
          for (int kh = 0; kh < k; ++kh) {
            for (int kw = 0; kw < k; ++kw) {
              const float wv = wt[wbase + (static_cast<std::size_t>(cii) * k +
                                           kh) * k + kw];
              if (wv == 0.0f) continue;
              for (int oh = 0; oh < ho; ++oh) {
                const int ih = oh * s - p + kh;
                if (ih < 0 || ih >= h) continue;
                const float* row = plane + static_cast<std::size_t>(ih) * w;
                float* orow = dst + static_cast<std::size_t>(oh) * wo;
                for (int ow = 0; ow < wo; ++ow) {
                  const int iw = ow * s - p + kw;
                  if (iw < 0 || iw >= w) continue;
                  orow[ow] += wv * row[iw];
                }
              }
            }
          }
        }
      });
  return out;
}

const PackedGemmA& Conv2d::packed_weights() {
  const bool hit = packed_valid_ && weight_version_ != 0 &&
                   packed_version_ == weight_version_;
  if (!hit) {
    const int co = cfg_.out_channels;
    const int kk = static_cast<int>(weight_.value.numel()) / co;
    pack_gemm_a(weight_.value.data(), co, kk, packed_weight_);
    packed_version_ = weight_version_;
    packed_valid_ = true;
    ++weight_packs_;
  }
  return packed_weight_;
}

Tensor Conv2d::forward_im2col(const Tensor& in) {
  const LoweringGeometry g{.channels = in.dim(1), .height = in.dim(2),
                           .width = in.dim(3), .kernel = cfg_.kernel,
                           .stride = cfg_.stride, .pad = cfg_.pad};
  // The whole batch in one implicit-lowering GEMM: B panels are gathered
  // straight from the image and tiles store NCHW, so there is neither a
  // column matrix nor a layout permute.
  Tensor out({in.dim(0), cfg_.out_channels, g.out_h(), g.out_w()});
  gemm_lowered_ep(packed_weights(), in.data(), g, in.dim(0), out.data(),
                  GemmEpilogue{});
  return out;
}

void Conv2d::forward_fused(const Tensor& x, const ConvEpilogue& ep,
                           Tensor& out, bool accumulate) {
  ODENET_CHECK(!training_,
               name_ << ": forward_fused is eval-only (training mode keeps "
                        "the unfused forward)");
  ODENET_CHECK(cfg_.algo == ConvAlgo::kIm2col,
               name_ << ": forward_fused requires the kIm2col algorithm");
  ODENET_CHECK(x.ndim() == 4, name_ << ": conv2d expects NCHW input, got "
                                    << x.shape_str());
  ODENET_CHECK(x.dim(0) > 0, name_ << ": empty batch (n = 0)");
  const int n = x.dim(0), cx = x.dim(1), h = x.dim(2), w = x.dim(3);
  ODENET_CHECK(cx == cfg_.in_channels,
               name_ << ": expected " << cfg_.in_channels << " channels, got "
                     << cx);
  const int ci = cx + (cfg_.time_channel ? 1 : 0);
  ODENET_CHECK(ci == weight_.value.dim(1),
               name_ << ": channel mismatch " << ci << " vs weight "
                     << weight_.value.shape_str());
  const LoweringGeometry g{.channels = ci, .height = h, .width = w,
                           .kernel = cfg_.kernel, .stride = cfg_.stride,
                           .pad = cfg_.pad};
  const int ho = g.out_h(), wo = g.out_w();
  const int co = cfg_.out_channels;
  const bool shape_ok = out.ndim() == 4 && out.dim(0) == n &&
                        out.dim(1) == co && out.dim(2) == ho &&
                        out.dim(3) == wo;
  if (accumulate) {
    ODENET_CHECK(shape_ok, name_ << ": accumulate target shape "
                                 << out.shape_str() << " does not match ["
                                 << n << "," << co << "," << ho << "," << wo
                                 << "]");
  } else if (!shape_ok) {
    out = Tensor({n, co, ho, wo});
  }

  // The augmented input lives in the recycled arena, so after warmup a
  // fused forward allocates nothing; the GEMM gathers its B panels from
  // it directly.
  const float* src = x.data();
  if (cfg_.time_channel) {
    const std::size_t plane = static_cast<std::size_t>(h) * w;
    const std::size_t in_sample = static_cast<std::size_t>(cx) * plane;
    const std::size_t aug_sample = static_cast<std::size_t>(ci) * plane;
    ScratchArena& arena = active_arena();
    arena.frame(static_cast<std::size_t>(n) * aug_sample);
    float* aug = arena.alloc(static_cast<std::size_t>(n) * aug_sample);
    for (int i = 0; i < n; ++i) {
      std::memcpy(aug + i * aug_sample, src + i * in_sample,
                  in_sample * sizeof(float));
      float* tplane = aug + i * aug_sample + in_sample;
      for (std::size_t j = 0; j < plane; ++j) tplane[j] = time_;
    }
    src = aug;
  }
  GemmEpilogue ge;
  ge.scale = ep.scale;
  ge.shift = ep.shift;
  ge.relu = ep.relu;
  // Accumulation is the tile's residual: out = ep(conv) + 1 * out.
  if (accumulate) ge.residual = out.data();
  gemm_lowered_ep(packed_weights(), src, g, n, out.data(), ge);
}

Tensor Conv2d::forward(const Tensor& x) {
  ODENET_CHECK(x.ndim() == 4, name_ << ": conv2d expects NCHW input, got "
                                    << x.shape_str());
  ODENET_CHECK(x.dim(0) > 0, name_ << ": empty batch (n = 0)");
  Tensor in = augment(x);
  ODENET_CHECK(in.dim(1) == weight_.value.dim(1),
               name_ << ": channel mismatch " << in.dim(1) << " vs weight "
                     << weight_.value.shape_str());
  Tensor out;
  switch (cfg_.algo) {
    case ConvAlgo::kIm2col: out = forward_im2col(in); break;
    case ConvAlgo::kDirect: out = forward_direct(in); break;
  }
  if (training_) cached_input_ = std::move(in);
  return out;
}

void Conv2d::backward_direct(const Tensor& in, const Tensor& grad_out,
                             Tensor& grad_in_aug) {
  const int n = in.dim(0), ci = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int k = cfg_.kernel, s = cfg_.stride, p = cfg_.pad;
  const int co = cfg_.out_channels;
  const int ho = grad_out.dim(2), wo = grad_out.dim(3);

  // dL/dW: independent per output channel.
  float* gw = weight_.grad.data();
  util::parallel_for(0, static_cast<std::size_t>(co), [&](std::size_t coi) {
    for (int ni = 0; ni < n; ++ni) {
      const float* go = grad_out.data() +
                        ((static_cast<std::size_t>(ni) * co + coi) *
                         static_cast<std::size_t>(ho) * wo);
      const float* src = in.data() + static_cast<std::size_t>(ni) * ci * h * w;
      for (int cii = 0; cii < ci; ++cii) {
        const float* plane = src + static_cast<std::size_t>(cii) * h * w;
        for (int kh = 0; kh < k; ++kh) {
          for (int kw = 0; kw < k; ++kw) {
            double acc = 0.0;
            for (int oh = 0; oh < ho; ++oh) {
              const int ih = oh * s - p + kh;
              if (ih < 0 || ih >= h) continue;
              const float* row = plane + static_cast<std::size_t>(ih) * w;
              const float* grow = go + static_cast<std::size_t>(oh) * wo;
              for (int ow = 0; ow < wo; ++ow) {
                const int iw = ow * s - p + kw;
                if (iw < 0 || iw >= w) continue;
                acc += static_cast<double>(grow[ow]) * row[iw];
              }
            }
            gw[(coi * ci + cii) * static_cast<std::size_t>(k) * k +
               static_cast<std::size_t>(kh) * k + kw] +=
                static_cast<float>(acc);
          }
        }
      }
    }
  });

  // dL/dX on the augmented input; independent per sample.
  const float* wt = weight_.value.data();
  util::parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t ni) {
    float* gi = grad_in_aug.data() + ni * static_cast<std::size_t>(ci) * h * w;
    for (int coi = 0; coi < co; ++coi) {
      const float* go = grad_out.data() +
                        ((ni * co + coi) * static_cast<std::size_t>(ho) * wo);
      const std::size_t wbase = static_cast<std::size_t>(coi) * ci * k * k;
      for (int cii = 0; cii < ci; ++cii) {
        float* gplane = gi + static_cast<std::size_t>(cii) * h * w;
        for (int kh = 0; kh < k; ++kh) {
          for (int kw = 0; kw < k; ++kw) {
            const float wv =
                wt[wbase + (static_cast<std::size_t>(cii) * k + kh) * k + kw];
            if (wv == 0.0f) continue;
            for (int oh = 0; oh < ho; ++oh) {
              const int ih = oh * s - p + kh;
              if (ih < 0 || ih >= h) continue;
              float* grow = gplane + static_cast<std::size_t>(ih) * w;
              const float* gorow = go + static_cast<std::size_t>(oh) * wo;
              for (int ow = 0; ow < wo; ++ow) {
                const int iw = ow * s - p + kw;
                if (iw < 0 || iw >= w) continue;
                grow[iw] += wv * gorow[ow];
              }
            }
          }
        }
      }
    }
  });
}

void Conv2d::backward_im2col(const Tensor& in, const Tensor& grad_out,
                             Tensor& grad_in_aug) {
  const int n = in.dim(0), ci = in.dim(1), h = in.dim(2), w = in.dim(3);
  const LoweringGeometry g{.channels = ci, .height = h, .width = w,
                           .kernel = cfg_.kernel, .stride = cfg_.stride,
                           .pad = cfg_.pad};
  const int co = cfg_.out_channels;
  const int kk = static_cast<int>(g.col_rows());
  const std::size_t cc = g.col_cols();
  const std::size_t ncols = cc * static_cast<std::size_t>(n);

  // One lowering of the whole batch drives BOTH gradients: dW from one
  // tiled A*B^T product, the column gradient from one packed GEMM against
  // a transposed weight view, each on the batched [kk, n*cc] layout. The
  // channel-major grad_out view ([co, n*cc]) the GEMMs need is the
  // [n, co, cc] tensor permuted; for n == 1 they coincide, so no copy.
  // All scratch is arena-recycled — training stops allocating in the
  // inner loop.
  ScratchArena& arena = active_arena();
  const std::size_t gperm_floats =
      n == 1 ? 0 : static_cast<std::size_t>(co) * ncols;
  const std::size_t wt_floats =
      static_cast<std::size_t>(kk) * static_cast<std::size_t>(co);
  arena.frame(2 * (static_cast<std::size_t>(kk) * ncols) + gperm_floats +
              wt_floats);
  float* cols = arena.alloc(static_cast<std::size_t>(kk) * ncols);
  float* grad_cols = arena.alloc(static_cast<std::size_t>(kk) * ncols);
  const float* gperm = grad_out.data();
  if (n > 1) {
    float* gp = arena.alloc(gperm_floats);
    permute_channel_major(grad_out.data(), gp, n, co, cc, /*to_nchw=*/false);
    gperm = gp;
  }

  im2col_batched(in.data(), g, n, cols);
  // dW[co, kk] += G[co, n*cc] x cols^T (cols stored [kk, n*cc]): an A*B^T
  // of two row-major matrices with the long axis contiguous — the tiled NT
  // kernel streams cols once per four output rows.
  gemm_bt_tiled(gperm, cols, weight_.grad.data(), co, static_cast<int>(ncols),
                kk, /*accumulate=*/true);
  // grad_cols[kk, n*cc] = W^T[kk, co] x G[co, n*cc]. Materializing the
  // tiny transposed weight view ([kk, co], a few hundred KB at most) buys
  // the packed gemm_tiled fast path for the big product.
  float* wt = arena.alloc(wt_floats);
  const float* wsrc = weight_.value.data();
  for (int coi = 0; coi < co; ++coi) {
    for (int p = 0; p < kk; ++p) {
      wt[static_cast<std::size_t>(p) * co + coi] =
          wsrc[static_cast<std::size_t>(coi) * kk + p];
    }
  }
  gemm_tiled(wt, gperm, grad_cols, kk, co, static_cast<int>(ncols),
             /*accumulate=*/false);
  col2im_batched(grad_cols, g, n, grad_in_aug.data());
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  ODENET_CHECK(!cached_input_.empty(),
               name_ << ": backward without forward in training mode");
  const Tensor& in = cached_input_;
  const int n = in.dim(0), ci = in.dim(1), h = in.dim(2), w = in.dim(3);
  ODENET_CHECK(grad_out.ndim() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == cfg_.out_channels,
               name_ << ": grad_out shape " << grad_out.shape_str());

  Tensor grad_in_aug({n, ci, h, w});
  switch (cfg_.algo) {
    case ConvAlgo::kIm2col:
      backward_im2col(in, grad_out, grad_in_aug);
      break;
    case ConvAlgo::kDirect:
      backward_direct(in, grad_out, grad_in_aug);
      break;
  }

  if (!cfg_.time_channel) return grad_in_aug;

  // Strip the gradient of the constant time plane (t is not trained).
  const int cd = cfg_.in_channels;
  Tensor grad_in({n, cd, h, w});
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int ni = 0; ni < n; ++ni) {
    std::memcpy(grad_in.data() + static_cast<std::size_t>(ni) * cd * plane,
                grad_in_aug.data() +
                    static_cast<std::size_t>(ni) * ci * plane,
                static_cast<std::size_t>(cd) * plane * sizeof(float));
  }
  return grad_in;
}

}  // namespace odenet::core
