// im2col_batched/col2im_batched/gemm and the equivalence of Conv2d's two
// algorithms; im2col_block writes only its own column block.
#include <gtest/gtest.h>

#include <cmath>

#include "core/conv2d.hpp"
#include "core/im2col.hpp"
#include "core/init.hpp"
#include "util/rng.hpp"

using namespace odenet::core;
namespace ou = odenet::util;

namespace {
Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}
}  // namespace

TEST(Im2col, GeometryFormulas) {
  LoweringGeometry g{.channels = 3, .height = 8, .width = 8};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.col_rows(), 27u);
  EXPECT_EQ(g.col_cols(), 64u);
  LoweringGeometry s2{.channels = 2, .height = 8, .width = 8, .stride = 2};
  EXPECT_EQ(s2.out_h(), 4);
}

TEST(Im2col, UnfoldsCenterTapExactly) {
  // With k=3, pad=1, stride=1 the center tap row (kh=kw=1) is the image
  // itself.
  LoweringGeometry g{.channels = 1, .height = 3, .width = 3};
  float src[9];
  for (int i = 0; i < 9; ++i) src[i] = static_cast<float>(i + 1);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col_batched(src, g, 1, cols.data());
  const float* center = cols.data() + 4 * g.col_cols();  // row kh=1,kw=1
  for (int i = 0; i < 9; ++i) EXPECT_EQ(center[i], src[i]);
  // Top-left tap at output (0,0) reads the zero padding.
  EXPECT_EQ(cols[0], 0.0f);
  // Top-left tap at output (1,1) reads src(0,0).
  EXPECT_EQ(cols[4], 1.0f);
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <lower(x), y> == <x, col2im(y)> for random x, y.
  ou::Rng rng(2);
  LoweringGeometry g{.channels = 3, .height = 5, .width = 7, .stride = 2};
  std::vector<float> x(static_cast<std::size_t>(3) * 5 * 7);
  for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
  std::vector<float> y(g.col_rows() * g.col_cols());
  for (auto& v : y) v = static_cast<float>(rng.normal(0, 1));

  std::vector<float> cols(y.size());
  im2col_batched(x.data(), g, 1, cols.data());
  double lhs = 0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += cols[i] * y[i];

  std::vector<float> back(x.size(), 0.0f);
  col2im_batched(y.data(), g, 1, back.data());
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, GemmMatchesNaive) {
  ou::Rng rng(3);
  const int m = 5, k = 7, n = 4;
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.normal(0, 1));
  for (auto& v : b) v = static_cast<float>(rng.normal(0, 1));
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p)
      for (int j = 0; j < n; ++j) ref[i * n + j] += a[i * k + p] * b[p * n + j];
  gemm_tiled(a.data(), b.data(), c.data(), m, k, n, false);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);

  // Accumulation adds on top.
  gemm_tiled(a.data(), b.data(), c.data(), m, k, n, true);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], 2 * ref[i], 1e-4f);
}

TEST(Im2col, GemmTransposedVariants) {
  ou::Rng rng(4);
  const int m = 4, k = 6, n = 3;
  std::vector<float> at(k * m), bt(n * k), b(k * n), a(m * k);
  for (auto& v : at) v = static_cast<float>(rng.normal(0, 1));
  for (auto& v : b) v = static_cast<float>(rng.normal(0, 1));
  for (auto& v : a) v = static_cast<float>(rng.normal(0, 1));
  for (auto& v : bt) v = static_cast<float>(rng.normal(0, 1));

  // gemm_at: C = A^T B with A stored [k,m].
  std::vector<float> c1(m * n), ref1(m * n, 0.0f);
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p)
      for (int j = 0; j < n; ++j)
        ref1[i * n + j] += at[p * m + i] * b[p * n + j];
  gemm_at(at.data(), b.data(), c1.data(), m, k, n, false);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c1[i], ref1[i], 1e-4f);

  // gemm_bt_tiled: C = A B^T with B stored [n,k].
  std::vector<float> c2(m * n), ref2(m * n, 0.0f);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j)
      for (int p = 0; p < k; ++p)
        ref2[i * n + j] += a[i * k + p] * bt[j * k + p];
  gemm_bt_tiled(a.data(), bt.data(), c2.data(), m, k, n, false);
  for (int i = 0; i < m * n; ++i) EXPECT_NEAR(c2[i], ref2[i], 1e-4f);
}

TEST(Im2col, BlockLoweringWritesOnlyItsOwnBlock) {
  // One sample lowered into the middle block of a NaN-filled matrix three
  // samples wide: every value outside [cc, 2*cc) of each row must still be
  // NaN, and the block must equal the sample's batch-1 lowering. The
  // sweep includes pad > H (k = 5, pad = 2 over 1-row planes; k = 7,
  // pad = 3 over 2-row planes), where a tap's vertical shift exceeds the
  // plane — under im2col_batched a stray write there lands in a
  // neighbouring sample's block while another pool task fills it.
  ou::Rng rng(9);
  const float nan = std::nanf("");
  for (int c : {1, 2}) {
    for (int h : {1, 2, 3, 5}) {
      for (int w : {1, 3, 4}) {
        for (int k : {1, 3, 5, 7}) {
          for (int s : {1, 2}) {
            for (int pad = 0; pad <= 3; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const LoweringGeometry g{.channels = c, .height = h,
                                       .width = w, .kernel = k,
                                       .stride = s, .pad = pad};
              SCOPED_TRACE(testing::Message()
                           << "c=" << c << " h=" << h << " w=" << w
                           << " k=" << k << " s=" << s << " pad=" << pad);
              std::vector<float> x(static_cast<std::size_t>(c) * h * w);
              for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
              const std::size_t cc = g.col_cols(), rows = g.col_rows();
              std::vector<float> want(rows * cc);
              im2col_batched(x.data(), g, 1, want.data());
              std::vector<float> wide(rows * 3 * cc, nan);
              im2col_block(x.data(), g, 3 * cc, wide.data() + cc);
              for (std::size_t r = 0; r < rows; ++r) {
                const float* row = wide.data() + r * 3 * cc;
                for (std::size_t j = 0; j < cc; ++j) {
                  ASSERT_TRUE(std::isnan(row[j])) << "row " << r << " left";
                  ASSERT_TRUE(std::isnan(row[2 * cc + j]))
                      << "row " << r << " right";
                  ASSERT_EQ(row[cc + j], want[r * cc + j])
                      << "row " << r << " col " << j;
                }
              }
            }
          }
        }
      }
    }
  }
}

struct AlgoCase {
  int n, cin, cout, size, stride;
  bool time_channel;
};

class ConvAlgoEquivalence : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(ConvAlgoEquivalence, ForwardMatchesDirect) {
  const auto p = GetParam();
  ou::Rng rng(5);
  Conv2d direct({.in_channels = p.cin, .out_channels = p.cout,
                 .stride = p.stride, .time_channel = p.time_channel,
                 .algo = ConvAlgo::kDirect});
  init_conv(direct, rng);
  Conv2d lowered({.in_channels = p.cin, .out_channels = p.cout,
                  .stride = p.stride, .time_channel = p.time_channel,
                  .algo = ConvAlgo::kIm2col});
  lowered.weight().value = direct.weight().value;
  direct.set_time(0.7f);
  lowered.set_time(0.7f);

  Tensor x = random_tensor({p.n, p.cin, p.size, p.size}, rng);
  Tensor a = direct.forward(x);
  Tensor b = lowered.forward(x);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-4f) << "at " << i;
  }
}

TEST_P(ConvAlgoEquivalence, BackwardMatchesDirect) {
  const auto p = GetParam();
  ou::Rng rng(6);
  Conv2d direct({.in_channels = p.cin, .out_channels = p.cout,
                 .stride = p.stride, .time_channel = p.time_channel,
                 .algo = ConvAlgo::kDirect});
  init_conv(direct, rng);
  Conv2d lowered({.in_channels = p.cin, .out_channels = p.cout,
                  .stride = p.stride, .time_channel = p.time_channel,
                  .algo = ConvAlgo::kIm2col});
  lowered.weight().value = direct.weight().value;
  direct.set_training(true);
  lowered.set_training(true);
  direct.set_time(0.3f);
  lowered.set_time(0.3f);

  Tensor x = random_tensor({p.n, p.cin, p.size, p.size}, rng);
  const int ho = Conv2d::out_extent(p.size, 3, p.stride, 1);
  Tensor g = random_tensor({p.n, p.cout, ho, ho}, rng);

  direct.forward(x);
  lowered.forward(x);
  Tensor gin_a = direct.backward(g);
  Tensor gin_b = lowered.backward(g);

  ASSERT_TRUE(gin_a.same_shape(gin_b));
  for (std::size_t i = 0; i < gin_a.numel(); ++i) {
    EXPECT_NEAR(gin_a.data()[i], gin_b.data()[i], 1e-3f) << "gin " << i;
  }
  for (std::size_t i = 0; i < direct.weight().grad.numel(); ++i) {
    EXPECT_NEAR(direct.weight().grad.data()[i],
                lowered.weight().grad.data()[i], 1e-3f)
        << "gw " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvAlgoEquivalence,
    ::testing::Values(AlgoCase{1, 3, 4, 8, 1, false},
                      AlgoCase{2, 4, 4, 6, 1, false},
                      AlgoCase{1, 3, 8, 8, 2, false},
                      AlgoCase{2, 2, 3, 5, 1, true},
                      AlgoCase{1, 4, 4, 8, 1, true}));
