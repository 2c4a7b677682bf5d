// Batched im2col+GEMM conv fast path: property-style parity sweep.
//
// The batched path (forward: one implicit-lowering GEMM for the whole
// micro-batch; backward: one column matrix + arena-backed scratch) must
// agree with the independent direct tap-walking kernel, forward and
// backward (dW and dX), across randomized geometries: kernel {1,3,5},
// stride {1,2}, pad {0,1,2}, batch {1,2,7,16}, non-square H != W, with
// and without the concat-time channel. Max abs error <= 1e-4 everywhere.
// The sweep runs again with the GEMM split forced onto explicit 2- and
// 4-worker pools, which must reproduce the 1-worker output bitwise, and
// capped at AVX2, which the AVX-512 tier must reproduce bitwise. Also
// pins down the scratch behaviour (no regrowth after the first call) and
// the n = 0 and pad-only-edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/conv2d.hpp"
#include "core/gemm_kernels.hpp"
#include "core/init.hpp"
#include "isa_tiers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace odenet::core;
namespace ou = odenet::util;

namespace {

constexpr float kTol = 1e-4f;

Tensor random_tensor(std::vector<int> shape, ou::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b)) << a.shape_str() << " vs " << b.shape_str();
  double diff = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) -
                                    b.data()[i]));
  }
  return diff;
}

struct Geometry {
  int n, cin, cout, h, w, k, s, p;
  bool time_channel;

  std::string str() const {
    return "n=" + std::to_string(n) + " cin=" + std::to_string(cin) +
           " cout=" + std::to_string(cout) + " h=" + std::to_string(h) +
           " w=" + std::to_string(w) + " k=" + std::to_string(k) +
           " s=" + std::to_string(s) + " p=" + std::to_string(p) +
           (time_channel ? " tc" : "");
  }
};

Conv2d make_conv(const Geometry& g, ConvAlgo algo) {
  return Conv2d({.in_channels = g.cin,
                 .out_channels = g.cout,
                 .kernel = g.k,
                 .stride = g.s,
                 .pad = g.p,
                 .time_channel = g.time_channel,
                 .algo = algo});
}

/// Forward + backward parity of the batched path against direct, on one
/// geometry. Both share identical weights. Returns the batched outputs
/// (y, dX, dW) for the thread-split comparison.
std::vector<Tensor> check_parity(const Geometry& g, ou::Rng& rng) {
  SCOPED_TRACE(g.str());
  Conv2d direct = make_conv(g, ConvAlgo::kDirect);
  init_conv(direct, rng);
  Conv2d batched = make_conv(g, ConvAlgo::kIm2col);
  batched.weight().value = direct.weight().value;

  for (Conv2d* c : {&direct, &batched}) {
    c->set_training(true);
    c->set_time(0.6f);
  }

  Tensor x = random_tensor({g.n, g.cin, g.h, g.w}, rng);
  Tensor y_direct = direct.forward(x);
  Tensor y_batched = batched.forward(x);
  EXPECT_LE(max_abs_diff(y_batched, y_direct), kTol) << "fwd vs direct";

  Tensor gout = random_tensor(y_direct.shape(), rng);
  Tensor gx_direct = direct.backward(gout);
  Tensor gx_batched = batched.backward(gout);
  EXPECT_LE(max_abs_diff(gx_batched, gx_direct), kTol) << "dX vs direct";
  EXPECT_LE(max_abs_diff(batched.weight().grad, direct.weight().grad), kTol)
      << "dW vs direct";
  return {y_batched, gx_batched, batched.weight().grad};
}

/// The sweep's geometries: the full kernel/stride/pad grid; batch sizes
/// cycle through {1,2,7,16} and every spatial extent is randomized
/// non-square (H != W).
std::vector<Geometry> sweep_geometries(ou::Rng& rng) {
  const int batches[] = {1, 2, 7, 16};
  std::vector<Geometry> out;
  int case_index = 0;
  for (int k : {1, 3, 5}) {
    for (int s : {1, 2}) {
      for (int p : {0, 1, 2}) {
        Geometry g;
        g.k = k;
        g.s = s;
        g.p = p;
        g.n = batches[case_index % 4];
        g.cin = 1 + case_index % 4;
        g.cout = 1 + (case_index / 2) % 5;
        // Non-square, valid for the kernel: in + 2p >= k.
        const int h_min = std::max(1, k - 2 * p);
        g.h = h_min + static_cast<int>(rng.uniform_int(6));
        do {
          g.w = h_min + static_cast<int>(rng.uniform_int(6));
        } while (g.w == g.h);
        g.time_channel = (case_index % 3 == 0);
        out.push_back(g);
        ++case_index;
      }
    }
  }
  return out;
}

/// RAII kernel-pool + parallel-threshold override.
struct PoolOverride {
  PoolOverride(ou::ThreadPool* pool, std::size_t min_flops) {
    set_kernel_pool(pool);
    gemm_set_parallel_min_flops(min_flops);
  }
  ~PoolOverride() {
    set_kernel_pool(nullptr);
    gemm_set_parallel_min_flops(0);
  }
};

}  // namespace

TEST(ConvBatchedParity, RandomizedGeometrySweep) {
  ou::Rng rng(42);
  const std::vector<Geometry> geos = sweep_geometries(rng);
  for (const Geometry& g : geos) check_parity(g, rng);
  EXPECT_EQ(geos.size(), 18u);
}

TEST(ConvBatchedParity, GeometrySweepIsBitwiseAcrossWorkerCounts) {
  // Every GEMM forced onto the panel x row-block split (min flops 1) on
  // explicit pools: 2 and 4 workers must reproduce the 1-worker forward,
  // dX and dW bitwise, geometry by geometry (same seeds, same weights).
  std::vector<std::vector<Tensor>> base;
  for (std::size_t workers : {1u, 2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ou::ThreadPool pool(workers);
    PoolOverride ov(&pool, 1);
    ou::Rng rng(42);
    std::vector<Geometry> geos = sweep_geometries(rng);
    // The batch-16 ODEBlock shape: a dW depth of four depth blocks.
    geos.push_back({.n = 16, .cin = 8, .cout = 8, .h = 8, .w = 8, .k = 3,
                    .s = 1, .p = 1, .time_channel = true});
    for (std::size_t i = 0; i < geos.size(); ++i) {
      std::vector<Tensor> got = check_parity(geos[i], rng);
      if (workers == 1) {
        base.push_back(std::move(got));
        continue;
      }
      for (std::size_t t = 0; t < got.size(); ++t) {
        ASSERT_TRUE(got[t].same_shape(base[i][t]));
        EXPECT_EQ(0, std::memcmp(got[t].data(), base[i][t].data(),
                                 got[t].numel() * sizeof(float)))
            << geos[i].str() << " output " << t;
      }
    }
  }
}

TEST(ConvBatchedParity, GeometrySweepAvx512MatchesAvx2Bitwise) {
  // Forward, dX and dW of every sweep geometry plus the batch-16 ODEBlock
  // shape (whose dW depth of 1024 spans four depth blocks): the AVX-512
  // tier must reproduce the AVX2 tier bitwise.
  const std::string skip = odenet::testing::avx512_skip_reason();
  if (!skip.empty()) GTEST_SKIP() << skip;
  odenet::testing::expect_avx512_matches_avx2(
      [] {
        ou::Rng rng(42);
        std::vector<Geometry> geos = sweep_geometries(rng);
        geos.push_back({.n = 16, .cin = 8, .cout = 8, .h = 8, .w = 8,
                        .k = 3, .s = 1, .p = 1, .time_channel = true});
        std::vector<float> out;
        for (const Geometry& g : geos) {
          for (const Tensor& t : check_parity(g, rng)) {
            out.insert(out.end(), t.data(), t.data() + t.numel());
          }
        }
        return out;
      },
      "conv forward + backward");
}

TEST(ConvBatchedParity, LargeBatchOdeBlockShape) {
  // The shape that matters for the paper's ODEBlock (layer3_2-like,
  // narrowed channels): concat-time conv at batch 16.
  ou::Rng rng(7);
  Geometry g{.n = 16, .cin = 8, .cout = 8, .h = 8, .w = 8, .k = 3, .s = 1,
             .p = 1, .time_channel = true};
  check_parity(g, rng);
}

TEST(ConvBatchedParity, PadOnlyEdgeRows) {
  // h = 1 with k = 3, p = 1: every output row reads two padding rows —
  // the receptive field touches real data only through its center row.
  ou::Rng rng(8);
  check_parity({.n = 2, .cin = 2, .cout = 3, .h = 1, .w = 4, .k = 3, .s = 1,
                .p = 1, .time_channel = false},
               rng);
  // k = 5 with p = 2 over a 2x3 input: outputs exist only because of the
  // padding ring.
  check_parity({.n = 3, .cin = 1, .cout = 2, .h = 2, .w = 3, .k = 5, .s = 1,
                .p = 2, .time_channel = false},
               rng);
}

TEST(ConvBatchedParity, RejectsEmptyBatch) {
  for (ConvAlgo algo : {ConvAlgo::kIm2col, ConvAlgo::kDirect}) {
    Conv2d conv({.in_channels = 3, .out_channels = 4, .algo = algo});
    EXPECT_THROW(conv.forward(Tensor({0, 3, 8, 8})), odenet::Error);
  }
}

TEST(ConvBatchedParity, ScratchArenaStopsGrowingAfterFirstCall) {
  ou::Rng rng(9);
  Conv2d conv({.in_channels = 4, .out_channels = 6});
  init_conv(conv, rng);
  conv.set_training(true);
  Tensor x = random_tensor({7, 4, 9, 5}, rng);
  Tensor gout;

  conv.forward(x);
  gout = random_tensor({7, 6, 9, 5}, rng);
  conv.backward(gout);
  const std::size_t capacity = conv.scratch_arena().capacity();
  const std::uint64_t growths = conv.scratch_arena().growths();
  EXPECT_GT(capacity, 0u);

  // Steady state: same shapes, zero further growth, same capacity.
  for (int i = 0; i < 3; ++i) {
    conv.forward(x);
    conv.backward(gout);
  }
  EXPECT_EQ(conv.scratch_arena().capacity(), capacity);
  EXPECT_EQ(conv.scratch_arena().growths(), growths);

  // A smaller batch recycles the buffer too.
  Tensor x_small = random_tensor({2, 4, 9, 5}, rng);
  conv.forward(x_small);
  conv.backward(random_tensor({2, 6, 9, 5}, rng));
  EXPECT_EQ(conv.scratch_arena().growths(), growths);
}

TEST(ConvBatchedParity, ExternalArenaIsShared) {
  ou::Rng rng(10);
  ScratchArena arena;
  Conv2d a({.in_channels = 2, .out_channels = 3});
  Conv2d b({.in_channels = 3, .out_channels = 2});
  init_conv(a, rng);
  init_conv(b, rng);
  a.set_arena(&arena);
  b.set_arena(&arena);
  a.set_training(true);
  b.set_training(true);

  // The backward lowering is what draws from the arena (the forward
  // gathers straight from the image).
  Tensor x = random_tensor({4, 2, 6, 7}, rng);
  Tensor h = a.forward(x);
  Tensor y = b.forward(h);
  (void)a.backward(b.backward(random_tensor(y.shape(), rng)));
  // Both layers drew from the one arena; its capacity is the max of the
  // two frames, and the wired arena is what scratch_arena() reports.
  EXPECT_EQ(&a.scratch_arena(), &arena);
  EXPECT_EQ(&b.scratch_arena(), &arena);
  EXPECT_GT(arena.capacity(), 0u);
  EXPECT_EQ(arena.frames(), 2u);
}

// --- packed-weight cache vs object lifetime / snapshot stamping ---------
//
// The packed-weight cache OWNS its storage (a std::vector inside the
// layer), so moving a Network must neither dangle nor stale the cache,
// and apply_snapshot must re-key every layer to the snapshot's version.
#include "models/network.hpp"
#include "models/snapshot.hpp"

TEST(PackedWeightCache, NetworkMoveCtorKeepsPackedWeightsValid) {
  ou::Rng rng(20);
  odenet::models::Network net(odenet::models::make_spec(
      odenet::models::Arch::kROdeNet3, 14,
      {.input_channels = 3, .input_size = 16, .base_channels = 4,
       .num_classes = 5}));
  net.init(rng);
  net.set_training(false);
  // Stamp non-zero weight versions (serving steady state: packs cached).
  net.apply_snapshot(*net.export_snapshot());

  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  Tensor before = net.forward(x);  // builds + caches every packed weight

  odenet::models::Network moved(std::move(net));
  Tensor after = moved.forward(x);  // must reuse or rebuild safely
  ASSERT_TRUE(before.same_shape(after));
  for (std::size_t i = 0; i < before.numel(); ++i) {
    ASSERT_EQ(before.data()[i], after.data()[i]) << "element " << i;
  }
}

TEST(PackedWeightCache, ApplySnapshotStampsVersionsAndRepacksOnce) {
  ou::Rng rng(21);
  odenet::models::Network net(odenet::models::make_spec(
      odenet::models::Arch::kROdeNet3, 14,
      {.input_channels = 3, .input_size = 16, .base_channels = 4,
       .num_classes = 5}));
  net.init(rng);
  net.set_training(false);

  // Freshly initialized weights are unversioned.
  net.for_each_conv(
      [](Conv2d& c) { EXPECT_EQ(c.weight_version(), 0u); });

  auto snap = net.export_snapshot();
  net.apply_snapshot(*snap);
  net.for_each_conv([&](Conv2d& c) {
    EXPECT_EQ(c.weight_version(), snap->version());
  });

  // Steady state: repeated forwards pack each conv exactly once.
  Tensor x = random_tensor({2, 3, 16, 16}, rng);
  (void)net.forward(x);
  std::uint64_t packs_after_first = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_first += c.weight_packs(); });
  (void)net.forward(x);
  (void)net.forward(x);
  std::uint64_t packs_after_third = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_third += c.weight_packs(); });
  EXPECT_EQ(packs_after_third, packs_after_first);

  // A new snapshot version invalidates every cache once.
  auto snap2 = net.export_snapshot();
  ASSERT_NE(snap2->version(), snap->version());
  net.apply_snapshot(*snap2);
  (void)net.forward(x);
  std::uint64_t packs_after_swap = 0;
  net.for_each_conv(
      [&](Conv2d& c) { packs_after_swap += c.weight_packs(); });
  EXPECT_GT(packs_after_swap, packs_after_third);
}
