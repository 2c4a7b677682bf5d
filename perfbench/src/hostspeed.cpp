#include "hostspeed.hpp"

#include <sched.h>

#include <chrono>

namespace perfbench {

namespace {

constexpr int kDepth = 576;   // layer3_2's conv depth: 64 channels x 3x3
constexpr int kPanels = 12;   // 16-column panels per pass (~440 KB of B)
// Passes per chunk: ~35% of its time in float tiles, ~10% in int16 tiles
// and ~55% in the scalar convolution (see hostspeed.hpp).
constexpr int kFloatPasses = 5;
constexpr int kIntPasses = 2;
constexpr int kScalarPasses = 28;
constexpr int kConvChannels = 16;
constexpr int kConvSize = 8;

typedef float v8f __attribute__((vector_size(32)));
typedef int v8i __attribute__((vector_size(32)));
typedef short v8s __attribute__((vector_size(16)));

/// C[4][16] += A[k][4] x B[k][16] over every panel, accumulators in
/// registers, as the repo's tile4x16 micro-kernel does.
__attribute__((target_clones("arch=haswell", "default"))) float float_tiles(
    const float* a, const float* b) {
  float sum = 0.0f;
  for (int p = 0; p < kPanels; ++p) {
    const float* bp = b + static_cast<long>(p) * kDepth * 16;
    v8f c[4][2] = {};
    for (int k = 0; k < kDepth; ++k) {
      v8f b0, b1;
      __builtin_memcpy(&b0, bp + 16 * k, sizeof b0);
      __builtin_memcpy(&b1, bp + 16 * k + 8, sizeof b1);
      for (int r = 0; r < 4; ++r) {
        const v8f x = v8f{} + a[4 * k + r];
        c[r][0] += x * b0;
        c[r][1] += x * b1;
      }
    }
    for (int r = 0; r < 4; ++r) {
      for (int j = 0; j < 8; ++j) sum += c[r][0][j] + c[r][1][j];
    }
  }
  return sum;
}

/// The same tile shape on int16 operands with int32 accumulators.
__attribute__((target_clones("arch=haswell", "default"))) long int_tiles(
    const short* a, const short* b) {
  long sum = 0;
  for (int p = 0; p < kPanels; ++p) {
    const short* bp = b + static_cast<long>(p) * kDepth * 16;
    v8i c[4][2] = {};
    for (int k = 0; k < kDepth; ++k) {
      v8s s0, s1;
      __builtin_memcpy(&s0, bp + 16 * k, sizeof s0);
      __builtin_memcpy(&s1, bp + 16 * k + 8, sizeof s1);
      const v8i b0 = __builtin_convertvector(s0, v8i);
      const v8i b1 = __builtin_convertvector(s1, v8i);
      for (int r = 0; r < 4; ++r) {
        const v8i x = v8i{} + a[4 * k + r];
        c[r][0] += x * b0;
        c[r][1] += x * b1;
      }
    }
    for (int r = 0; r < 4; ++r) {
      for (int j = 0; j < 8; ++j) sum += c[r][0][j] + c[r][1][j];
    }
  }
  return sum;
}

/// Direct 3x3 "same" convolution on a Q-format grid, one scalar int64 MAC
/// at a time with bounds checks per tap, as a fixed-point datapath
/// simulation runs: 16 channels in and out on an 8x8 plane.
long scalar_conv(const int* in, const int* w) {
  constexpr int kC = kConvChannels, kS = kConvSize;
  long sum = 0;
  for (int o = 0; o < kC; ++o) {
    for (int y = 0; y < kS; ++y) {
      for (int x = 0; x < kS; ++x) {
        long acc = 0;
        for (int c = 0; c < kC; ++c) {
          const int* plane = in + c * kS * kS;
          const int* wk = w + (o * kC + c) * 9;
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = y - 1 + ky;
            if (iy < 0 || iy >= kS) continue;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = x - 1 + kx;
              if (ix < 0 || ix >= kS) continue;
              acc += static_cast<long>(plane[iy * kS + ix]) * wk[ky * 3 + kx];
            }
          }
        }
        sum += acc >> 20;
      }
    }
  }
  return sum;
}

}  // namespace

HostProbe::HostProbe()
    : a_(4 * kDepth), b_(static_cast<std::size_t>(kPanels) * kDepth * 16),
      qa_(a_.size()), qb_(b_.size()),
      grid_(kConvChannels * kConvSize * kConvSize),
      taps_(kConvChannels * kConvChannels * 9) {
  // Small values that neither overflow nor denormalize over the passes.
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = 1e-3f * static_cast<float>(i % 7);
    qa_[i] = static_cast<short>(i % 13 - 6);
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    b_[i] = 1e-3f * static_cast<float>(i % 11);
    qb_[i] = static_cast<short>(i % 17 - 8);
  }
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    grid_[i] = static_cast<int>(i % 19) << 14;
  }
  for (std::size_t i = 0; i < taps_.size(); ++i) {
    taps_[i] = (static_cast<int>(i % 23) - 11) << 12;
  }
}

double HostProbe::chunk_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kFloatPasses; ++i) {
    sink_ += float_tiles(a_.data(), b_.data());
  }
  for (int i = 0; i < kIntPasses; ++i) {
    sink_ += static_cast<double>(int_tiles(qa_.data(), qb_.data()));
  }
  for (int i = 0; i < kScalarPasses; ++i) {
    sink_ += static_cast<double>(scalar_conv(grid_.data(), taps_.data()));
  }
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

}  // namespace perfbench
