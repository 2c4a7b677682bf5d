// The 16-row kernel-table entries of tiers without a 16-row register tile
// (scalar, AVX2): four calls of the tier's own 4-row tile, one per packed
// A panel, so every output element is exactly that tile's. Private to the
// kernel translation units; each instantiates these on its own tiles.
#pragma once

#include <cstddef>

#include "core/gemm_kernels.hpp"

namespace odenet::core::detail {
// Internal linkage on purpose: each kernel TU is built with its own ISA
// flags, so no out-of-line copy may be shared between them at link time.
namespace {

/// Offset of row tile q's rows inside a 16-row window of leading
/// dimension ld, or null for an absent operand.
template <typename T>
inline T* rows_of(T* base, int q, std::size_t ld) {
  return base != nullptr
             ? base + static_cast<std::size_t>(q) * kGemmTileRows * ld
             : nullptr;
}

template <typename T>
inline T* coeffs_of(T* base, int q) {
  return base != nullptr ? base + q * kGemmTileRows : nullptr;
}

template <GemmTile4x16Fn Tile>
void stack_tile(const float* apanel, const float* bpanel, int k, float* c,
                std::size_t ldc, bool accumulate) {
  const std::size_t astride = static_cast<std::size_t>(k) * kGemmTileRows;
  for (int q = 0; q < kGemmGroupTiles; ++q) {
    Tile(apanel + q * astride, bpanel, k, rows_of(c, q, ldc), ldc,
         accumulate);
  }
}

template <GemmTileEp4x16Fn Tile>
void stack_tile_ep(const float* apanel, const float* bpanel, int k, float* c,
                   std::size_t ldc, const float* scale, const float* shift,
                   bool relu, const float* residual, std::size_t ldr,
                   float beta) {
  const std::size_t astride = static_cast<std::size_t>(k) * kGemmTileRows;
  for (int q = 0; q < kGemmGroupTiles; ++q) {
    Tile(apanel + q * astride, bpanel, k, rows_of(c, q, ldc), ldc,
         coeffs_of(scale, q), coeffs_of(shift, q), relu,
         rows_of(residual, q, ldr), ldr, beta);
  }
}

template <GemmTileI16Fn Tile>
void stack_tile_i16(const std::int16_t* apanel, const std::int16_t* bpanel,
                    int kpairs, std::int32_t* c, std::size_t ldc,
                    bool accumulate) {
  const std::size_t astride =
      static_cast<std::size_t>(kpairs) * kGemmTileRows * 2;
  for (int q = 0; q < kGemmGroupTiles; ++q) {
    Tile(apanel + q * astride, bpanel, kpairs, rows_of(c, q, ldc), ldc,
         accumulate);
  }
}

template <GemmTileI16Ep4x16Fn Tile>
void stack_tile_i16_ep(const std::int16_t* apanel, const std::int16_t* bpanel,
                       int kpairs, float* c, std::size_t ldc,
                       const float* scale, const float* shift,
                       const float* residual, std::size_t ldr,
                       int round_shift, int frac_bits, bool relu,
                       float beta) {
  const std::size_t astride =
      static_cast<std::size_t>(kpairs) * kGemmTileRows * 2;
  for (int q = 0; q < kGemmGroupTiles; ++q) {
    Tile(apanel + q * astride, bpanel, kpairs, rows_of(c, q, ldc), ldc,
         coeffs_of(scale, q), coeffs_of(shift, q), rows_of(residual, q, ldr),
         ldr, round_shift, frac_bits, relu, beta);
  }
}

}  // namespace
}  // namespace odenet::core::detail
