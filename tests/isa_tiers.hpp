// Dispatch-tier helpers shared by the ISA-parity suites: an RAII cap on
// the GEMM kernel tier, and the AVX-512 vs AVX2 comparison every driver
// and forward is checked with.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/gemm_kernels.hpp"

namespace odenet::testing {

/// Caps dispatch at `cap` for its scope, so a failing EXPECT cannot leak
/// the override into later tests.
class IsaCap {
 public:
  explicit IsaCap(core::GemmIsa cap) : prev_(core::gemm_cap_isa(cap)) {}
  ~IsaCap() { core::gemm_cap_isa(prev_); }
  IsaCap(const IsaCap&) = delete;
  IsaCap& operator=(const IsaCap&) = delete;

 private:
  core::GemmIsa prev_;
};

inline constexpr core::GemmIsa kAllIsas[] = {
    core::GemmIsa::kScalar, core::GemmIsa::kAvx2, core::GemmIsa::kAvx512};

/// The reason a tier-parity test skips on this host, or empty when the
/// AVX-512 tier is usable.
inline std::string avx512_skip_reason() {
  if (core::gemm_isa_usable(core::GemmIsa::kAvx512)) return {};
  return "AVX-512 F/BW/VL/VNNI kernels not usable on this host (not "
         "compiled in, not supported by the CPU, or capped by ODENET_SIMD)";
}

/// Runs `run` (returning a vector of trivially copyable values) capped at
/// AVX2 and then at AVX-512, and expects the outputs memcmp-equal.
template <typename Run>
void expect_avx512_matches_avx2(const Run& run, const std::string& what) {
  auto narrow = [&] {
    IsaCap cap(core::GemmIsa::kAvx2);
    return run();
  }();
  auto wide = [&] {
    IsaCap cap(core::GemmIsa::kAvx512);
    return run();
  }();
  ASSERT_EQ(narrow.size(), wide.size()) << what;
  EXPECT_EQ(0, std::memcmp(narrow.data(), wide.data(),
                           narrow.size() * sizeof(narrow[0])))
      << what << ": AVX-512 output differs from AVX2";
}

}  // namespace odenet::testing
