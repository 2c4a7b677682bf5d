// Host-speed probe. On a shared VM the speed of one vCPU moves with the
// host's load, for a whole run at a time: the middle half of ten runs of
// the same closed loop spread over half its median. The probe is a fixed
// amount of the benchmark's own arithmetic, timed between a closed loop's
// rounds on the same CPU; its time over kProbeNominalMs is the host's
// slowdown at that moment.
//
// Outside load slows kinds of code unequally. On the reference VM, with
// the parts timed separately after each round, SIMD tiles slowed about
// half as much as the pl_offload and offline_fixed loops, and branchy
// scalar code 1.2-1.4x as much. A chunk therefore mixes them, by time
// ~35% float 4x16 broadcast-FMA tiles over packed panels of depth 576
// (the repo's GEMM micro-tile), ~10% the same tiles on int16, and ~55% a
// scalar int64 direct 3x3 convolution with per-tap bounds checks (the
// fixed-point datapath simulation's loop). With that mix the range of the
// slice medians within one run fell from 0.48 to 0.07 on pl_offload, from
// 0.16 to 0.02 on offline_fixed and from 0.09 to 0.08 on offline_float.
#pragma once

#include <vector>

namespace perfbench {

/// Typical probe chunk time on the reference host (a 2 GHz Xeon VM, 4
/// vCPUs, KVM): the host speed that normalized figures are quoted at.
inline constexpr double kProbeNominalMs = 7.0;

class HostProbe {
 public:
  HostProbe();
  /// Runs one chunk of the fixed work; returns its wall time in ms.
  double chunk_ms();

 private:
  std::vector<float> a_, b_;
  std::vector<short> qa_, qb_;
  std::vector<int> grid_, taps_;
  double sink_ = 0.0;  // the work's results, so the compiler keeps it
};

/// Pins the calling thread, and every thread it creates afterwards, to the
/// CPU it runs on, so probe chunks and the engine worker share one vCPU.
/// Returns that CPU, or -1 when pinning is not possible.
int pin_to_current_cpu();

}  // namespace perfbench
