// The traced model loop: a benchmark-owned replica runs batches through
// Network::stem_forward, forward_stages and head_forward, with each
// stage's executor wrapped so its run is a span. This is where the
// per-stage (models), kernel-rate (core), Euler-step (solver), weight-pack
// (fixed) and PL (fpga) metrics come from.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>

#include "common.hpp"
#include "core/execution.hpp"

namespace perfbench {

struct ModelLoopConfig {
  core::ExecBackend backend = core::ExecBackend::kFloat;
  /// Offload layer3_2 to a FpgaStageExecutor (the rest runs float).
  bool offload = false;
  int batch = 16;
  double seconds = 1.0;
};

/// Timed rounds alternate between the wrapped executors (traced) and the
/// same executors unwrapped (plain), so the tracing cost is measured on
/// the same replica, images and host period as the figures it qualifies.
struct ModelLoopResult {
  std::uint64_t images = 0;  // timed images of traced rounds
  double root_us = 0.0;      // summed forward time of traced rounds
  std::uint64_t plain_images = 0;
  double plain_us = 0.0;     // summed forward time of plain rounds
  std::map<std::string, double> stage_us;  // conv1, stages, fc
  std::uint64_t pl_cycles = 0;
  std::set<std::uint64_t> pl_cycles_per_image;
  std::uint64_t weight_packs = 0;  // during the timed rounds
  double fpga_us = 0.0;            // span time of the PL executor
  double bram_load_s = 0.0;        // median FpgaStageExecutor construction
};

/// `check(logits_row, image_index)` validates each output; `cursor` walks
/// the image pool across calls.
ModelLoopResult run_model_loop(
    const models::NetworkSpec& spec, const models::ModelSnapshot& snapshot,
    const ModelLoopConfig& cfg, const core::Tensor& images, int& cursor,
    Tracer& tracer, const std::function<void(const float*, int)>& check);

/// models.<stage>.ms_per_img/.share, core.layer3_2.gmacs, core.net.gmacs,
/// solver.euler_step_ms, sched.share_drift.layer3_2 and
/// trace.overhead_share (traced over plain time per image, minus one);
/// returns the measured stage shares.
std::map<std::string, double> put_model_metrics(
    RunResult& r, const models::NetworkSpec& spec, const ModelLoopResult& m);

}  // namespace perfbench
