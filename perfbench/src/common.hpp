// Shared vocabulary of the repo benchmark: run arguments, the result a
// workload hands back, percentile arithmetic, the span recorder behind the
// traced run, and the model/input helpers every workload uses.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/execution.hpp"
#include "core/tensor.hpp"
#include "models/architecture.hpp"
#include "models/snapshot.hpp"

namespace perfbench {

namespace core = odenet::core;
namespace models = odenet::models;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

// ---- run arguments and results ------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path (traced run only)
  std::string commit = "unknown";
};

/// Untimed closed-loop rounds after set-up and before each timed loop:
/// every replica, arena and weight pack is touched by then.
inline constexpr int kWarmupRounds = 3;

/// Kernel-pool size every workload pins. One thread, like the single-core
/// PS software the sched CpuModel is fitted to. On a shared VM, runs with
/// two threads split into a fast and a slow mode (~210 vs ~120 img/s on
/// offline_float) depending on outside load; one thread stays within ~10%.
inline constexpr int kKernelPoolThreads = 1;

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures (each also counted in `failed` when it is tied
  /// to a request, or failing the run outright when it is not).
  std::vector<std::string> check_failures;
  /// Every metric the run measured: name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Run facts printed beside the metrics (sample counts, the percentile
  /// behind each tail, modeled constants).
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_check(const std::string& what) { check_failures.push_back(what); }
  bool correct() const { return check_failures.empty(); }
};

// ---- percentiles -------------------------------------------------------

/// Linear interpolation between closest ranks (rank = p/100 * (n-1)) of an
/// ascending-sorted sample; p in [0, 100]. Empty input gives 0.
double percentile_sorted(const std::vector<double>& sorted, double p);

double median(std::vector<double> v);

/// Samples ranked strictly above the p-th percentile of n samples:
/// n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The tail a sample supports: the highest percentile of the fixed ladder
/// {50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99} with at least ten samples
/// beyond it. Fewer than 20 samples support no tail; the maximum is
/// reported then (percentile 100, zero beyond).
struct Tail {
  double percentile = 100.0;
  std::size_t beyond = 0;
  double value = 0.0;
};
Tail tail_of(std::vector<double> samples);

struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  Tail tail;
};
LatencySummary summarize(std::vector<double> samples);

/// Records a latency summary (milliseconds in, metrics `<prefix>.p50` and
/// `<prefix>.tail`) plus the sample count and tail percentile as info.
void put_latency(RunResult& r, const std::string& p50_name,
                 const std::string& tail_name, const std::string& unit,
                 const std::vector<double>& samples);

/// One request completed in an open loop's timed window: when it ended
/// (seconds after the window opened) and its latency from when it was due.
struct Completion {
  double at_s = 0.0;
  double latency_ms = 0.0;
};

/// One closed-loop round: its images finish together, so it is one
/// latency sample (from its submit to its last result), and the host-speed
/// probe chunk timed right after it on the same CPU.
struct Round {
  double latency_ms = 0.0;
  double images = 1.0;
  double probe_ms = 0.0;
};

/// End-to-end figures of a timed window as medians over sub-windows, so
/// that outside load in one part of the window moves them little: images
/// per second and p50 over kRateWindows slices; the tail over as many
/// slices (at most kRateWindows) as give each at least kTailWindowSamples
/// samples, each slice's tail taken by the tail rule above. 40 samples
/// support p75; a closed loop's 120-220 rounds then still give several
/// slices, whose median a burst of outside load in one of them does not
/// move.
inline constexpr int kRateWindows = 10;
inline constexpr std::size_t kTailWindowSamples = 40;
struct WindowFigures {
  std::size_t n = 0;
  double per_s = 0.0;
  double per_s_min = 0.0, per_s_max = 0.0;  // over the slices
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  int tail_windows = 0;
  double tail_percentile = 100.0;  // of the median tail slice
  std::size_t tail_beyond = 0;
  double host_factor = 1.0;  // median probe slowdown (closed loops)
};

/// An open loop's window cut into equal time slices; a request counts in
/// the slice where it ends.
WindowFigures window_figures(const std::vector<Completion>& done,
                             double window_s);

/// Rounds before kProbeSpan and after it whose probe chunks set a round's
/// host speed: their median over kProbeNominalMs is the slowdown the
/// round's latency is divided by. A running median follows the host's
/// speed as it changes over seconds and ignores a single chunk that an
/// interrupt lengthened.
inline constexpr int kProbeSpan = 4;
/// A closed loop's rounds at the reference host speed, cut into slices of
/// consecutive rounds: a slice's rate is its images over its rounds'
/// summed (normalized) latency.
WindowFigures closed_loop_figures(const std::vector<Round>& rounds);

/// Sets latency_p50_ms and latency_tail_ms, with the tail's percentile,
/// window count and sample count as info.
void put_window_latency(RunResult& r, const WindowFigures& f);

// ---- tracing -----------------------------------------------------------

/// One span: a named interval on one thread, tagged with the repo layer
/// whose call it wraps, the request (or batch) it served and its parent.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request or batch id shared by its spans
  std::string name;
  std::string layer;
  double start_us = 0.0;  // since the recorder's origin
  double end_us = 0.0;
  std::uint32_t tid = 0;
  double duration_us() const { return end_us - start_us; }
};

/// Spans written to one trace file; enough for several seconds of any
/// workload, small enough for Perfetto to open at once.
inline constexpr std::size_t kMaxTraceEvents = 50000;

/// In-memory span recorder; spans are written out when the run ends. A
/// disabled recorder records nothing, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  double now_us() const { return to_us(Clock::now()); }
  double to_us(Clock::time_point t) const;
  std::uint64_t next_id() { return next_id_.fetch_add(1); }

  /// Records a finished span under a caller-reserved id (0 = assign one).
  /// Returns the span's id. Thread-safe.
  std::uint64_t record(std::uint64_t id, std::uint64_t parent,
                       std::uint64_t request, const std::string& name,
                       const std::string& layer, double start_us,
                       double end_us);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON (complete "X" events; span, parent and
  /// request ids in args), loadable by Perfetto and chrome://tracing.
  /// Writes the first kMaxTraceEvents spans in start order.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children clipped to
/// the parent). Keyed by span id.
std::map<std::uint64_t, double> self_times_us(const std::vector<Span>& spans);

/// Totals over a span set: root time, and the share of it no child covers.
struct TraceTotals {
  double root_us = 0.0;
  double unattributed_us = 0.0;
  std::map<std::string, double> self_us_by_layer;
};
TraceTotals trace_totals(const std::vector<Span>& spans);

/// Adds trace.unattributed_share and trace.self_share.<layer> metrics.
void put_trace_totals(RunResult& r, const std::vector<Span>& spans);

/// Layers a request's spans are tagged with: the repo modules whose calls
/// the benchmark wraps around a request, plus the load generator.
const std::vector<std::string>& request_layers();

// ---- model and inputs --------------------------------------------------

/// Seed of the benchmark's fixed weights: the model is part of the
/// workload, only inputs and schedules come from --seed.
inline constexpr std::uint64_t kWeightSeed = 20210517;
/// Training-mode batches that set the BN running statistics.
inline constexpr int kCalibrationBatches = 4;

/// He-initialized weights from kWeightSeed, BN statistics calibrated on
/// kCalibrationBatches batches of images drawn after the weights.
models::ModelSnapshot::Ptr make_snapshot(const models::NetworkSpec& spec);

/// [n, C, S, S] images, N(0, 1) pixels, from the run seed.
core::Tensor make_images(int n, const models::WidthConfig& w,
                         std::uint64_t seed);
core::Tensor image_at(const core::Tensor& images, int i);
/// Rows [first, first+count) of a batch, cycling past its end.
core::Tensor batch_from(const core::Tensor& images, int first, int count);

/// Float ConvAlgo::kDirect logits of each image, run one image at a time
/// when `per_image_bn_stage` names a stage whose BNs normalize per image
/// (the accelerator's semantics), else as one batch.
core::Tensor reference_logits(const models::ModelSnapshot& snapshot,
                              const models::NetworkSpec& spec,
                              const core::Tensor& images,
                              const models::StageId* per_image_bn_stage);

/// Accumulates RMS(logits - ref) / RMS(ref) over many outputs.
struct LogitError {
  double diff2 = 0.0;
  double ref2 = 0.0;
  std::uint64_t outputs = 0;
  /// Folds one output in; returns that output's own relative error.
  double add(const float* logits, const float* ref, int classes);
  double rel() const;
};

/// Bound on one output's RMS(logits - ref) / RMS(ref) for a backend
/// against the float direct reference, from the rounding unit of its
/// arithmetic: float round-off, the int16 weight grid, the PL's Q(20).
double logit_bound(core::ExecBackend backend, const models::NetworkSpec& spec);

int argmax(const float* v, int n);

// ---- modeled vs measured ------------------------------------------------

/// MACs of one building block recomputed from the stage geometry (two 3x3
/// convs; the option-A shortcut has none). Must equal
/// sched::CpuModel::block_macs, which the self-tests check.
std::uint64_t block_macs_from_geometry(const models::StageSpec& spec);
/// Whole-network MACs per image: stem conv, every block execution, fc.
std::uint64_t network_macs(const models::NetworkSpec& spec);

/// Names of the stages present in the network, conv1 and fc included, in
/// forward order.
std::vector<std::string> present_stages(const models::NetworkSpec& spec);

/// Prints sched's modeled per-stage share beside the measured share (the
/// traced run's stage spans; "-" when the run measured none) and returns
/// the modeled shares by stage name.
std::map<std::string, double> print_stage_table(
    const std::string& workload, const models::NetworkSpec& spec,
    const std::map<std::string, double>& measured_share);

// ---- self-tests --------------------------------------------------------

/// Checks the benchmark's own arithmetic; returns the failures.
std::vector<std::string> run_self_tests();

// ---- workloads ---------------------------------------------------------

RunResult run_offline(const RunArgs& args);
RunResult run_serve_open(const RunArgs& args);

}  // namespace perfbench
