// Closed-loop workloads at paper geometry (rODENet-3-56, 3x32x32, 16 base
// channels, 100 classes), one backend with one worker:
//   offline_float  float backend, 16 images per round (max_batch 16)
//   offline_fixed  the same on the int16 fixed backend
//   pl_offload     kFpgaSim with layer3_2 on the simulated PL, one image
//                  per round (the paper's per-image Table 5 measurement)
// A round submits its images through InferenceEngine and waits for all
// of them before the next round starts.
//
// A round is one latency sample (its images finish together). After each
// timed round a host-speed probe chunk runs on the same CPU (the process
// is pinned to one), and the round's figures are divided by the host's
// slowdown at that moment (hostspeed.hpp): the end-to-end figures are
// quoted at the reference host's speed. The fingerprint keeps the raw
// figures and the slowdown beside them.
//
// The traced run splits its window three ways: an untraced engine loop,
// the same loop with spans around submit and each result, and a model
// loop through a benchmark-owned replica whose executors are wrapped so
// every stage's run is a span (stem_forward -> conv1, head_forward -> fc);
// its rounds alternate with unwrapped ones to measure the tracing cost.
#include <algorithm>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <set>

#include "common.hpp"
#include "hostspeed.hpp"
#include "modelloop.hpp"
#include "runtime/engine.hpp"
#include "sched/latency_model.hpp"

namespace perfbench {

namespace runtime = odenet::runtime;
namespace sched = odenet::sched;

namespace {

struct OfflineWorkload {
  core::ExecBackend backend = core::ExecBackend::kFloat;
  bool offload = false;  // layer3_2 on the simulated PL
  int batch = 16;        // images per closed-loop round
  int pool = 32;         // distinct images, cycled
};

OfflineWorkload offline_workload(const std::string& name) {
  if (name == "offline_float") {
    return {core::ExecBackend::kFloat, false, 16, 32};
  }
  if (name == "offline_fixed") {
    return {core::ExecBackend::kFixed, false, 16, 32};
  }
  return {core::ExecBackend::kFpgaSim, true, 1, 16};
}

constexpr models::StageId kOffloaded = models::StageId::kLayer3_2;
constexpr int kSetupRepeats = 7;

runtime::EngineConfig engine_config(const OfflineWorkload& w) {
  runtime::EngineConfig cfg;
  cfg.max_batch = w.batch;
  cfg.backends[0].backend = w.backend;
  cfg.backends[0].workers = 1;
  if (w.offload) cfg.backends[0].offloaded = {kOffloaded};
  return cfg;
}

/// Checks one output against its reference row; false when it fails.
struct OutputChecker {
  const core::Tensor& refs;
  int classes;
  std::string backend;
  double bound;
  LogitError err;
  RunResult& result;

  bool check(const float* logits, std::size_t n, int predicted, int image) {
    if (n != static_cast<std::size_t>(classes)) {
      result.fail_check("output carries " + std::to_string(n) + " logits");
      return false;
    }
    const float* ref = refs.data() + static_cast<std::size_t>(image) * classes;
    const double rel = err.add(logits, ref, classes);
    if (!(rel <= bound)) {
      result.fail_check(backend + " image " + std::to_string(image) +
                        ": logit error " + std::to_string(rel) +
                        " over bound " + std::to_string(bound));
      return false;
    }
    if (predicted >= 0 && predicted != argmax(logits, classes)) {
      result.fail_check("predicted class is not the logits' argmax");
      return false;
    }
    return true;
  }
};

struct LoopOutcome {
  std::uint64_t images = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  std::vector<Round> rounds;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::set<std::uint64_t> pl_cycles;
};

/// Closed-loop rounds through the engine for `seconds` (or exactly
/// `rounds` rounds when nonzero), each followed by a probe chunk when
/// `probe` is given. Spans go to `tracer` when it is enabled.
LoopOutcome engine_loop(runtime::InferenceEngine& engine,
                        const OfflineWorkload& w, const core::Tensor& images,
                        int& cursor, OutputChecker& checker, double seconds,
                        int rounds, Tracer& tracer,
                        HostProbe* probe = nullptr) {
  LoopOutcome out;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    if (rounds > 0 ? round >= rounds : seconds_since(start) >= seconds) break;
    const int first = cursor;
    cursor = (cursor + w.batch) % w.pool;
    const auto t0 = Clock::now();
    std::vector<std::future<runtime::InferenceResult>> futures;
    if (w.batch == 1) {
      futures.push_back(engine.submit(image_at(images, first)));
    } else {
      futures = engine.submit_batch(batch_from(images, first, w.batch));
    }
    const auto t_sub = Clock::now();
    out.submit_us.push_back(
        std::chrono::duration<double, std::micro>(t_sub - t0).count());
    double first_queue = 0.0, last_total = 0.0, compute = 0.0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const int image = (first + static_cast<int>(i)) % w.pool;
      try {
        const runtime::InferenceResult res = futures[i].get();
        out.queue_ms.push_back(res.queue_seconds * 1e3);
        if (w.offload) out.pl_cycles.insert(res.pl_cycles);
        if (i == 0) first_queue = res.queue_seconds;
        last_total = std::max(last_total, res.total_seconds);
        compute = res.compute_seconds;
        if (!checker.check(res.logits.data(), res.logits.numel(),
                           res.predicted, image)) {
          out.failed += 1;
        }
      } catch (const std::exception& e) {
        checker.result.fail_check(std::string("request failed: ") + e.what());
        out.failed += 1;
      }
      out.images += 1;
    }
    // One latency sample per round: its images finish together.
    out.rounds.push_back({seconds_since(t0) * 1e3,
                          static_cast<double>(futures.size()), 0.0});
    if (tracer.enabled()) {
      // Engine-internal intervals rebuilt from the result's own timings,
      // anchored at the end of submit (where requests were enqueued).
      const std::uint64_t root = tracer.next_id();
      const double s = tracer.to_us(t0), e = tracer.now_us();
      const double sub = tracer.to_us(t_sub);
      tracer.record(0, root, root, "runtime.submit", "runtime", s, sub);
      tracer.record(0, root, root, "runtime.queue_wait", "runtime", sub,
                    sub + first_queue * 1e6);
      tracer.record(0, root, root, "runtime.forward", "models",
                    sub + (last_total - compute) * 1e6, sub + last_total * 1e6);
      tracer.record(root, 0, root, "runtime.round", "runtime", s, e);
    }
    if (probe != nullptr) out.rounds.back().probe_ms = probe->chunk_ms();
  }
  out.seconds = seconds_since(start);
  return out;
}

}  // namespace

RunResult run_offline(const RunArgs& args) {
  RunResult r;
  const OfflineWorkload w = offline_workload(args.workload);
  const models::NetworkSpec spec =
      models::make_spec(models::Arch::kROdeNet3, 56);
  const int classes = spec.width.num_classes;
  const models::ModelSnapshot::Ptr snapshot = make_snapshot(spec);
  const core::Tensor images = make_images(w.pool, spec.width, args.seed);
  const core::Tensor refs = reference_logits(
      *snapshot, spec, images, w.offload ? &kOffloaded : nullptr);
  const std::string backend = core::backend_name(w.backend);
  OutputChecker checker{refs, classes, backend,
                        logit_bound(w.backend, spec), {}, r};
  Tracer untraced(false);
  r.info["logit_bound." + backend] = std::to_string(checker.bound);

  // Set-up: construction until the first round's results are back, at the
  // reference host speed measured by a probe chunk before each.
  HostProbe probe;
  std::vector<double> setup, setup_factor;
  std::unique_ptr<runtime::InferenceEngine> engine;
  int cursor = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    setup_factor.push_back(probe.chunk_ms() / kProbeNominalMs);
    const auto t0 = Clock::now();
    engine = std::make_unique<runtime::InferenceEngine>(snapshot,
                                                        engine_config(w));
    cursor = 0;
    LoopOutcome first = engine_loop(*engine, w, images, cursor, checker, 0.0,
                                    1, untraced);
    setup.push_back(seconds_since(t0) / setup_factor.back());
    r.attempted += first.images;
    r.failed += first.failed;
  }
  r.set("setup_s", median(setup), "s");
  {
    LoopOutcome warm = engine_loop(*engine, w, images, cursor, checker, 0.0,
                                   kWarmupRounds, untraced);
    r.attempted += warm.images;
    r.failed += warm.failed;
  }
  checker.err = LogitError{};

  const double engine_share = args.trace ? 0.3 : 1.0;
  const runtime::EngineStats before = engine->stats();
  // The traced run reports no end-to-end figures: no probe chunks in its
  // window, so busy_share stays busy time over wall time.
  LoopOutcome main = engine_loop(*engine, w, images, cursor, checker,
                                 args.seconds * engine_share, 0, untraced,
                                 args.trace ? nullptr : &probe);
  const runtime::EngineStats after = engine->stats();
  r.attempted += main.images;
  r.failed += main.failed;
  const WindowFigures fig = closed_loop_figures(main.rounds);
  r.set("images_per_s", fig.per_s, "img/s");
  put_window_latency(r, fig);
  std::vector<Round> raw_rounds = main.rounds;
  for (Round& round : raw_rounds) round.probe_ms = kProbeNominalMs;
  const WindowFigures raw = closed_loop_figures(raw_rounds);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%.4g (%.4g set-up); raw images_per_s %.4g, latency_p50_ms "
                "%.4g, latency_tail_ms %.4g",
                fig.host_factor, median(setup_factor), raw.per_s, raw.p50_ms,
                raw.tail_ms);
  r.info["host_slowdown"] = buf;
  r.set("logit_rel_err", checker.err.rel(), "ratio");
  r.info["timed_images"] = std::to_string(main.images);
  r.info["warmup_rounds"] = std::to_string(kWarmupRounds);
  r.info["setup_repeats"] = std::to_string(kSetupRepeats);
  r.info["images_per_round"] = std::to_string(w.batch);

  // The modeled Table 5 row of this workload's partition.
  sched::Partition partition;
  if (w.offload) partition = sched::Partition::single(kOffloaded);
  const sched::LatencyModel latency_model;
  const sched::LatencyRow row = latency_model.evaluate(spec, partition);
  // PL cycles per image from the engine cycle model: per Euler step, two
  // convs and two BNs plus one feature-map round trip over AXI.
  std::uint64_t modeled_cycles = 0;
  if (w.offload) {
    const models::StageSpec& s = spec.stage(kOffloaded);
    const std::size_t fmap = static_cast<std::size_t>(s.out_channels) *
                             s.in_size * s.in_size;
    modeled_cycles =
        (sched::LatencyModel::pl_block_cycles(s, partition.parallelism) +
         odenet::fpga::roundtrip_cycles(fmap, fmap, partition.axi)) *
        static_cast<std::uint64_t>(s.executions);
    r.info["modeled_pl_cycles_per_img"] = std::to_string(modeled_cycles);
    if (main.pl_cycles.size() != 1) {
      r.fail_check("PL cycles differ across images (" +
                   std::to_string(main.pl_cycles.size()) + " values)");
    } else if (*main.pl_cycles.begin() != modeled_cycles) {
      r.fail_check("PL cycles " + std::to_string(*main.pl_cycles.begin()) +
                   " per image, the engine cycle model gives " +
                   std::to_string(modeled_cycles));
    }
  }

  std::map<std::string, double> measured_share;
  if (args.trace) {
    // Runtime counters over the untraced window, then the same loop with
    // spans on the same engine.
    const auto& b0 = before.backends[0];
    const auto& b1 = after.backends[0];
    const std::uint64_t batches = b1.batches - b0.batches;
    r.set("runtime.batch_size.mean",
          static_cast<double>(b1.requests - b0.requests) /
              static_cast<double>(std::max<std::uint64_t>(1, batches)),
          "img");
    r.set("runtime.busy_share",
          (b1.busy_seconds - b0.busy_seconds) / main.seconds, "ratio");
    r.set("runtime.route_share.fixed",
          w.backend == core::ExecBackend::kFixed ? 1.0 : 0.0, "ratio");
    r.set("runtime.shed_share",
          static_cast<double>((b1.rejected - b0.rejected) +
                              (b1.evicted - b0.evicted) +
                              (b1.timeouts - b0.timeouts)) /
              static_cast<double>(std::max<std::uint64_t>(1, main.images)),
          "ratio");
    r.set("runtime.arena_growths",
          static_cast<double>(b1.arena_growths - b0.arena_growths), "count");

    Tracer tracer(true);
    LoopOutcome traced = engine_loop(*engine, w, images, cursor, checker,
                                     args.seconds * 0.3, 0, tracer);
    r.attempted += traced.images;
    r.failed += traced.failed;
    put_latency(r, "runtime.submit_us.p50", "runtime.submit_us.tail", "us",
                traced.submit_us);
    put_latency(r, "runtime.queue_wait_ms.p50", "runtime.queue_wait_ms.tail",
                "ms", traced.queue_ms);

    // Where each request's time went: the request-level spans only; the
    // model loop below breaks the forward pass down by stage.
    put_trace_totals(r, tracer.spans());
    ModelLoopConfig mcfg;
    mcfg.backend = w.offload ? core::ExecBackend::kFloat : w.backend;
    mcfg.offload = w.offload;
    mcfg.batch = w.batch;
    mcfg.seconds = args.seconds * 0.4;
    const ModelLoopResult m = run_model_loop(
        spec, *snapshot, mcfg, images, cursor, tracer,
        [&](const float* logits, int image) {
          r.attempted += 1;
          if (!checker.check(logits, static_cast<std::size_t>(classes), -1,
                             image)) {
            r.failed += 1;
          }
        });
    measured_share = put_model_metrics(r, spec, m);
    if (w.backend == core::ExecBackend::kFixed) {
      r.set("fixed.weight_packs", static_cast<double>(m.weight_packs),
            "count");
    }
    if (w.offload) {
      const double images_done = static_cast<double>(m.images);
      r.set("fpga.bram_load_s", m.bram_load_s, "s");
      r.set("fpga.sim_ms_per_img", m.fpga_us * 1e-3 / images_done, "ms");
      r.set("fpga.pl_cycles_per_img",
            static_cast<double>(m.pl_cycles) / images_done, "count");
      if (m.pl_cycles_per_image.size() != 1 ||
          *m.pl_cycles_per_image.begin() != modeled_cycles) {
        r.fail_check("model-loop PL cycles differ from the engine cycle model");
      }
    }
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out)) {
      r.fail_check("cannot write " + args.trace_out);
    }
  }
  r.set("sched.modeled_ms.ps", row.total_without_pl * 1e3, "ms");
  r.set("sched.modeled_ms.pspl", row.total_with_pl * 1e3, "ms");
  r.set("sched.modeled_speedup", row.overall_speedup, "x");
  print_stage_table(args.workload, spec, measured_share);
  engine->shutdown();
  return r;
}

}  // namespace perfbench
