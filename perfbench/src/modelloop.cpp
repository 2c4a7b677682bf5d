#include "modelloop.hpp"

#include <memory>
#include <vector>

#include "models/network.hpp"
#include "sched/cpu_model.hpp"
#include "sched/fpga_executor.hpp"

namespace perfbench {

namespace {

namespace sched = odenet::sched;

constexpr models::StageId kOffloaded = models::StageId::kLayer3_2;

/// Wraps a real executor so each stage run is a span, and sums each
/// stage's time.
class TracedExecutor final : public models::StageExecutor {
 public:
  TracedExecutor(models::StageExecutor& inner, Tracer& tracer,
                 std::string layer)
      : inner_(inner), tracer_(tracer), layer_(std::move(layer)) {}

  const std::string& name() const override { return inner_.name(); }
  core::ExecBackend backend() const override { return inner_.backend(); }
  void reload_weights(models::Stage& stage) override {
    inner_.reload_weights(stage);
  }

  core::Tensor run(models::Stage& stage, const core::Tensor& x,
                   core::StageRunStats* stats) override {
    const double t0 = tracer_.now_us();
    core::Tensor out = inner_.run(stage, x, stats);
    const double t1 = tracer_.now_us();
    const std::string name = models::stage_name(stage.spec().id);
    tracer_.record(0, parent_, parent_, "models." + name, layer_, t0, t1);
    stage_us_[name] += t1 - t0;
    return out;
  }

  void set_parent(std::uint64_t parent) { parent_ = parent; }
  const std::map<std::string, double>& stage_us() const { return stage_us_; }

 private:
  models::StageExecutor& inner_;
  Tracer& tracer_;
  std::string layer_;
  std::uint64_t parent_ = 0;
  std::map<std::string, double> stage_us_;
};

/// The repo layer doing a backend's stage work.
std::string layer_of(core::ExecBackend backend) {
  switch (backend) {
    case core::ExecBackend::kFloat: return "core";
    case core::ExecBackend::kFixed: return "fixed";
    case core::ExecBackend::kFpgaSim: return "fpga";
  }
  return "models";
}

}  // namespace

ModelLoopResult run_model_loop(
    const models::NetworkSpec& spec, const models::ModelSnapshot& snapshot,
    const ModelLoopConfig& cfg, const core::Tensor& images, int& cursor,
    Tracer& tracer, const std::function<void(const float*, int)>& check) {
  ModelLoopResult out;
  const int pool = images.dim(0);
  const int classes = spec.width.num_classes;
  models::Network net(spec);
  net.apply_snapshot(snapshot);
  net.set_training(false);

  models::FloatStageExecutor float_exec;
  std::unique_ptr<models::FixedStageExecutor> fixed_exec;
  models::StageExecutor* inner = &float_exec;
  if (cfg.backend == core::ExecBackend::kFixed) {
    fixed_exec = std::make_unique<models::FixedStageExecutor>();
    inner = fixed_exec.get();
  }
  std::unique_ptr<sched::FpgaStageExecutor> fpga_exec;
  if (cfg.offload) {
    std::vector<double> load_s;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      fpga_exec = std::make_unique<sched::FpgaStageExecutor>(
          *net.stage(kOffloaded), sched::FpgaStageExecutor::Config{});
      load_s.push_back(seconds_since(t0));
    }
    out.bram_load_s = median(load_s);
  }

  // Warm-up through the unwrapped executors: packs fixed weights and
  // sizes every scratch buffer before the timed rounds.
  models::StagePlan plain_plan(inner);
  if (fpga_exec) plain_plan.assign(kOffloaded, fpga_exec.get());
  for (int round = 0; round < kWarmupRounds; ++round) {
    (void)net.forward_with(batch_from(images, cursor, cfg.batch), plain_plan);
    cursor = (cursor + cfg.batch) % pool;
  }
  const std::uint64_t packs_before =
      fixed_exec ? fixed_exec->weight_packs() : 0;

  TracedExecutor traced(*inner, tracer, layer_of(inner->backend()));
  std::unique_ptr<TracedExecutor> traced_pl;
  models::StagePlan plan(&traced);
  if (fpga_exec) {
    traced_pl = std::make_unique<TracedExecutor>(*fpga_exec, tracer, "fpga");
    plan.assign(kOffloaded, traced_pl.get());
  }
  double conv1_us = 0.0, fc_us = 0.0;
  const auto start = Clock::now();
  for (int round = 0;
       out.plain_images == 0 || seconds_since(start) < cfg.seconds; ++round) {
    const int first = cursor;
    cursor = (cursor + cfg.batch) % pool;
    const core::Tensor x = batch_from(images, first, cfg.batch);
    if (round % 2 == 1) {
      const auto p0 = Clock::now();
      core::Tensor h = net.stem_forward(x);
      h = net.forward_stages(std::move(h), plain_plan, nullptr);
      const core::Tensor logits = net.head_forward(h);
      out.plain_us += seconds_since(p0) * 1e6;
      out.plain_images += static_cast<std::uint64_t>(cfg.batch);
      for (int i = 0; i < cfg.batch; ++i) {
        check(logits.data() + static_cast<std::size_t>(i) * classes,
              (first + i) % pool);
      }
      continue;
    }
    const std::uint64_t root = tracer.next_id();
    traced.set_parent(root);
    if (traced_pl) traced_pl->set_parent(root);
    models::NetworkRunStats stats;
    const double t0 = tracer.now_us();
    core::Tensor h = net.stem_forward(x);
    const double t1 = tracer.now_us();
    h = net.forward_stages(std::move(h), plan, &stats);
    const double t2 = tracer.now_us();
    const core::Tensor logits = net.head_forward(h);
    const double t3 = tracer.now_us();
    tracer.record(0, root, root, "models.conv1", "core", t0, t1);
    tracer.record(0, root, root, "models.fc", "core", t2, t3);
    tracer.record(root, 0, root, "models.forward", "models", t0, t3);
    for (int i = 0; i < cfg.batch; ++i) {
      check(logits.data() + static_cast<std::size_t>(i) * classes,
            (first + i) % pool);
    }
    out.images += static_cast<std::uint64_t>(cfg.batch);
    out.root_us += t3 - t0;
    conv1_us += t1 - t0;
    fc_us += t3 - t2;
    for (const auto& run : stats.stages) {
      if (run.stats.pl_cycles == 0) continue;
      out.pl_cycles += run.stats.pl_cycles;
      out.pl_cycles_per_image.insert(run.stats.pl_cycles /
                                     static_cast<std::uint64_t>(cfg.batch));
    }
  }
  out.stage_us = traced.stage_us();
  if (traced_pl) {
    for (const auto& [name, us] : traced_pl->stage_us()) {
      out.stage_us[name] += us;
      out.fpga_us += us;
    }
  }
  out.stage_us["conv1"] = conv1_us;
  out.stage_us["fc"] = fc_us;
  if (fixed_exec) out.weight_packs = fixed_exec->weight_packs() - packs_before;
  return out;
}

std::map<std::string, double> put_model_metrics(
    RunResult& r, const models::NetworkSpec& spec, const ModelLoopResult& m) {
  std::map<std::string, double> share;
  const double per_img_ms = 1e-3 / static_cast<double>(m.images);
  for (const std::string& name : present_stages(spec)) {
    auto it = m.stage_us.find(name);
    const double us = it == m.stage_us.end() ? 0.0 : it->second;
    share[name] = us / m.root_us;
    r.set("models." + name + ".ms_per_img", us * per_img_ms, "ms");
    r.set("models." + name + ".share", share[name], "ratio");
  }
  const models::StageSpec& l32 = spec.stage(kOffloaded);
  const double l32_us = m.stage_us.count("layer3_2") ? m.stage_us.at("layer3_2")
                                                     : 0.0;
  const double images = static_cast<double>(m.images);
  if (l32_us > 0.0) {
    r.set("core.layer3_2.gmacs",
          static_cast<double>(sched::CpuModel::block_macs(l32)) *
              l32.total_executions() * images / l32_us / 1e3,
          "GMAC/s");
    r.set("solver.euler_step_ms",
          l32_us * per_img_ms / l32.total_executions(), "ms");
  }
  r.set("core.net.gmacs",
        static_cast<double>(network_macs(spec)) * images / m.root_us / 1e3,
        "GMAC/s");
  const sched::CpuModel cpu;
  r.set("sched.share_drift.layer3_2",
        share["layer3_2"] - cpu.stage_seconds(l32) / cpu.network_seconds(spec),
        "ratio");
  r.set("trace.overhead_share",
        (m.root_us / images) /
                (m.plain_us / static_cast<double>(m.plain_images)) -
            1.0,
        "ratio");
  r.info["model_loop_images"] =
      std::to_string(m.images) + " traced, " +
      std::to_string(m.plain_images) + " plain";
  return share;
}

}  // namespace perfbench
