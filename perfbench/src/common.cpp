#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "hostspeed.hpp"
#include "models/network.hpp"
#include "sched/cpu_model.hpp"
#include "util/rng.hpp"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- percentiles -------------------------------------------------------

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Round the rank product first so 99.9% of 1000 is exactly 999.
  const double at = std::round(p / 100.0 * static_cast<double>(n) * 1e6) / 1e6;
  const std::size_t covered = static_cast<std::size_t>(std::ceil(at));
  return covered >= n ? 0 : n - covered;
}

Tail tail_of(std::vector<double> samples) {
  static const double kLadder[] = {99.99, 99.95, 99.9, 99.5, 99.0,
                                   95.0,  90.0,  75.0,  50.0};
  std::sort(samples.begin(), samples.end());
  Tail t;
  if (samples.empty()) return t;
  for (double p : kLadder) {
    const std::size_t beyond = samples_beyond(samples.size(), p);
    if (beyond >= 10) {
      t.percentile = p;
      t.beyond = beyond;
      t.value = percentile_sorted(samples, p);
      return t;
    }
  }
  t.value = samples.back();
  return t;
}

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 50.0);
  s.tail = tail_of(samples);
  return s;
}

void put_latency(RunResult& r, const std::string& p50_name,
                 const std::string& tail_name, const std::string& unit,
                 const std::vector<double>& samples) {
  const LatencySummary s = summarize(samples);
  r.set(p50_name, s.p50, unit);
  r.set(tail_name, s.tail.value, unit);
  std::ostringstream os;
  os << "p" << s.tail.percentile << " of " << s.n << " samples, "
     << s.tail.beyond << " beyond";
  r.info[tail_name] = os.str();
}

namespace {

/// Tail of `samples` cut into as many consecutive slices as give each at
/// least kTailWindowSamples, as the median slice's tail.
void put_sliced_tail(const std::vector<std::vector<double>>& slices,
                     WindowFigures& f) {
  std::vector<std::pair<double, Tail>> tails;
  for (const auto& slice : slices) {
    if (!slice.empty()) {
      const Tail t = tail_of(slice);
      tails.push_back({t.value, t});
    }
  }
  std::sort(tails.begin(), tails.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> values;
  for (const auto& t : tails) values.push_back(t.first);
  f.tail_ms = median(values);
  const Tail& mid = tails[tails.size() / 2].second;
  f.tail_percentile = mid.percentile;
  f.tail_beyond = mid.beyond;
}

int tail_slices(std::size_t n) {
  return static_cast<int>(
      std::clamp<std::size_t>(n / kTailWindowSamples, 1, kRateWindows));
}

/// Splits n items into `count` consecutive groups; returns item i's group.
int group_of(std::size_t i, std::size_t n, int count) {
  return static_cast<int>(i * static_cast<std::size_t>(count) / n);
}

}  // namespace

WindowFigures window_figures(const std::vector<Completion>& done,
                             double window_s) {
  WindowFigures f;
  f.n = done.size();
  if (done.empty() || !(window_s > 0.0)) return f;
  auto slices = [&](int count) {
    std::vector<std::vector<double>> out(static_cast<std::size_t>(count));
    for (const Completion& c : done) {
      const int k = std::clamp(static_cast<int>(c.at_s / window_s * count), 0,
                               count - 1);
      out[static_cast<std::size_t>(k)].push_back(c.latency_ms);
    }
    return out;
  };
  const double slice_s = window_s / kRateWindows;
  std::vector<double> rates, p50s;
  for (const auto& slice : slices(kRateWindows)) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
    if (!slice.empty()) p50s.push_back(summarize(slice).p50);
  }
  f.per_s = median(rates);
  f.per_s_min = *std::min_element(rates.begin(), rates.end());
  f.per_s_max = *std::max_element(rates.begin(), rates.end());
  f.p50_ms = median(p50s);
  f.tail_windows = tail_slices(done.size());
  put_sliced_tail(slices(f.tail_windows), f);
  return f;
}

WindowFigures closed_loop_figures(const std::vector<Round>& rounds) {
  WindowFigures f;
  const std::size_t n = rounds.size();
  f.n = n;
  if (n == 0) return f;
  std::vector<double> latency(n), factor(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= kProbeSpan ? i - kProbeSpan : 0;
    const std::size_t hi = std::min(n, i + kProbeSpan + 1);
    std::vector<double> near;
    for (std::size_t j = lo; j < hi; ++j) near.push_back(rounds[j].probe_ms);
    factor[i] = median(near) / kProbeNominalMs;
    latency[i] = rounds[i].latency_ms / factor[i];
  }
  f.host_factor = median(factor);
  const int count = static_cast<int>(std::min<std::size_t>(kRateWindows, n));
  std::vector<double> images(static_cast<std::size_t>(count), 0.0),
      busy_s(static_cast<std::size_t>(count), 0.0);
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(group_of(i, n, count));
    images[k] += rounds[i].images;
    busy_s[k] += latency[i] * 1e-3;
    slices[k].push_back(latency[i]);
  }
  std::vector<double> rates, p50s;
  for (int k = 0; k < count; ++k) {
    const auto s = static_cast<std::size_t>(k);
    rates.push_back(images[s] / busy_s[s]);
    p50s.push_back(summarize(slices[s]).p50);
  }
  f.per_s = median(rates);
  f.per_s_min = *std::min_element(rates.begin(), rates.end());
  f.per_s_max = *std::max_element(rates.begin(), rates.end());
  f.p50_ms = median(p50s);
  f.tail_windows = tail_slices(n);
  std::vector<std::vector<double>> tail_groups(
      static_cast<std::size_t>(f.tail_windows));
  for (std::size_t i = 0; i < n; ++i) {
    tail_groups[static_cast<std::size_t>(group_of(i, n, f.tail_windows))]
        .push_back(latency[i]);
  }
  put_sliced_tail(tail_groups, f);
  return f;
}

void put_window_latency(RunResult& r, const WindowFigures& f) {
  r.set("latency_p50_ms", f.p50_ms, "ms");
  r.set("latency_tail_ms", f.tail_ms, "ms");
  std::ostringstream os;
  os << "median of " << f.tail_windows << " window tails, each p"
     << f.tail_percentile << " (" << f.tail_beyond << " beyond) of ~"
     << f.n / static_cast<std::size_t>(f.tail_windows) << " samples; "
     << f.n << " samples in all";
  r.info["latency_tail_ms"] = os.str();
  r.info["latency_p50_ms"] =
      "median of " + std::to_string(kRateWindows) + " window medians";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "median of %d windows (%.4g to %.4g)",
                kRateWindows, f.per_s_min, f.per_s_max);
  r.info["completions_per_s"] = buf;
}

// ---- tracing -----------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::uint64_t Tracer::record(std::uint64_t id, std::uint64_t parent,
                             std::uint64_t request, const std::string& name,
                             const std::string& layer, double start_us,
                             double end_us) {
  if (!enabled_) return 0;
  if (id == 0) id = next_id();
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.layer = layer;
  s.start_us = start_us;
  s.end_us = std::max(start_us, end_us);
  s.tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::vector<Span> spans = this->spans();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  if (spans.size() > kMaxTraceEvents) spans.resize(kMaxTraceEvents);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"span\":%llu,\"parent\":%llu,"
                  "\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                  s.start_us, s.duration_us(), s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::map<std::uint64_t, double> self_times_us(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_us, s.end_us});
  }
  std::map<std::uint64_t, double> self;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    double covered = 0.0;
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0, cur_hi = -1.0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.id] = s.duration_us() - covered;
  }
  return self;
}

TraceTotals trace_totals(const std::vector<Span>& spans) {
  TraceTotals t;
  const std::map<std::uint64_t, double> self = self_times_us(spans);
  for (const Span& s : spans) {
    const double own = self.at(s.id);
    t.self_us_by_layer[s.layer] += own;
    if (s.parent == 0) {
      t.root_us += s.duration_us();
      t.unattributed_us += own;
    }
  }
  return t;
}

const std::vector<std::string>& request_layers() {
  static const std::vector<std::string> layers = {"runtime", "models",
                                                  "cluster", "loadgen"};
  return layers;
}

void put_trace_totals(RunResult& r, const std::vector<Span>& spans) {
  const TraceTotals t = trace_totals(spans);
  const double root = t.root_us > 0.0 ? t.root_us : 1.0;
  r.set("trace.unattributed_share", t.unattributed_us / root, "ratio");
  for (const std::string& layer : request_layers()) {
    auto it = t.self_us_by_layer.find(layer);
    r.set("trace.self_share." + layer,
          it == t.self_us_by_layer.end() ? 0.0 : it->second / root, "ratio");
  }
  r.info["trace.spans"] = std::to_string(spans.size());
}

// ---- model and inputs --------------------------------------------------

models::ModelSnapshot::Ptr make_snapshot(const models::NetworkSpec& spec) {
  models::Network net(spec);
  odenet::util::Rng rng(kWeightSeed);
  net.init(rng);
  // BN running statistics calibrated on data, as a trained network's are.
  // With He-initialized weights and the default (0, 1) statistics the
  // weight-shared ODE stages amplify their input on every Euler step
  // (layer3_2 of rODENet-3-56 reaches ~1e8), far past any Q-format range.
  net.set_training(true);
  for (int b = 0; b < kCalibrationBatches; ++b) {
    (void)net.forward(make_images(16, spec.width, kWeightSeed + 1 + b));
  }
  net.set_training(false);
  return models::ModelSnapshot::capture(net);
}

core::Tensor make_images(int n, const models::WidthConfig& w,
                         std::uint64_t seed) {
  core::Tensor x({n, w.input_channels, w.input_size, w.input_size});
  odenet::util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return x;
}

core::Tensor image_at(const core::Tensor& images, int i) {
  const int c = images.dim(1), h = images.dim(2), w = images.dim(3);
  const std::size_t stride = static_cast<std::size_t>(c) * h * w;
  core::Tensor image({c, h, w});
  std::copy_n(images.data() + static_cast<std::size_t>(i) * stride, stride,
              image.data());
  return image;
}

core::Tensor batch_from(const core::Tensor& images, int first, int count) {
  const int n = images.dim(0), c = images.dim(1), h = images.dim(2),
            w = images.dim(3);
  const std::size_t stride = static_cast<std::size_t>(c) * h * w;
  core::Tensor out({count, c, h, w});
  for (int i = 0; i < count; ++i) {
    std::copy_n(images.data() + static_cast<std::size_t>((first + i) % n) *
                                    stride,
                stride, out.data() + static_cast<std::size_t>(i) * stride);
  }
  return out;
}

core::Tensor reference_logits(const models::ModelSnapshot& snapshot,
                              const models::NetworkSpec& spec,
                              const core::Tensor& images,
                              const models::StageId* per_image_bn_stage) {
  models::Network ref(spec);
  ref.apply_snapshot(snapshot);
  ref.set_training(false);
  ref.set_conv_algo(core::ConvAlgo::kDirect);
  if (per_image_bn_stage == nullptr) return ref.forward(images);
  models::Stage* stage = ref.stage(*per_image_bn_stage);
  stage->ode()->block().bn1().set_use_batch_stats_in_eval(true);
  stage->ode()->block().bn2().set_use_batch_stats_in_eval(true);
  const int n = images.dim(0);
  const int classes = spec.width.num_classes;
  core::Tensor out({n, classes});
  for (int i = 0; i < n; ++i) {
    core::Tensor logits = ref.forward(batch_from(images, i, 1));
    std::copy_n(logits.data(), static_cast<std::size_t>(classes),
                out.data() + static_cast<std::size_t>(i) * classes);
  }
  return out;
}

double LogitError::add(const float* logits, const float* ref, int classes) {
  double d2 = 0.0, r2 = 0.0;
  for (int k = 0; k < classes; ++k) {
    const double d = static_cast<double>(logits[k]) - ref[k];
    d2 += d * d;
    r2 += static_cast<double>(ref[k]) * ref[k];
  }
  diff2 += d2;
  ref2 += r2;
  outputs += 1;
  // A non-finite logit makes d2 NaN; report it as an unbounded error.
  if (!std::isfinite(d2)) return INFINITY;
  return r2 > 0.0 ? std::sqrt(d2 / r2) : std::sqrt(d2);
}

double LogitError::rel() const {
  return ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0;
}

double logit_bound(core::ExecBackend backend,
                   const models::NetworkSpec& spec) {
  // First-order propagation of rounding through the network's convs: L
  // conv executions, each adding independent rounding whose RMS relative
  // to its output is eps, sum to sqrt(L) * eps. kHeadroom covers the
  // Euler steps' amplification of earlier errors.
  constexpr double kHeadroom = 4.0;
  const double convs = 2.0 * spec.total_block_executions();
  const double taps = 9.0 * 4 * spec.width.base_channels;  // widest conv
  // Float: reordered accumulation of up to `taps` products, unit
  // roundoff 2^-24 per add, random-walk growth.
  const double float_bound =
      kHeadroom * std::sqrt(convs * taps) * std::ldexp(1.0, -24);
  // A weight rounded to 2^-fb carries RMS error 2^-fb / sqrt(12); relative
  // to He-initialized weights of the widest conv (std sqrt(2 / taps)),
  // the smallest, that is the conv output's relative rounding error.
  // Activations round far finer (up to 15 fractional bits of their own
  // range), so weights set the bound.
  const auto weight_eps = [&](int frac_bits) {
    return std::ldexp(1.0, -frac_bits) / std::sqrt(12.0) /
           std::sqrt(2.0 / taps);
  };
  switch (backend) {
    case core::ExecBackend::kFloat:
      return float_bound;
    case core::ExecBackend::kFixed:
      // int16 weights keep at least 11 fractional bits at these widths:
      // the accumulator envelope sum|w_q| <= 65535 holds at 11 bits for
      // a 576-tap He-initialized conv (sum|w| ~ 27).
      return kHeadroom * std::sqrt(convs) * weight_eps(11);
    case core::ExecBackend::kFpgaSim: {
      // Only layer3_2 runs on the PL, on the Q(20) datapath.
      const double pl_convs =
          2.0 * spec.stage(models::StageId::kLayer3_2).total_executions();
      return float_bound +
             kHeadroom * std::sqrt(pl_convs) * weight_eps(20);
    }
  }
  return 0.0;
}

int argmax(const float* v, int n) {
  int best = 0;
  for (int k = 1; k < n; ++k) {
    if (v[k] > v[best]) best = k;
  }
  return best;
}

// ---- modeled vs measured ------------------------------------------------

std::uint64_t block_macs_from_geometry(const models::StageSpec& spec) {
  const std::uint64_t out = static_cast<std::uint64_t>(spec.in_size /
                                                       spec.stride);
  const std::uint64_t taps = 3 * 3;
  return out * out * taps *
         (static_cast<std::uint64_t>(spec.in_channels) * spec.out_channels +
          static_cast<std::uint64_t>(spec.out_channels) * spec.out_channels);
}

std::uint64_t network_macs(const models::NetworkSpec& spec) {
  const auto& w = spec.width;
  std::uint64_t macs = static_cast<std::uint64_t>(w.input_channels) *
                       w.base_channels * 9 * w.input_size * w.input_size;
  for (const auto& s : spec.stages) {
    macs += block_macs_from_geometry(s) *
            static_cast<std::uint64_t>(s.total_executions());
  }
  macs += static_cast<std::uint64_t>(4 * w.base_channels) * w.num_classes;
  return macs;
}

std::vector<std::string> present_stages(const models::NetworkSpec& spec) {
  std::vector<std::string> names = {"conv1"};
  for (const auto& s : spec.stages) {
    if (s.stacked_blocks > 0) names.push_back(models::stage_name(s.id));
  }
  names.push_back("fc");
  return names;
}

std::map<std::string, double> print_stage_table(
    const std::string& workload, const models::NetworkSpec& spec,
    const std::map<std::string, double>& measured_share) {
  const odenet::sched::CpuModel cpu;
  const double total = cpu.network_seconds(spec);
  std::map<std::string, double> modeled;
  modeled["conv1"] = cpu.stem_seconds(spec.width) / total;
  modeled["fc"] = cpu.head_seconds(spec.width) / total;
  for (const auto& s : spec.stages) {
    if (s.stacked_blocks > 0) {
      modeled[models::stage_name(s.id)] = cpu.stage_seconds(s) / total;
    }
  }
  std::printf("stage table (%s, %s-%d): sched CpuModel share vs measured\n",
              workload.c_str(), models::arch_name(spec.arch).c_str(), spec.n);
  std::printf("  %-9s %10s %10s\n", "stage", "modeled", "measured");
  for (const std::string& name : present_stages(spec)) {
    auto it = measured_share.find(name);
    if (it == measured_share.end()) {
      std::printf("  %-9s %9.2f%% %10s\n", name.c_str(),
                  100.0 * modeled[name], "-");
    } else {
      std::printf("  %-9s %9.2f%% %9.2f%%\n", name.c_str(),
                  100.0 * modeled[name], 100.0 * it->second);
    }
  }
  return modeled;
}

}  // namespace perfbench
