// serve_open: open-loop serving over TCP. A seeded Poisson schedule sends
// single-image requests to a 2-shard EngineCluster behind SocketFrontend;
// each shard serves a float and a fixed backend under least-depth routing
// with bounded queues. The model is a reduced-width rODENet-3-20 (8 base
// channels, 16x16 inputs).
//
// The traffic is taken from workloads the repo already defines, not made
// up here:
//  - shard engines as in bench_cluster: max_batch 8, a 1 ms batching
//    window, queues bounded at 16, and BackendConfig::sim_batch_latency
//    of 40 ms per micro-batch (an emulated accelerator round trip). The
//    pacing makes service time a property of the workload, not of the
//    host: a worker sleeps through it, so outside CPU load moves latency
//    by the model's few milliseconds of compute, not by the queueing;
//  - tenants as in bench_cluster's adversarial act: one hot tenant sends
//    half the requests, the rest cycle over 64 tenants (all weight 1);
//  - priorities cycle high, normal, low, as in bench_overload.
// The offered rate is fixed at 0.7 of the paced capacity (8 images per
// 40 ms per backend, 800 img/s in all). Consistent hashing homes about
// three quarters of the traffic, 1.05x its paced capacity, on the hot
// tenant's shard, so that shard's queues run full, batches form at
// max_batch there, and the overflow spills to the other shard. Requests
// are non-evictable, so a full queue sends a high-priority arrival to the
// other shard instead of evicting a waiting low one.
//
// No request may fail for timing alone: a failure count that depends on
// the host's load would differ between two runs of the same code. So no
// request carries a deadline (one close to the full shard's queue wait
// expired now and then when outside load stalled the host), and a request
// the cluster sheds because every candidate queue is full is sent again
// after kRetryDelay, as a client retries a refused call. Its latency still
// counts from when it was first due; the traced run counts the retries.
//
// Requests alternate between one FrontendClient connection and in-process
// EngineCluster::submit (a co-located caller), which is where submit time,
// queue wait and the serving backend are visible per request.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "cluster/protocol.hpp"
#include "common.hpp"
#include "modelloop.hpp"
#include "openloop.hpp"
#include "sched/latency_model.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace runtime = odenet::runtime;
namespace cluster = odenet::cluster;

namespace {

// ---- the workload definition (identical on every commit) ---------------

constexpr int kShards = 2;
constexpr int kBackendsPerShard = 2;  // float, fixed
constexpr int kMaxBatch = 8;
constexpr std::size_t kQueueDepth = 16;
constexpr std::chrono::milliseconds kPacing{40};
constexpr int kPool = 256;
constexpr int kTenants = 64;
constexpr double kHotShare = 0.5;
constexpr std::chrono::milliseconds kRetryDelay{1};
/// Retries after which a shed request counts as failed (~2 s of refusals).
constexpr int kMaxRetries = 2000;
constexpr double kPacedCapacity = kShards * kBackendsPerShard * kMaxBatch *
                                  1000.0 / kPacing.count();  // img/s
constexpr double kNominalRate = 0.7 * kPacedCapacity;  // req/s
constexpr int kSetupRepeats = 7;
constexpr double kWarmupSeconds = 1.0;

models::NetworkSpec serve_spec() {
  models::WidthConfig w;
  w.input_channels = 3;
  w.input_size = 16;
  w.base_channels = 8;
  w.num_classes = 10;
  return models::make_spec(models::Arch::kROdeNet3, 20, w);
}

runtime::EngineConfig shard_config() {
  runtime::EngineConfig cfg;
  cfg.max_batch = kMaxBatch;
  cfg.max_delay = std::chrono::microseconds(1000);
  cfg.route_policy = runtime::RoutePolicy::kLeastDepth;
  cfg.max_queue_depth = kQueueDepth;
  runtime::BackendConfig fixed;
  fixed.backend = core::ExecBackend::kFixed;
  cfg.backends = {runtime::BackendConfig{}, fixed};
  for (runtime::BackendConfig& b : cfg.backends) b.sim_batch_latency = kPacing;
  return cfg;
}

std::string tenant_name(int tenant) {
  return tenant < 0 ? "tenant-hot" : "tenant-" + std::to_string(tenant);
}

// ---- one request ---------------------------------------------------------

struct Planned {
  double due_s = 0.0;
  int tenant = -1;  // -1 = the hot tenant
  runtime::Priority priority = runtime::Priority::kNormal;
  int image = 0;
  bool in_process = false;
};

struct Outcome {
  Clock::time_point due{}, send_start{}, send_end{}, done{};
  double encode_us = 0.0, decode_us = 0.0;
  double server_ms = 0.0;  // WireResponse::latency_ms
  double submit_us = 0.0, queue_ms = 0.0, compute_ms = 0.0;
  int responses = 0;
  int retries = 0;  // sends the cluster shed
  bool ok = false;
  int backend = -1;  // known for in-process requests
};

std::vector<Planned> make_plan(double rate, double seconds,
                               std::uint64_t seed) {
  std::vector<Planned> plan;
  odenet::util::Rng pick(seed);
  const std::vector<double> due =
      poisson_schedule(rate, seconds, seed ^ 0x5EEDULL);
  for (std::size_t i = 0; i < due.size(); ++i) {
    Planned p;
    p.due_s = due[i];
    p.tenant =
        pick.uniform() < kHotShare ? -1 : static_cast<int>(i % kTenants);
    p.priority = static_cast<runtime::Priority>(2 - static_cast<int>(i % 3));
    p.image = static_cast<int>(pick.uniform_int(kPool));
    p.in_process = i % 2 == 1;
    plan.push_back(p);
  }
  return plan;
}

// ---- the serving stack ---------------------------------------------------

struct Stack {
  std::unique_ptr<cluster::EngineCluster> cluster;
  std::unique_ptr<cluster::SocketFrontend> frontend;
  std::unique_ptr<cluster::FrontendClient> client;

  void stop() {
    client.reset();
    if (frontend) frontend->stop();
    frontend.reset();
    if (cluster) cluster->shutdown();
    cluster.reset();
  }
  ~Stack() { stop(); }
};

cluster::WireRequest wire_request(const Planned& p, std::uint64_t id,
                                  const core::Tensor& images) {
  cluster::WireRequest req;
  req.id = id;
  req.priority = p.priority;
  req.evictable = false;
  req.tenant = tenant_name(p.tenant);
  req.channels = static_cast<std::uint16_t>(images.dim(1));
  req.height = static_cast<std::uint16_t>(images.dim(2));
  req.width = static_cast<std::uint16_t>(images.dim(3));
  const std::size_t stride = static_cast<std::size_t>(images.dim(1)) *
                             images.dim(2) * images.dim(3);
  const float* src = images.data() + static_cast<std::size_t>(p.image) * stride;
  req.pixels.assign(src, src + stride);
  return req;
}

/// Builds the stack and serves one request over TCP: the set-up a serving
/// deployment pays before its first answer.
void build_stack(Stack& s, const models::ModelSnapshot::Ptr& snapshot,
                 const core::Tensor& images) {
  std::vector<cluster::ShardSpec> shards;
  for (int i = 0; i < kShards; ++i) {
    cluster::ShardSpec spec;
    spec.snapshot = snapshot;
    spec.engine = shard_config();
    spec.name = "shard" + std::to_string(i);
    shards.push_back(std::move(spec));
  }
  s.cluster = std::make_unique<cluster::EngineCluster>(std::move(shards));
  s.frontend = std::make_unique<cluster::SocketFrontend>(*s.cluster);
  s.frontend->start();
  s.client = std::make_unique<cluster::FrontendClient>("127.0.0.1",
                                                       s.frontend->port());
  Planned p;
  s.client->send(wire_request(p, 0, images));
  const cluster::WireResponse res = s.client->recv();
  ODENET_CHECK(res.status == cluster::ResponseStatus::kOk,
               "first request failed: " << res.message);
}

// ---- one open-loop phase ---------------------------------------------------

struct PhaseResult {
  std::vector<Planned> plan;
  std::vector<Outcome> out;
  std::vector<double> lag_ms;
  Clock::time_point start{};  // schedule start
  double seconds = 0.0;       // schedule length
  std::uint64_t ok = 0, failed = 0;
  std::uint64_t retries = 0;  // sends of shed requests
  std::vector<Completion> done;  // completed requests, latency from due
};

struct Checker {
  const core::Tensor& refs;
  int classes;
  double float_bound;
  double fixed_bound;
  RunResult& r;
  std::mutex mutex;
  LogitError err[2];  // per backend: float, fixed (in-process requests)

  /// False when the output is wrong; records why.
  bool check(const float* logits, std::size_t n, int predicted, int image,
             int backend) {
    const float* ref = refs.data() + static_cast<std::size_t>(image) * classes;
    std::lock_guard<std::mutex> lock(mutex);
    if (n != static_cast<std::size_t>(classes)) {
      r.fail_check("response carries " + std::to_string(n) + " logits");
      return false;
    }
    LogitError scratch;
    LogitError& acc = backend >= 0 ? err[backend] : scratch;
    const double rel = acc.add(logits, ref, classes);
    // Over TCP the serving backend is unknown: the looser bound applies.
    const double bound = backend == 0 ? float_bound : fixed_bound;
    if (!(rel <= bound)) {
      r.fail_check("image " + std::to_string(image) + ": logit error " +
                   std::to_string(rel) + " over bound " +
                   std::to_string(bound));
      return false;
    }
    if (predicted != argmax(logits, classes)) {
      r.fail_check("predicted class is not the logits' argmax");
      return false;
    }
    return true;
  }
};

PhaseResult run_phase(Stack& s, const core::Tensor& images, Checker& checker,
                      double rate, double seconds, std::uint64_t seed,
                      std::uint64_t id_base, Tracer& tracer) {
  PhaseResult ph;
  ph.plan = make_plan(rate, seconds, seed);
  ph.seconds = seconds;
  const std::size_t n = ph.plan.size();
  ph.out.resize(n);
  std::size_t expected_in_process = 0;
  for (const Planned& p : ph.plan) expected_in_process += p.in_process;
  const std::size_t expected_wire = n - expected_in_process;

  // Receivers: one for the connection, one for in-process futures.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  int finished = 0;
  auto mark_finished = [&] {
    std::lock_guard<std::mutex> lock(done_mutex);
    ++finished;
    done_cv.notify_all();
  };
  // The sender and the receiver (resending shed requests) share the
  // connection's write side.
  std::mutex send_mutex;
  auto send_frame = [&](const std::vector<std::uint8_t>& frame) {
    std::lock_guard<std::mutex> lock(send_mutex);
    s.client->send_raw(frame.data(), frame.size());
  };
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      // Final responses; a shed one is sent again instead.
      for (std::size_t finals = 0; finals < expected_wire;) {
        const cluster::WireResponse res = s.client->recv();
        const auto now = Clock::now();
        const std::uint64_t idx = res.id - id_base;
        if (res.id < id_base || idx >= n || ph.plan[idx].in_process) {
          std::lock_guard<std::mutex> lock(checker.mutex);
          checker.r.fail_check("response id " + std::to_string(res.id) +
                               " was never sent on this connection");
          ++finals;
          continue;
        }
        Outcome& o = ph.out[idx];
        if (res.status == cluster::ResponseStatus::kShed &&
            o.retries < kMaxRetries) {
          o.retries += 1;
          std::this_thread::sleep_for(kRetryDelay);
          send_frame(cluster::encode_request(
              wire_request(ph.plan[idx], res.id, images)));
          continue;
        }
        ++finals;
        o.responses += 1;
        o.done = now;
        o.server_ms = res.latency_ms;
        if (tracer.enabled()) {
          // FrontendClient::recv decodes internally; time the same
          // decode on the same frame to attribute it.
          const std::vector<std::uint8_t> frame =
              cluster::encode_response(res);
          const auto t0 = Clock::now();
          (void)cluster::decode_response(
              frame.data() + cluster::kFrameHeaderBytes,
              frame.size() - cluster::kFrameHeaderBytes);
          o.decode_us = ms_between(t0, Clock::now()) * 1e3;
        }
        o.ok = res.status == cluster::ResponseStatus::kOk &&
               checker.check(res.logits.data(), res.logits.size(),
                             res.predicted, ph.plan[idx].image, -1);
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(checker.mutex);
      checker.r.fail_check(std::string("connection failed: ") + e.what());
    }
    mark_finished();
  });
  std::mutex q_mutex;
  std::condition_variable q_cv;
  std::deque<std::pair<std::size_t, std::future<runtime::InferenceResult>>>
      queue;
  threads.emplace_back([&] {
    for (std::size_t k = 0; k < expected_in_process; ++k) {
      std::pair<std::size_t, std::future<runtime::InferenceResult>> item;
      {
        std::unique_lock<std::mutex> lock(q_mutex);
        q_cv.wait(lock, [&] { return !queue.empty(); });
        item = std::move(queue.front());
        queue.pop_front();
      }
      Outcome& o = ph.out[item.first];
      o.responses += 1;
      try {
        const runtime::InferenceResult res = item.second.get();
        // Completion on the engine's own clock: enqueue (end of submit)
        // plus submit-to-completion time, so waiting on futures in order
        // adds nothing.
        o.done = o.send_end + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      res.total_seconds));
        o.queue_ms = res.queue_seconds * 1e3;
        o.compute_ms = res.compute_seconds * 1e3;
        o.backend = static_cast<int>(res.backend_index);
        o.ok = checker.check(res.logits.data(), res.logits.numel(),
                             res.predicted, ph.plan[item.first].image,
                             o.backend);
      } catch (const std::exception&) {
        o.done = Clock::now();
      }
    }
    mark_finished();
  });

  // Sender: the open-loop schedule on this thread.
  OpenLoopSchedule schedule([&] {
    std::vector<double> due;
    for (const Planned& p : ph.plan) due.push_back(p.due_s);
    return due;
  }());
  schedule.run([&](std::size_t i, Clock::time_point due) {
    const Planned& p = ph.plan[i];
    Outcome& o = ph.out[i];
    o.due = due;
    o.send_start = Clock::now();
    if (p.in_process) {
      runtime::SubmitOptions opts;
      opts.tenant = tenant_name(p.tenant);
      opts.priority = p.priority;
      opts.evictable = false;
      std::future<runtime::InferenceResult> f;
      auto t0 = Clock::now();
      for (;;) {
        t0 = Clock::now();
        try {
          f = s.cluster->submit(image_at(images, p.image), opts);
        } catch (const std::exception&) {
          // The waiter still gets one future per request: a failed one.
          std::promise<runtime::InferenceResult> failed;
          failed.set_exception(std::current_exception());
          f = failed.get_future();
        }
        // A shed request's future is failed already when submit returns;
        // a queued one cannot be done before its 40 ms micro-batch.
        if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready ||
            o.retries >= kMaxRetries) {
          break;
        }
        try {
          std::promise<runtime::InferenceResult> done;
          done.set_value(f.get());
          f = done.get_future();
          break;
        } catch (const runtime::QueueFull&) {
          o.retries += 1;
          std::this_thread::sleep_for(kRetryDelay);
        } catch (const std::exception&) {
          std::promise<runtime::InferenceResult> failed;
          failed.set_exception(std::current_exception());
          f = failed.get_future();
          break;
        }
      }
      o.send_end = Clock::now();
      o.submit_us = ms_between(t0, o.send_end) * 1e3;
      {
        std::lock_guard<std::mutex> lock(q_mutex);
        queue.emplace_back(i, std::move(f));
      }
      q_cv.notify_one();
    } else {
      const cluster::WireRequest req = wire_request(p, id_base + i, images);
      const auto t0 = Clock::now();
      const std::vector<std::uint8_t> frame = cluster::encode_request(req);
      o.encode_us = ms_between(t0, Clock::now()) * 1e3;
      try {
        send_frame(frame);
      } catch (const std::exception& e) {
        // Its receiver waits for a reply that cannot come; the watchdog
        // below stops the front-end to release it.
        std::lock_guard<std::mutex> lock(checker.mutex);
        checker.r.fail_check(std::string("send failed: ") + e.what());
      }
      o.send_end = Clock::now();
    }
  });
  ph.lag_ms = schedule.lag_ms();
  ph.start = schedule.start();

  // Every request resolves well within a few seconds of its phase; a
  // receiver still waiting after that means a lost response. Stopping the
  // front-end closes the connections and unblocks it.
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    const int total = static_cast<int>(threads.size());
    if (!done_cv.wait_for(lock, std::chrono::seconds(20),
                          [&] { return finished == total; })) {
      lock.unlock();
      {
        std::lock_guard<std::mutex> guard(checker.mutex);
        checker.r.fail_check("responses missing 20 s after the schedule ended");
      }
      s.frontend->stop();
    }
  }
  for (auto& t : threads) t.join();

  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = ph.out[i];
    ph.retries += static_cast<std::uint64_t>(o.retries);
    if (o.responses != 1) {
      checker.r.fail_check("request " + std::to_string(id_base + i) +
                           " resolved " + std::to_string(o.responses) +
                           " times");
      ph.failed += 1;
      continue;
    }
    if (!o.ok) {
      ph.failed += 1;
      continue;
    }
    ph.ok += 1;
    const double at_s = ms_between(ph.start, o.done) * 1e-3;
    ph.done.push_back({at_s, ms_between(o.due, o.done)});
  }

  if (tracer.enabled()) {
    for (std::size_t i = 0; i < n; ++i) {
      const Outcome& o = ph.out[i];
      if (!o.ok) continue;
      const std::uint64_t root = tracer.next_id();
      const std::uint64_t req = id_base + i;
      const double due = tracer.to_us(o.due), done = tracer.to_us(o.done);
      const double send = tracer.to_us(o.send_start);
      const double sent = tracer.to_us(o.send_end);
      tracer.record(0, root, req, "loadgen.lag", "loadgen", due, send);
      if (ph.plan[i].in_process) {
        tracer.record(0, root, req, "cluster.submit", "cluster", sent -
                      o.submit_us, sent);
        tracer.record(0, root, req, "runtime.queue_wait", "runtime", sent,
                      sent + o.queue_ms * 1e3);
        tracer.record(0, root, req, "runtime.forward", "models",
                      done - o.compute_ms * 1e3, done);
      } else {
        tracer.record(0, root, req, "cluster.encode", "cluster", send,
                      send + o.encode_us);
        tracer.record(0, root, req, "cluster.send", "cluster",
                      send + o.encode_us, sent);
        tracer.record(0, root, req, "cluster.server", "cluster",
                      done - o.server_ms * 1e3, done);
      }
      tracer.record(root, 0, req, "serve.request", "loadgen", due, done);
    }
  }
  return ph;
}

struct BackendTotals {
  double requests = 0, batches = 0, busy = 0, routed = 0, routed_fixed = 0,
         shed = 0, growths = 0;
  double submitted = 0, spilled = 0;
};

BackendTotals totals(const cluster::ClusterStats& st) {
  BackendTotals t;
  for (const auto& shard : st.shards) {
    for (const auto& b : shard.engine.backends) {
      t.requests += static_cast<double>(b.requests);
      t.batches += static_cast<double>(b.batches);
      t.busy += b.busy_seconds;
      t.routed += static_cast<double>(b.routed);
      if (b.backend == core::ExecBackend::kFixed) {
        t.routed_fixed += static_cast<double>(b.routed);
      }
      t.shed += static_cast<double>(b.rejected + b.evicted + b.timeouts);
      t.growths += static_cast<double>(b.arena_growths);
    }
  }
  t.submitted = static_cast<double>(st.submitted);
  t.spilled = static_cast<double>(st.spilled);
  return t;
}

}  // namespace

RunResult run_serve_open(const RunArgs& args) {
  RunResult r;
  const models::NetworkSpec spec = serve_spec();
  const models::ModelSnapshot::Ptr snapshot = make_snapshot(spec);
  const core::Tensor images = make_images(kPool, spec.width, args.seed);
  const core::Tensor refs = reference_logits(*snapshot, spec, images, nullptr);
  Checker checker{refs, spec.width.num_classes,
                  logit_bound(core::ExecBackend::kFloat, spec),
                  logit_bound(core::ExecBackend::kFixed, spec), r, {}, {}};
  r.info["logit_bound.float"] = std::to_string(checker.float_bound);
  r.info["logit_bound.fixed"] = std::to_string(checker.fixed_bound);
  Tracer untraced(false);

  Stack stack;
  std::vector<double> setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.stop();
    const auto t0 = Clock::now();
    build_stack(stack, snapshot, images);
    setup.push_back(seconds_since(t0));
    r.attempted += 1;
  }
  r.set("setup_s", median(setup), "s");

  std::uint64_t id_base = 1;
  std::uint64_t phase_seed = args.seed * 1000003ULL;
  auto next_phase = [&](double rate, double seconds, Tracer& tracer) {
    PhaseResult ph = run_phase(stack, images, checker, rate, seconds,
                               ++phase_seed, id_base, tracer);
    id_base += ph.plan.size();
    return ph;
  };
  // Warm-up: every replica, arena and weight pack touched, and the hot
  // shard's queues filled to their steady state.
  {
    PhaseResult warm = next_phase(kNominalRate, kWarmupSeconds, untraced);
    r.attempted += warm.plan.size();
    r.failed += warm.failed;
  }
  const double nominal_share = args.trace ? 0.3 : 1.0;
  const cluster::ClusterStats before = stack.cluster->stats();
  PhaseResult nominal =
      next_phase(kNominalRate, args.seconds * nominal_share, untraced);
  const cluster::ClusterStats after = stack.cluster->stats();
  r.attempted += nominal.plan.size();
  r.failed += nominal.failed;
  const WindowFigures fig = window_figures(nominal.done, nominal.seconds);
  // On an open loop the completed rate is the offered rate unless
  // requests fail: a guard, not a capacity figure.
  r.set("images_per_s", fig.per_s, "img/s");
  put_window_latency(r, fig);
  r.info["images_per_s"] = "completed rate at the fixed offered rate";
  r.info["nominal_rate"] = std::to_string(kNominalRate);
  r.info["warmup_s"] = std::to_string(kWarmupSeconds);
  r.info["setup_repeats"] = std::to_string(kSetupRepeats);
  std::string admitted;
  for (std::size_t i = 0; i < after.shards.size(); ++i) {
    admitted += (i == 0 ? "" : "; ") + after.shards[i].name + " placed " +
                std::to_string(after.shards[i].placed -
                               before.shards[i].placed) +
                ", spilled in " +
                std::to_string(after.shards[i].spilled_in -
                               before.shards[i].spilled_in);
  }
  r.info["shard_admissions"] = admitted;
  r.info["nominal_requests"] = std::to_string(nominal.plan.size());
  r.info["shed_retries"] = std::to_string(nominal.retries);

  std::map<std::string, double> measured_share;
  if (args.trace) {
    const BackendTotals b0 = totals(before), b1 = totals(after);
    const double backends = kShards * kBackendsPerShard;
    r.set("runtime.batch_size.mean",
          (b1.requests - b0.requests) / std::max(1.0, b1.batches - b0.batches),
          "img");
    r.set("runtime.busy_share",
          (b1.busy - b0.busy) / (nominal.seconds * backends), "ratio");
    r.set("runtime.route_share.fixed",
          (b1.routed_fixed - b0.routed_fixed) /
              std::max(1.0, b1.routed - b0.routed),
          "ratio");
    const double submitted = std::max(1.0, b1.submitted - b0.submitted);
    r.set("runtime.shed_share", (b1.shed - b0.shed) / submitted, "ratio");
    r.set("runtime.arena_growths", b1.growths - b0.growths, "count");
    r.set("cluster.spill_share", (b1.spilled - b0.spilled) / submitted,
          "ratio");

    Tracer tracer(true);
    PhaseResult traced =
        next_phase(kNominalRate, args.seconds * 0.3, tracer);
    r.attempted += traced.plan.size();
    r.failed += traced.failed;
    r.set("cluster.retry_share",
          static_cast<double>(traced.retries) /
              static_cast<double>(std::max<std::size_t>(1, traced.plan.size())),
          "ratio");
    std::vector<double> submit_us, queue_ms, wire_ms, encode_us, decode_us;
    for (std::size_t i = 0; i < traced.out.size(); ++i) {
      const Outcome& o = traced.out[i];
      if (!o.ok) continue;
      if (traced.plan[i].in_process) {
        submit_us.push_back(o.submit_us);
        queue_ms.push_back(o.queue_ms);
      } else {
        wire_ms.push_back(ms_between(o.send_start, o.done) - o.server_ms);
        encode_us.push_back(o.encode_us);
        decode_us.push_back(o.decode_us);
      }
    }
    put_latency(r, "runtime.submit_us.p50", "runtime.submit_us.tail", "us",
                submit_us);
    put_latency(r, "runtime.queue_wait_ms.p50", "runtime.queue_wait_ms.tail",
                "ms", queue_ms);
    put_latency(r, "cluster.wire_ms.p50", "cluster.wire_ms.tail", "ms",
                wire_ms);
    r.set("cluster.encode_us", median(encode_us), "us");
    r.set("cluster.decode_us", median(decode_us), "us");
    const Tail lag = tail_of(traced.lag_ms);
    r.set("loadgen.lag_ms.tail", lag.value, "ms");
    r.info["loadgen.lag_ms.tail"] = "p" + std::to_string(lag.percentile);

    // Where each request's time went: the request-level spans only; the
    // model loop below breaks the forward pass down by stage.
    put_trace_totals(r, tracer.spans());
    // Stage shares of this model at the engine's batch size.
    ModelLoopConfig mcfg;
    mcfg.batch = kMaxBatch;
    mcfg.seconds = args.seconds * 0.15;
    int cursor = 0;
    const ModelLoopResult m = run_model_loop(
        spec, *snapshot, mcfg, images, cursor, tracer,
        [&](const float* logits, int image) {
          r.attempted += 1;
          if (!checker.check(logits, static_cast<std::size_t>(
                                         spec.width.num_classes),
                             argmax(logits, spec.width.num_classes), image,
                             0)) {
            r.failed += 1;
          }
        });
    measured_share = put_model_metrics(r, spec, m);
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out)) {
      r.fail_check("cannot write " + args.trace_out);
    }
  }
  // Over every in-process output of the run.
  r.set("logit_rel_err",
        std::max(checker.err[0].rel(), checker.err[1].rel()), "ratio");
  const cluster::FrontendCounters counters = stack.frontend->counters();
  r.set("cluster.protocol_errors",
        static_cast<double>(counters.protocol_errors), "count");
  if (counters.protocol_errors != 0) {
    r.fail_check("front-end counted " +
                 std::to_string(counters.protocol_errors) +
                 " protocol errors");
  }
  const odenet::sched::LatencyRow row = odenet::sched::LatencyModel{}.evaluate(
      spec, odenet::sched::Partition::none());
  r.set("sched.modeled_ms.ps", row.total_without_pl * 1e3, "ms");
  r.set("sched.modeled_ms.pspl", row.total_with_pl * 1e3, "ms");
  r.set("sched.modeled_speedup", row.overall_speedup, "x");
  print_stage_table(args.workload, spec, measured_share);
  stack.stop();
  return r;
}

}  // namespace perfbench
