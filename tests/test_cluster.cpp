// The sharded cluster layer (src/cluster/): consistent-hash placement
// determinism and failover, spill-then-shed ordering, shard cordon
// rejection, the wire protocol (round-trip, truncation, bad magic), and
// the socket front-end end-to-end with pipelined concurrent clients.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

#include "cluster/cluster.hpp"
#include "cluster/frontend.hpp"
#include "cluster/protocol.hpp"
#include "util/rng.hpp"

using namespace odenet;
using cluster::ClusterConfig;
using cluster::ClusterRouter;
using cluster::ClusterStats;
using cluster::EngineCluster;
using cluster::FrontendClient;
using cluster::FrontendConfig;
using cluster::kNoShard;
using cluster::ShardSpec;
using cluster::SocketFrontend;
using cluster::WireRequest;
using cluster::WireResponse;
using models::Arch;
using runtime::BackendLoad;
using runtime::InferenceResult;
using runtime::Priority;
using runtime::QueueFull;
using runtime::RoutePolicy;

namespace {

models::WidthConfig tiny_width() {
  return {.input_channels = 3, .input_size = 16, .base_channels = 4,
          .num_classes = 5};
}

models::ModelSnapshot::Ptr tiny_snapshot(std::uint64_t seed) {
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  util::Rng rng(seed);
  net.init(rng);
  return models::ModelSnapshot::capture(net);
}

core::Tensor random_image(util::Rng& rng) {
  core::Tensor x({3, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
  }
  return x;
}

/// N identical tiny shards. sim_pacing throttles each shard to a
/// wall-clock-bound capacity (see BackendConfig::sim_batch_latency) so
/// spill tests can fill a queue deterministically on any host.
std::vector<ShardSpec> tiny_shards(
    std::size_t n, std::chrono::microseconds sim_pacing = {},
    std::size_t max_queue_depth = 0, int max_batch = 8) {
  std::vector<ShardSpec> shards;
  for (std::size_t i = 0; i < n; ++i) {
    ShardSpec spec;
    spec.snapshot = tiny_snapshot(1);  // same weights on every shard
    spec.engine.max_batch = max_batch;
    spec.engine.max_delay = std::chrono::microseconds(500);
    spec.engine.max_queue_depth = max_queue_depth;
    spec.engine.backends[0].sim_batch_latency = sim_pacing;
    shards.push_back(std::move(spec));
  }
  return shards;
}

BackendLoad shard_load(std::size_t depth, double seconds) {
  BackendLoad l;
  l.queue_depth = depth;
  l.modeled_request_seconds = seconds;
  l.measured_request_seconds = seconds;
  return l;
}

runtime::SubmitOptions for_tenant(const std::string& tenant) {
  runtime::SubmitOptions opts;
  opts.tenant = tenant;
  return opts;
}

/// A complete request frame in the retired v1 layout: "QNDO", id,
/// priority, flags, deadline, tenant_len = 0, a [1,1,1] image, one pixel.
std::vector<std::uint8_t> legacy_v1_request_frame(std::uint8_t id) {
  // magic(4) id(8) priority(1) flags(1) deadline(4) tenant_len(2)
  // channels(2) height(2) width(2) pixel(4), all zero but these.
  constexpr std::size_t kPayload = 30;
  std::vector<std::uint8_t> frame(cluster::kFrameHeaderBytes + kPayload, 0);
  frame[0] = kPayload;
  std::uint8_t* payload = frame.data() + cluster::kFrameHeaderBytes;
  payload[0] = 'Q';
  payload[1] = 'N';
  payload[2] = 'D';
  payload[3] = 'O';
  payload[4] = id;
  payload[20] = 1;  // channels, height, width = 1 (u16 LE)
  payload[22] = 1;
  payload[24] = 1;
  return frame;
}

}  // namespace

// ---- ClusterRouter: placement ------------------------------------------

TEST(ClusterRouter, PlacementIsDeterministicAcrossInstances) {
  const std::vector<std::pair<std::string, double>> shards = {
      {"shard0", 1.0}, {"shard1", 1.0}, {"shard2", 1.0}, {"shard3", 1.0}};
  ClusterRouter a(shards, 64);
  ClusterRouter b(shards, 64);
  std::set<std::size_t> used;
  for (int t = 0; t < 200; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const std::size_t home = a.primary(tenant);
    ASSERT_LT(home, 4u);
    EXPECT_EQ(b.primary(tenant), home) << tenant;  // same ring, same home
    EXPECT_EQ(a.primary(tenant), home) << tenant;  // and stable per call
    used.insert(home);
  }
  // 200 tenants over 4 shards x 64 vnodes: every shard owns some arc.
  EXPECT_EQ(used.size(), 4u);
}

TEST(ClusterRouter, RemovingAShardOnlyRemapsItsOwnTenants) {
  const std::vector<std::pair<std::string, double>> four = {
      {"a", 1.0}, {"b", 1.0}, {"c", 1.0}, {"d", 1.0}};
  const std::vector<std::pair<std::string, double>> three = {
      {"a", 1.0}, {"b", 1.0}, {"c", 1.0}};
  ClusterRouter before(four, 64);
  ClusterRouter after(three, 64);
  for (int t = 0; t < 200; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    const std::size_t home = before.primary(tenant);
    if (home != 3) {
      // The consistent-hashing contract: tenants of surviving shards
      // stay put when another shard leaves the ring.
      EXPECT_EQ(after.primary(tenant), home) << tenant;
    } else {
      EXPECT_LT(after.primary(tenant), 3u) << tenant;
    }
  }
}

TEST(ClusterRouter, FailoverWalksRingPastNonAdmittingShards) {
  const std::vector<std::pair<std::string, double>> shards = {
      {"shard0", 1.0}, {"shard1", 1.0}, {"shard2", 1.0}};
  ClusterRouter router(shards, 64);
  const std::string tenant = "tenant-42";
  const std::size_t home = router.primary(tenant);

  std::vector<bool> admitting(3, true);
  admitting[home] = false;
  const std::size_t fallback = router.primary(tenant, admitting);
  ASSERT_NE(fallback, home);
  ASSERT_NE(fallback, kNoShard);
  // Deterministic: the same cordon maps the tenant to the same fallback.
  EXPECT_EQ(router.primary(tenant, admitting), fallback);
  // Cordoning the third shard (neither home nor fallback) must not move
  // the tenant off its home.
  std::vector<bool> other(3, true);
  other[3 - home - fallback] = false;
  EXPECT_EQ(router.primary(tenant, other), home);
  // Nobody admitting: no shard.
  EXPECT_EQ(router.primary(tenant, {false, false, false}), kNoShard);
}

TEST(ClusterRouter, PlanIsPrimaryThenCostOrderedSpillCandidates) {
  const std::vector<std::pair<std::string, double>> shards = {
      {"shard0", 1.0}, {"shard1", 1.0}, {"shard2", 1.0}, {"shard3", 1.0}};
  ClusterRouter router(shards, 64, RoutePolicy::kMeasuredLatency);
  const std::string tenant = "tenant-7";
  const std::size_t home = router.primary(tenant);

  // Loads chosen so the cost ranking is 2 < 0 < 1 < 3 (cost = (depth+1)*t):
  // 0: 3*2ms=6ms, 1: 1*8ms=8ms, 2: 1*1ms=1ms, 3: 10*4ms=40ms.
  const std::vector<BackendLoad> loads = {
      shard_load(2, 2e-3), shard_load(0, 8e-3), shard_load(0, 1e-3),
      shard_load(9, 4e-3)};
  std::vector<std::size_t> expected = {2, 0, 1, 3};
  expected.erase(std::find(expected.begin(), expected.end(), home));
  expected.insert(expected.begin(), home);

  EXPECT_EQ(router.plan(tenant, loads, std::vector<bool>(4, true)), expected);

  // Cordoned shards drop out of the plan entirely (home or spill).
  std::vector<bool> admitting(4, true);
  admitting[expected[1]] = false;
  std::vector<std::size_t> pruned = expected;
  pruned.erase(pruned.begin() + 1);
  EXPECT_EQ(router.plan(tenant, loads, admitting), pruned);

  EXPECT_TRUE(
      router.plan(tenant, loads, std::vector<bool>(4, false)).empty());
}

// ---- EngineCluster: spill-then-shed -----------------------------------

TEST(EngineCluster, ServesThroughTheHomeShardAndMatchesDirectForward) {
  EngineCluster cluster(tiny_shards(3));
  util::Rng rng(11);
  core::Tensor image = random_image(rng);
  core::Tensor reference_input = image;

  const std::string tenant = "tenant-parity";
  std::size_t shard = kNoShard;
  InferenceResult result =
      cluster.submit(std::move(image), for_tenant(tenant), &shard).get();
  EXPECT_EQ(shard, cluster.primary_shard(tenant));

  // Cluster placement must not perturb the math: same logits as a direct
  // forward of the same snapshot.
  models::Network net(models::make_spec(Arch::kROdeNet3, 14, tiny_width()));
  util::Rng ref_rng(1);
  net.init(ref_rng);
  net.set_training(false);
  core::Tensor batch({1, 3, 16, 16});
  std::copy_n(reference_input.data(), reference_input.numel(), batch.data());
  core::Tensor reference = net.forward(batch);
  ASSERT_EQ(result.logits.numel(), 5u);
  for (int c = 0; c < 5; ++c) {
    EXPECT_FLOAT_EQ(result.logits.at1(c), reference.at2(0, c)) << c;
  }

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.spilled, 0u);
  EXPECT_EQ(stats.shards[shard].placed, 1u);
}

TEST(EngineCluster, SpillsToSiblingWhenHomeShardIsFullThenSheds) {
  // Two throttled shards (100 ms per singleton batch), queue depth 1:
  // a burst from ONE tenant overflows its home shard onto the sibling,
  // and once both are full the cluster sheds with QueueFull.
  EngineCluster cluster(tiny_shards(2, std::chrono::milliseconds(100),
                                    /*max_queue_depth=*/1,
                                    /*max_batch=*/1));
  util::Rng rng(22);
  const std::string tenant = "tenant-burst";

  std::vector<std::future<InferenceResult>> futures;
  std::vector<std::size_t> placed_on;
  for (int i = 0; i < 8; ++i) {
    std::size_t shard = kNoShard;
    futures.push_back(
        cluster.submit(random_image(rng), for_tenant(tenant), &shard));
    placed_on.push_back(shard);
  }

  int ok = 0;
  int shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const QueueFull&) {
      ++shed;
    }
  }
  const ClusterStats stats = cluster.stats();
  // One tenant's burst crossed shards: the home shard filled (1 in
  // flight + 1 queued), the spill took more, and the rest shed.
  EXPECT_GT(stats.spilled, 0u);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(static_cast<std::uint64_t>(shed), stats.shed);
  EXPECT_EQ(ok + shed, 8);
  // Requests landed on BOTH shards even though one tenant owns the hash.
  std::set<std::size_t> used(placed_on.begin(), placed_on.end());
  used.erase(kNoShard);
  EXPECT_EQ(used.size(), 2u);
}

TEST(EngineCluster, SpillDisabledShedsAtTheHomeShard) {
  ClusterConfig cfg;
  cfg.spill = false;
  EngineCluster cluster(tiny_shards(2, std::chrono::milliseconds(100),
                                    /*max_queue_depth=*/1, /*max_batch=*/1),
                        cfg);
  util::Rng rng(33);
  const std::string tenant = "tenant-burst";
  std::vector<std::future<InferenceResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(cluster.submit(random_image(rng), for_tenant(tenant)));
  }
  int shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const QueueFull&) {
      ++shed;
    }
  }
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.spilled, 0u);  // never leaves the home shard
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(shed), stats.shed);
  // The sibling shard saw nothing.
  const std::size_t home = cluster.primary_shard(tenant);
  EXPECT_EQ(stats.shards[1 - home].placed, 0u);
  EXPECT_EQ(stats.shards[1 - home].spilled_in, 0u);
}

TEST(EngineCluster, CordonedShardReceivesNothingAndFullCordonRejects) {
  EngineCluster cluster(tiny_shards(2));
  util::Rng rng(44);
  const std::string tenant = "tenant-x";
  const std::size_t home = cluster.primary_shard(tenant);

  // Cordon the home shard: traffic fails over to the sibling.
  cluster.set_admitting(home, false);
  EXPECT_FALSE(cluster.admitting(home));
  std::size_t shard = kNoShard;
  cluster.submit(random_image(rng), for_tenant(tenant), &shard).get();
  EXPECT_EQ(shard, 1 - home);

  // Cordon everything: submit fails fast with QueueFull, shard kNoShard.
  cluster.set_admitting(1 - home, false);
  shard = 0;
  auto future = cluster.submit(random_image(rng), for_tenant(tenant), &shard);
  EXPECT_EQ(shard, kNoShard);
  EXPECT_THROW(future.get(), QueueFull);
  EXPECT_EQ(cluster.stats().no_admitting, 1u);

  // Re-admit and the tenant lands back on its home shard.
  cluster.set_admitting(home, true);
  cluster.submit(random_image(rng), for_tenant(tenant), &shard).get();
  EXPECT_EQ(shard, home);
}

// ---- wire protocol -----------------------------------------------------

TEST(ClusterProtocol, RequestRoundTripsThroughEncodeDecode) {
  WireRequest req;
  req.id = 0x0123456789ABCDEFull;
  req.priority = Priority::kHigh;
  req.evictable = false;
  req.deadline_us = 250000;
  req.tenant = "tenant-\xC3\xA9";  // arbitrary bytes survive
  req.model = "resnet-ode/tiny";
  req.model_version = 0xFEDCBA9876543210ull;
  req.channels = 3;
  req.height = 2;
  req.width = 4;
  req.pixels.resize(24);
  for (std::size_t i = 0; i < req.pixels.size(); ++i) {
    req.pixels[i] = static_cast<float>(i) - 11.5f;
  }

  const std::vector<std::uint8_t> frame = cluster::encode_request(req);
  ASSERT_GE(frame.size(), cluster::kFrameHeaderBytes);
  const std::uint32_t payload = cluster::decode_frame_length(frame.data());
  ASSERT_EQ(payload + cluster::kFrameHeaderBytes, frame.size());

  const WireRequest back = cluster::decode_request(
      frame.data() + cluster::kFrameHeaderBytes, payload);
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.evictable, req.evictable);
  EXPECT_EQ(back.deadline_us, req.deadline_us);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.model_version, req.model_version);
  EXPECT_EQ(back.channels, req.channels);
  EXPECT_EQ(back.height, req.height);
  EXPECT_EQ(back.width, req.width);
  EXPECT_EQ(back.pixels, req.pixels);
}

TEST(ClusterProtocol, ResponseRoundTripsThroughEncodeDecode) {
  WireResponse res;
  res.id = 77;
  res.status = cluster::ResponseStatus::kShed;
  res.shard = 2;
  res.predicted = -1;
  res.latency_ms = 12.5f;
  res.model_version = 41;
  res.logits = {0.5f, -1.25f, 3.0f};
  res.message = "cluster: all 4 candidate shard(s) full";

  const std::vector<std::uint8_t> frame = cluster::encode_response(res);
  const std::uint32_t payload = cluster::decode_frame_length(frame.data());
  const WireResponse back = cluster::decode_response(
      frame.data() + cluster::kFrameHeaderBytes, payload);
  EXPECT_EQ(back.id, res.id);
  EXPECT_EQ(back.status, res.status);
  EXPECT_EQ(back.shard, res.shard);
  EXPECT_EQ(back.predicted, res.predicted);
  EXPECT_FLOAT_EQ(back.latency_ms, res.latency_ms);
  EXPECT_EQ(back.model_version, 41u);
  EXPECT_EQ(back.logits, res.logits);
  EXPECT_EQ(back.message, res.message);
}

TEST(ClusterProtocol, RetiredV1FramesFailTheMagicCheck) {
  // The first wire layout ("QNDO" requests, "RNDO" responses) is retired:
  // its frames are bad magics, not an alternative dialect.
  const std::vector<std::uint8_t> request = legacy_v1_request_frame(9);
  EXPECT_THROW(cluster::decode_request(request.data() +
                                           cluster::kFrameHeaderBytes,
                                       request.size() -
                                           cluster::kFrameHeaderBytes),
               odenet::Error);
  // A v1 response: "RNDO", id, status, shard, predicted, latency,
  // logits_n = 0, message_len = 0.
  std::vector<std::uint8_t> response(4 + 8 + 1 + 1 + 4 + 4 + 2 + 2, 0);
  response[0] = 'R';
  response[1] = 'N';
  response[2] = 'D';
  response[3] = 'O';
  EXPECT_THROW(cluster::decode_response(response.data(), response.size()),
               odenet::Error);
}

TEST(ClusterProtocol, TruncatedAndMalformedFramesThrowReadably) {
  // Every proper prefix must throw (never read out of bounds, never
  // return garbage) — the truncation fuzz.
  WireRequest req;
  req.tenant = "t";
  req.model = "m";
  req.channels = 1;
  req.height = 2;
  req.width = 2;
  req.pixels = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<std::uint8_t> frame = cluster::encode_request(req);
  const std::uint8_t* payload = frame.data() + cluster::kFrameHeaderBytes;
  const std::size_t size = frame.size() - cluster::kFrameHeaderBytes;

  for (std::size_t cut = 0; cut < size; ++cut) {
    EXPECT_THROW(cluster::decode_request(payload, cut), odenet::Error)
        << "prefix of " << cut << " bytes";
  }
  // Trailing junk is rejected too (framing mismatch, not ignorable).
  std::vector<std::uint8_t> padded(payload, payload + size);
  padded.push_back(0);
  EXPECT_THROW(cluster::decode_request(padded.data(), padded.size()),
               odenet::Error);
  // A response magic in a request slot is a protocol error.
  std::vector<std::uint8_t> wrong(payload, payload + size);
  wrong[0] = 0x52;  // 'R'
  EXPECT_THROW(cluster::decode_request(wrong.data(), wrong.size()),
               odenet::Error);
  // Declaring more pixels than the payload carries must throw, not
  // read past the buffer: bump the channel count without adding bytes.
  std::vector<std::uint8_t> lying(payload, payload + size);
  // channels low byte: magic(4) + id(8) + priority(1) + flags(1) +
  // deadline(4) + model_version(8) + tenant_len(2) + model_len(2) = 30.
  lying[30] = 9;
  EXPECT_THROW(cluster::decode_request(lying.data(), lying.size()),
               odenet::Error);

  // Response truncation fuzz.
  WireResponse res;
  res.logits = {1.0f, 2.0f};
  res.message = "x";
  const std::vector<std::uint8_t> rframe = cluster::encode_response(res);
  const std::uint8_t* rpayload = rframe.data() + cluster::kFrameHeaderBytes;
  const std::size_t rsize = rframe.size() - cluster::kFrameHeaderBytes;
  for (std::size_t cut = 0; cut < rsize; ++cut) {
    EXPECT_THROW(cluster::decode_response(rpayload, cut), odenet::Error)
        << "response prefix of " << cut << " bytes";
  }
}

// ---- socket front-end --------------------------------------------------

TEST(SocketFrontend, ServesConcurrentPipelinedClientsWithIdCorrelation) {
  EngineCluster cluster(tiny_shards(2));
  SocketFrontend frontend(cluster, FrontendConfig{});
  frontend.start();
  ASSERT_GT(frontend.port(), 0);

  constexpr int kClients = 3;
  constexpr int kPerClient = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FrontendClient client("127.0.0.1", frontend.port());
      util::Rng rng(100 + c);
      // Pipeline all requests, then collect all responses.
      std::set<std::uint64_t> outstanding;
      for (int i = 0; i < kPerClient; ++i) {
        WireRequest req;
        req.id = static_cast<std::uint64_t>(c) * 1000 + i;
        req.tenant = "tenant-" + std::to_string(c) + "-" + std::to_string(i);
        req.channels = 3;
        req.height = 16;
        req.width = 16;
        const core::Tensor image = random_image(rng);
        req.pixels.assign(image.data(), image.data() + image.numel());
        client.send(req);
        outstanding.insert(req.id);
      }
      for (int i = 0; i < kPerClient; ++i) {
        const WireResponse res = client.recv();
        // Correlation: every response id matches one outstanding request.
        ASSERT_EQ(outstanding.erase(res.id), 1u) << res.id;
        ASSERT_EQ(res.status, cluster::ResponseStatus::kOk) << res.message;
        // Responses name the snapshot version that served.
        EXPECT_GT(res.model_version, 0u);
        EXPECT_EQ(res.logits.size(), 5u);
        EXPECT_GE(res.predicted, 0);
        EXPECT_LT(res.predicted, 5);
        EXPECT_LT(res.shard, 2);
        ++ok;
      }
      EXPECT_TRUE(outstanding.empty());
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);

  // The last client can read its final frame a beat before the writer
  // thread bumps the counter — poll the monotone counters briefly.
  const auto expected = static_cast<std::uint64_t>(kClients * kPerClient);
  for (int i = 0; i < 200 && frontend.counters().responses < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const cluster::FrontendCounters counters = frontend.counters();
  EXPECT_EQ(counters.connections, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(counters.requests, expected);
  EXPECT_EQ(counters.responses, expected);
  EXPECT_EQ(counters.protocol_errors, 0u);

  frontend.stop();
  cluster.shutdown();
}

TEST(SocketFrontend, TruncatedFrameGetsErrorResponseAndDropsConnection) {
  EngineCluster cluster(tiny_shards(1));
  SocketFrontend frontend(cluster, FrontendConfig{});
  frontend.start();

  FrontendClient client("127.0.0.1", frontend.port());
  // A frame whose prefix promises more payload than we send, then EOF:
  // the server must answer with kError and close (framing is lost).
  const std::uint8_t bogus[8] = {32, 0, 0, 0, 'j', 'u', 'n', 'k'};
  client.send_raw(bogus, sizeof(bogus));
  client.close();

  // The error is visible server-side even though the client left.
  for (int i = 0; i < 200 && frontend.counters().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(frontend.counters().protocol_errors, 1u);

  // A second, well-formed client is unaffected by the first one's abuse.
  FrontendClient good("127.0.0.1", frontend.port());
  WireRequest req;
  req.id = 5;
  req.tenant = "t";
  req.channels = 3;
  req.height = 16;
  req.width = 16;
  util::Rng rng(7);
  const core::Tensor image = random_image(rng);
  req.pixels.assign(image.data(), image.data() + image.numel());
  good.send(req);
  const WireResponse res = good.recv();
  EXPECT_EQ(res.id, 5u);
  EXPECT_EQ(res.status, cluster::ResponseStatus::kOk) << res.message;

  frontend.stop();
  cluster.shutdown();
}

TEST(SocketFrontend, RetiredV1FrameGetsBadMagicErrorReply) {
  // A well-framed request in the retired v1 layout: the server answers
  // with the bad-magic error reply and counts a protocol error, exactly
  // as for any other unknown magic.
  EngineCluster cluster(tiny_shards(1));
  SocketFrontend frontend(cluster, FrontendConfig{});
  frontend.start();

  FrontendClient client("127.0.0.1", frontend.port());
  const std::vector<std::uint8_t> frame = legacy_v1_request_frame(3);
  client.send_raw(frame.data(), frame.size());
  const WireResponse res = client.recv();
  EXPECT_EQ(res.status, cluster::ResponseStatus::kError);
  EXPECT_NE(res.message.find("bad request magic"), std::string::npos)
      << res.message;
  EXPECT_EQ(res.model_version, 0u);

  // The counter is bumped before the reply is written.
  const cluster::FrontendCounters counters = frontend.counters();
  EXPECT_EQ(counters.protocol_errors, 1u);
  EXPECT_EQ(counters.requests, 0u);

  frontend.stop();
  cluster.shutdown();
}

TEST(SocketFrontend, ShedRequestSurfacesAsShedStatusNotHang) {
  // One throttled, depth-1 shard: a pipelined burst from one client must
  // come back as a mix of kOk and kShed — every request gets exactly one
  // response, nothing hangs.
  EngineCluster cluster(tiny_shards(1, std::chrono::milliseconds(100),
                                    /*max_queue_depth=*/1, /*max_batch=*/1));
  SocketFrontend frontend(cluster, FrontendConfig{});
  frontend.start();

  FrontendClient client("127.0.0.1", frontend.port());
  util::Rng rng(9);
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    WireRequest req;
    req.id = static_cast<std::uint64_t>(i);
    req.tenant = "tenant-burst";
    req.channels = 3;
    req.height = 16;
    req.width = 16;
    const core::Tensor image = random_image(rng);
    req.pixels.assign(image.data(), image.data() + image.numel());
    client.send(req);
  }
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const WireResponse res = client.recv();
    if (res.status == cluster::ResponseStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(res.status, cluster::ResponseStatus::kShed) << res.message;
      EXPECT_EQ(res.shard, cluster::kNoShardByte);
      EXPECT_FALSE(res.message.empty());
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(ok + shed, kBurst);

  frontend.stop();
  cluster.shutdown();
}
