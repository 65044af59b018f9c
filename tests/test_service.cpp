// The meshing service: cache-key canonicalization over core/options_hash
// (non-mesh knobs must not move the key, every mesh-defining knob must, and
// the key is stable across process restarts), the CRC-framed wire codec's
// round-trip and rejection paths, the LRU result cache's byte-budget
// accounting, and the MeshServer's admission/dispatch/shutdown contract --
// including deterministic overload, priority-then-FIFO order, bit-identical
// cached responses, and a concurrent storm with zero dropped or duplicated
// responses.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/crc32.hpp"  // aerolint: allow(public-api)
#include "core/options.hpp"
#include "core/options_hash.hpp"  // aerolint: allow(public-api)
#include "obs/metrics.hpp"  // aerolint: allow(public-api)
#include "service/cache.hpp"  // aerolint: allow(public-api)
#include "service/server.hpp"
#include "service/wire.hpp"

namespace aero {
namespace {

/// Small, fast, valid base configuration every test derives from.
Options base_options() {
  return Options()
      .geometry(make_naca0012(60))
      .set_max_layers(8)
      .set_farfield_chords(6.0);
}

// ---------------------------------------------------------------------------
// Cache-key canonicalization (core/options_hash).

TEST(ServiceCacheKey, NonMeshKnobsDoNotChangeKey) {
  const std::uint64_t base = mesh_config_hash(base_options());
  const std::atomic<bool> stop{false};

  // Every runtime/fault/observability/server-side knob, flipped
  // away from its default: none of them changes the triangles, so none may
  // change the key (this is what lets a ranks=4 run answer a sequential
  // request from the cache).
  const Options variants[] = {
      base_options().set_ranks(4),
      base_options().set_threads_per_rank(4),
      base_options().set_ack_timeout_ms(77),
      base_options().set_heartbeat_timeout_ms(333),
      base_options().set_watchdog_timeout_s(9),
      base_options().set_budget_wall_ms(1234),
      base_options().set_budget_rss_mb(512),
      base_options().set_checkpoint_path("ckpt.aerojnl"),
      base_options().set_resume_path("resume.aerojnl"),
      base_options().set_stop_flag(&stop),
      base_options().set_fault_rate(0.05),
      base_options().set_fault_seed(42),
      base_options().set_trace(true),
      base_options().set_trace_events(128),
      base_options().set_phase_hook([](const char*, const PhaseArtifacts&) {}),
  };
  for (const Options& v : variants) {
    EXPECT_EQ(mesh_config_hash(v), base);
  }
}

TEST(ServiceCacheKey, EveryMeshDefiningKnobChangesKey) {
  const std::uint64_t base = mesh_config_hash(base_options());

  const Options variants[] = {
      base_options().geometry(make_naca0012(61)),  // geometry content
      base_options().growth(GrowthKind::kPolynomial),
      base_options().growth(GrowthKind::kAdaptive),
      base_options().set_first_height(3e-4),
      base_options().set_growth_ratio(1.25),
      base_options().set_max_layers(9),
      base_options().set_farfield_chords(7.0),
      base_options().set_nearbody_margin(1.75),
      base_options().set_grade(0.33),
      base_options().set_surface_length_factor(1.8),
      base_options().set_bl_min_points(7),
      base_options().set_bl_max_level(11),
      base_options().set_inviscid_target_triangles(5000.0),
      base_options().set_inviscid_max_level(13),
  };
  std::vector<std::uint64_t> keys{base};
  for (const Options& v : variants) {
    const std::uint64_t k = mesh_config_hash(v);
    EXPECT_NE(k, base);
    // And pairwise distinct, so two different knobs cannot alias.
    for (const std::uint64_t seen : keys) EXPECT_NE(k, seen);
    keys.push_back(k);
  }
}

TEST(ServiceCacheKey, GeometryContentIsHashedNotJustCounts) {
  AirfoilConfig a = make_naca0012(60);
  AirfoilConfig b = a;
  b.elements[0].surface[10].x += 1e-9;  // same counts, one coordinate moved
  EXPECT_NE(mesh_config_hash(base_options().geometry(a)),
            mesh_config_hash(base_options().geometry(b)));

  AirfoilConfig c = a;
  c.chord *= 2.0;
  EXPECT_NE(mesh_config_hash(base_options().geometry(a)),
            mesh_config_hash(base_options().geometry(c)));
}

TEST(ServiceCacheKey, StableAcrossProcessRestarts) {
  // Pinned golden value: FNV-1a over the canonical field order is pure
  // arithmetic on the input bytes, so the key a daemon computed yesterday
  // must match the key a fresh process computes today -- that is what makes
  // the result cache (and any future on-disk version of it) durable. If
  // this test fails, a field was added/reordered without bumping the
  // service wire version and invalidating caches deliberately.
  const std::uint64_t key = mesh_config_hash(
      Options().geometry(make_naca0012(120)).set_max_layers(20).set_farfield_chords(
          10.0));
  EXPECT_EQ(key, 0x16d9049cde11ef60ull);
}

// ---------------------------------------------------------------------------
// Wire codec.

MeshRequest sample_request() {
  MeshRequest req;
  req.id = 0xdeadbeef12345678ull;
  req.priority = -3;
  req.options = base_options()
                    .growth(GrowthKind::kAdaptive)
                    .set_first_height(2.5e-4)
                    .set_ranks(3)
                    .set_fault_rate(0.01)
                    .set_fault_seed(99);
  return req;
}

TEST(ServiceWire, RequestRoundTrip) {
  const MeshRequest req = sample_request();
  const std::vector<std::uint8_t> bytes = encode_request(req);
  MeshRequest out;
  ASSERT_TRUE(decode_request(bytes, &out));
  EXPECT_EQ(out.id, req.id);
  EXPECT_EQ(out.priority, req.priority);
  EXPECT_EQ(out.options.growth_kind, req.options.growth_kind);
  EXPECT_EQ(out.options.first_height, req.options.first_height);
  EXPECT_EQ(out.options.ranks, req.options.ranks);
  EXPECT_EQ(out.options.fault_rate, req.options.fault_rate);
  EXPECT_EQ(out.options.fault_seed, req.options.fault_seed);
  ASSERT_EQ(out.options.airfoil.elements.size(),
            req.options.airfoil.elements.size());
  EXPECT_EQ(out.options.airfoil.elements[0].surface,
            req.options.airfoil.elements[0].surface);
  EXPECT_EQ(out.options.airfoil.chord, req.options.airfoil.chord);
  // The decoded options hash to the same cache key: the wire carries every
  // mesh-defining field faithfully.
  EXPECT_EQ(mesh_config_hash(out.options), mesh_config_hash(req.options));
}

TEST(ServiceWire, RequestScrubsServerSideFields) {
  MeshRequest req = sample_request();
  std::atomic<bool> stop{false};
  req.options.set_checkpoint_path("evil.aerojnl")
      .set_resume_path("evil2.aerojnl")
      .set_stop_flag(&stop)
      .set_budget_wall_ms(1)
      .set_trace(true)
      .set_phase_hook([](const char*, const PhaseArtifacts&) {});
  MeshRequest out;
  ASSERT_TRUE(decode_request(encode_request(req), &out));
  EXPECT_TRUE(out.options.checkpoint_path.empty());
  EXPECT_TRUE(out.options.resume_path.empty());
  EXPECT_EQ(out.options.stop_flag, nullptr);
  EXPECT_EQ(out.options.budget_wall_ms, 0);
  EXPECT_FALSE(out.options.trace);
  EXPECT_FALSE(static_cast<bool>(out.options.phase_hook));
}

TEST(ServiceWire, CorruptionAndTruncationRejected) {
  const std::vector<std::uint8_t> bytes = encode_request(sample_request());
  MeshRequest out;

  // Flip one byte anywhere: CRC trailer catches it.
  for (const std::size_t pos :
       {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(decode_request(bad, &out)) << "flipped byte " << pos;
  }
  // Truncation at any boundary.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(decode_request(bytes.data(), keep, &out));
  }
  // Trailing garbage.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(decode_request(padded, &out));
}

TEST(ServiceWire, VersionOneRequestIsMalformed) {
  // Version 2 dropped the transport knobs from the request layout, so a
  // version-1 request -- even one whose CRC trailer is intact -- must be
  // refused rather than misparsed. Re-stamp a current request as version 1
  // and re-seal its trailer.
  std::vector<std::uint8_t> bytes = encode_request(sample_request());
  const auto reseal = [&bytes](std::uint32_t version) {
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  };
  MeshRequest out;
  reseal(1);
  EXPECT_FALSE(decode_request(bytes, &out));
  reseal(2);  // control: the same bytes at the current version decode
  EXPECT_TRUE(decode_request(bytes, &out));
}

TEST(ServiceWire, ResponseRoundTrip) {
  MeshResponse resp;
  resp.id = 7;
  resp.status = ServiceStatus::kPartial;
  resp.cache_hit = true;
  resp.cache_key = 0x123456789abcdef0ull;
  resp.triangles = 1000;
  resp.vertices = 600;
  resp.mesh_wall_ms = 12.5;
  resp.queue_ms = 0.25;
  resp.error = "three ranks never reported";
  resp.mesh_blob = {1, 2, 3, 4, 5};

  MeshResponse out;
  ASSERT_TRUE(decode_response(encode_response(resp), &out));
  EXPECT_EQ(out.id, resp.id);
  EXPECT_EQ(out.status, resp.status);
  EXPECT_EQ(out.cache_hit, resp.cache_hit);
  EXPECT_EQ(out.cache_key, resp.cache_key);
  EXPECT_EQ(out.triangles, resp.triangles);
  EXPECT_EQ(out.vertices, resp.vertices);
  EXPECT_EQ(out.mesh_wall_ms, resp.mesh_wall_ms);
  EXPECT_EQ(out.queue_ms, resp.queue_ms);
  EXPECT_EQ(out.error, resp.error);
  EXPECT_EQ(out.mesh_blob, resp.mesh_blob);

  std::vector<std::uint8_t> bad = encode_response(resp);
  bad[bad.size() / 2] ^= 1;
  EXPECT_FALSE(decode_response(bad, &out));
}

// ---------------------------------------------------------------------------
// Result cache.

ResultCache::Entry entry_of(std::size_t bytes, std::uint64_t tris) {
  ResultCache::Entry e;
  e.mesh_blob.assign(bytes, static_cast<std::uint8_t>(tris));
  e.triangles = tris;
  e.vertices = tris / 2;
  return e;
}

TEST(ResultCache, LruEvictionUnderByteBudget) {
  ResultCache cache(250);  // fits two 100-byte entries, not three
  cache.insert(1, entry_of(100, 11));
  cache.insert(2, entry_of(100, 22));

  // Touch key 1 so key 2 is the LRU victim.
  ResultCache::Entry got;
  ASSERT_TRUE(cache.lookup(1, &got));
  EXPECT_EQ(got.triangles, 11u);

  cache.insert(3, entry_of(100, 33));
  EXPECT_FALSE(cache.lookup(2, &got));  // evicted
  EXPECT_TRUE(cache.lookup(1, &got));
  EXPECT_TRUE(cache.lookup(3, &got));

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 200u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.insertions, 3u);
}

TEST(ResultCache, OversizeAndZeroBudget) {
  ResultCache cache(100);
  cache.insert(1, entry_of(101, 1));  // bigger than the whole budget
  ResultCache::Entry got;
  EXPECT_FALSE(cache.lookup(1, &got));
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);

  ResultCache off(0);  // budget 0 = caching disabled
  off.insert(1, entry_of(1, 1));
  EXPECT_FALSE(off.lookup(1, &got));
  EXPECT_EQ(off.stats().entries, 0u);
}

TEST(ResultCache, RefreshKeepsByteAccountingHonest) {
  ResultCache cache(300);
  cache.insert(1, entry_of(100, 1));
  cache.insert(1, entry_of(150, 2));  // same key, new size
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 150u);
  ResultCache::Entry got;
  ASSERT_TRUE(cache.lookup(1, &got));
  EXPECT_EQ(got.triangles, 2u);
}

// ---------------------------------------------------------------------------
// MeshServer: admission, dispatch, cache, shutdown.

MeshRequest request_of(std::uint64_t id, int priority, std::size_t points,
                       int ranks = 0) {
  MeshRequest req;
  req.id = id;
  req.priority = priority;
  req.options = Options()
                    .geometry(make_naca0012(points))
                    .set_max_layers(6)
                    .set_farfield_chords(5.0)
                    .set_ranks(ranks);
  return req;
}

TEST(MeshServer, CacheHitIsBitIdenticalToFreshMesh) {
  ServerConfig config;
  config.workers = 1;
  MeshServer server(config);

  const MeshResponse fresh = server.submit_wait(request_of(1, 0, 50));
  ASSERT_EQ(fresh.status, ServiceStatus::kOk);
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_GT(fresh.triangles, 0u);
  ASSERT_FALSE(fresh.mesh_blob.empty());

  const MeshResponse hit = server.submit_wait(request_of(2, 0, 50));
  ASSERT_EQ(hit.status, ServiceStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.id, 2u);  // correlation id is the caller's, not the cache's
  EXPECT_EQ(hit.cache_key, fresh.cache_key);
  EXPECT_EQ(hit.mesh_blob, fresh.mesh_blob);  // bit-identical bytes

  std::uint64_t pts = 0, tris = 0;
  ASSERT_TRUE(mesh_blob_counts(hit.mesh_blob, &pts, &tris));
  EXPECT_EQ(pts, hit.vertices);
  EXPECT_EQ(tris, hit.triangles);
  EXPECT_EQ(server.stats().cache_hits, 1u);
  EXPECT_EQ(server.stats().completed, 1u);  // the hit never reached a worker
}

TEST(MeshServer, PooledRunSharesCacheWithSequential) {
  // ranks is not mesh-defining, so a sequential mesh answers a pooled
  // request (and vice versa) -- the meshes are bit-identical by the pool's
  // determinism contract.
  ServerConfig config;
  config.workers = 1;
  MeshServer server(config);
  const MeshResponse seq = server.submit_wait(request_of(1, 0, 50, 0));
  ASSERT_EQ(seq.status, ServiceStatus::kOk);
  const MeshResponse pooled = server.submit_wait(request_of(2, 0, 50, 2));
  ASSERT_EQ(pooled.status, ServiceStatus::kOk);
  EXPECT_TRUE(pooled.cache_hit);
  EXPECT_EQ(pooled.mesh_blob, seq.mesh_blob);
}

TEST(MeshServer, ThreadsPerRankIsServerOwnedAndNotMeshDefining) {
  // The daemon's thread budget is a capacity decision: whatever
  // threads_per_rank a tenant sends is overwritten by the server config,
  // and since the knob is not mesh-defining the blobs stay bit-identical
  // (and cache-shared) across every tenant/server combination.
  ServerConfig threaded;
  threaded.workers = 1;
  threaded.threads_per_rank = 2;
  MeshServer server(threaded);
  MeshRequest wild = request_of(1, 0, 50);
  wild.options.set_threads_per_rank(64);  // tenant asks for the moon
  const MeshResponse a = server.submit_wait(std::move(wild));
  ASSERT_EQ(a.status, ServiceStatus::kOk);
  EXPECT_FALSE(a.cache_hit);
  const MeshResponse b = server.submit_wait(request_of(2, 0, 50));
  ASSERT_EQ(b.status, ServiceStatus::kOk);
  EXPECT_TRUE(b.cache_hit);  // same key despite differing thread requests
  EXPECT_EQ(b.mesh_blob, a.mesh_blob);

  ServerConfig sequential;
  sequential.workers = 1;
  MeshServer plain(sequential);
  const MeshResponse c = plain.submit_wait(request_of(3, 0, 50));
  ASSERT_EQ(c.status, ServiceStatus::kOk);
  EXPECT_EQ(c.mesh_blob, a.mesh_blob);  // threads never change the mesh

  // In-flight thread pressure is mirrored into the gauge; idle -> 0.
  EXPECT_EQ(obs::MetricsRegistry::global()
                .gauge("service.threads_active")
                .value(),
            0.0);
}

TEST(MeshServer, InvalidOptionsRejectedWithoutQueueing) {
  MeshRequest bad_height = request_of(9, 0, 50);
  bad_height.options.set_first_height(-1.0);
  // A NaN coordinate is a typed admission rejection too, never a
  // worker-side kernel exception.
  MeshRequest nan_point = request_of(10, 0, 60);
  nan_point.options.airfoil.elements[0].surface[5].y =
      std::numeric_limits<double>::quiet_NaN();
  // So is a clockwise surface, which meshed the body inside out.
  MeshRequest clockwise = request_of(11, 0, 60);
  std::vector<Vec2>& loop = clockwise.options.airfoil.elements[0].surface;
  std::reverse(loop.begin(), loop.end());
  // And a NaN chord, which crosses the wire and never let the mesher finish.
  MeshRequest nan_chord = request_of(12, 0, 60);
  nan_chord.options.airfoil.chord = std::numeric_limits<double>::quiet_NaN();
  for (MeshRequest req : {bad_height, nan_point, clockwise, nan_chord}) {
    MeshServer server(ServerConfig{});
    const MeshResponse resp = server.submit_wait(std::move(req));
    EXPECT_EQ(resp.status, ServiceStatus::kInvalidOptions);
    EXPECT_FALSE(resp.error.empty());
    EXPECT_EQ(server.stats().invalid, 1u);
    EXPECT_EQ(server.stats().completed, 0u);  // never reached a worker
  }
}

/// Holds the single worker inside before_mesh until released, making queue
/// occupancy (and thus overload/priority behavior) deterministic.
struct WorkerGate {
  std::mutex m;
  std::condition_variable cv;
  bool released = false;
  bool holding = false;
  std::vector<std::uint64_t> dispatch_order;

  void hook(const MeshRequest& req) {
    std::unique_lock<std::mutex> lock(m);
    dispatch_order.push_back(req.id);
    if (dispatch_order.size() == 1) {  // only the first request is held
      holding = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
  }
  void wait_until_holding() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return holding; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  }
};

TEST(MeshServer, OverloadedWhenQueueFullAndPriorityOrder) {
  WorkerGate gate;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.before_mesh = [&gate](const MeshRequest& r) { gate.hook(r); };
  MeshServer server(config);

  // r1 is dequeued and held: the worker is busy, the queue is empty.
  auto f1 = server.submit(request_of(1, 0, 50));
  gate.wait_until_holding();

  // r2 (low priority) and r3 (high priority) fill the queue; r4 must bounce.
  auto f2 = server.submit(request_of(2, 0, 52));
  auto f3 = server.submit(request_of(3, 5, 54));
  const MeshResponse r4 = server.submit_wait(request_of(4, 99, 56));
  EXPECT_EQ(r4.status, ServiceStatus::kOverloaded);
  EXPECT_EQ(r4.queue_ms, 0.0);  // rejected at admission, never queued

  gate.release();
  EXPECT_EQ(f1.get().status, ServiceStatus::kOk);
  EXPECT_EQ(f2.get().status, ServiceStatus::kOk);
  EXPECT_EQ(f3.get().status, ServiceStatus::kOk);

  // Dispatch order: r1 first (it was already running), then r3 beats r2 on
  // priority despite arriving later.
  ASSERT_EQ(gate.dispatch_order.size(), 3u);
  EXPECT_EQ(gate.dispatch_order[0], 1u);
  EXPECT_EQ(gate.dispatch_order[1], 3u);
  EXPECT_EQ(gate.dispatch_order[2], 2u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.max_queue_depth, 2u);
}

TEST(MeshServer, StopAnswersQueuedRequestsWithShutdown) {
  WorkerGate gate;
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.before_mesh = [&gate](const MeshRequest& r) { gate.hook(r); };
  MeshServer server(config);

  auto f1 = server.submit(request_of(1, 0, 50));
  gate.wait_until_holding();
  auto f2 = server.submit(request_of(2, 0, 52));

  // stop() drains r2 with kShutdown immediately, then waits for r1 (held by
  // the gate until we release it) to finish meshing.
  std::thread stopper([&server] { server.stop(); });
  EXPECT_EQ(f2.get().status, ServiceStatus::kShutdown);
  gate.release();
  stopper.join();
  EXPECT_EQ(f1.get().status, ServiceStatus::kOk);

  // After stop, new submissions are answered kShutdown, not queued.
  const MeshResponse late = server.submit_wait(request_of(3, 0, 54));
  EXPECT_EQ(late.status, ServiceStatus::kShutdown);
}

TEST(MeshServer, ConcurrentStormNoDroppedOrDuplicatedResponses) {
  ServerConfig config;
  config.workers = 4;
  config.queue_capacity = 64;  // large enough that nothing bounces
  MeshServer server(config);

  // 24 requests from 8 tenant threads over 3 distinct configurations, so
  // the cache, the queue, and the workers all see real concurrency.
  constexpr int kTenants = 8;
  constexpr int kPerTenant = 3;
  std::vector<std::future<MeshResponse>> futures(kTenants * kPerTenant);
  std::vector<std::thread> tenants;
  tenants.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      for (int j = 0; j < kPerTenant; ++j) {
        const int i = t * kPerTenant + j;
        const std::size_t points = 48 + 2 * static_cast<std::size_t>(j);
        futures[static_cast<std::size_t>(i)] =
            server.submit(request_of(static_cast<std::uint64_t>(i + 1), j,
                                     points));
      }
    });
  }
  for (std::thread& t : tenants) t.join();

  std::vector<bool> seen(kTenants * kPerTenant, false);
  std::vector<std::vector<std::uint8_t>> blob_by_config(kPerTenant);
  for (auto& f : futures) {
    const MeshResponse resp = f.get();  // a dropped response would hang here
    ASSERT_EQ(resp.status, ServiceStatus::kOk);
    ASSERT_GE(resp.id, 1u);
    ASSERT_LE(resp.id, static_cast<std::uint64_t>(kTenants * kPerTenant));
    EXPECT_FALSE(seen[resp.id - 1]) << "duplicated response id " << resp.id;
    seen[resp.id - 1] = true;
    // Same configuration => bit-identical mesh bytes, hit or miss.
    const std::size_t cfg = (resp.id - 1) % kPerTenant;
    if (blob_by_config[cfg].empty()) {
      blob_by_config[cfg] = resp.mesh_blob;
    } else {
      EXPECT_EQ(resp.mesh_blob, blob_by_config[cfg]);
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(kTenants * kPerTenant));
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.ok + stats.cache_hits,
            static_cast<std::size_t>(kTenants * kPerTenant));
}

TEST(MeshServer, FaultInjectedPooledRequestStillOkAndCached) {
  // A 4-rank run under the PR 1 chaos fabric: the fault-tolerance machinery
  // recovers (retransmits/unit retries), the service sees a clean kOk, and
  // the mesh matches the sequential bytes bit-for-bit.
  ServerConfig config;
  config.workers = 1;
  MeshServer server(config);
  const MeshResponse seq = server.submit_wait(request_of(1, 0, 50, 0));
  ASSERT_EQ(seq.status, ServiceStatus::kOk);

  MeshRequest req = request_of(2, 0, 52, 4);
  req.options.set_fault_rate(0.02).set_fault_seed(7);
  const MeshResponse pooled = server.submit_wait(std::move(req));
  ASSERT_EQ(pooled.status, ServiceStatus::kOk);
  EXPECT_FALSE(pooled.cache_hit);  // different surface points: a real mesh

  MeshRequest again = request_of(3, 0, 52, 0);
  const MeshResponse hit = server.submit_wait(std::move(again));
  ASSERT_EQ(hit.status, ServiceStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.mesh_blob, pooled.mesh_blob);

  // Sustained chaos: 8 concurrent 4-rank requests with distinct fault seeds
  // on 2 workers, each answered once, by a worker, with kOk.
  constexpr std::size_t kChaos = 8;
  ServerConfig two;
  two.workers = 2;
  MeshServer chaos(two);
  std::vector<std::future<MeshResponse>> futures;
  for (std::size_t i = 0; i < kChaos; ++i) {
    MeshRequest r =
        request_of(100 + i, static_cast<int>(i % 2), 80 + 2 * i, 4);
    r.options.set_max_layers(12).set_farfield_chords(8.0);
    r.options.set_fault_rate(0.02).set_fault_seed(i * 7919 + 1);
    futures.push_back(chaos.submit(std::move(r)));
  }
  for (std::size_t i = 0; i < kChaos; ++i) {
    const MeshResponse resp = futures[i].get();  // a dropped one would hang
    EXPECT_EQ(resp.id, 100 + i);
    EXPECT_EQ(resp.status, ServiceStatus::kOk) << "id " << resp.id;
    EXPECT_GT(resp.triangles, 0u);
  }
  EXPECT_EQ(chaos.stats().completed, kChaos);  // none duplicated, none a hit
}

}  // namespace
}  // namespace aero
