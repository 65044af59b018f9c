// Zero-copy transport: the control-frame codec (with exhaustive and
// randomized corruption fuzzing), PayloadWindow ownership-handoff semantics,
// and the pool-level guarantee that every payload moves through the window
// while the mailboxes carry only control frames.

#include <gtest/gtest.h>

#include <random>

#include "check/audit.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "runtime/parallel_driver.hpp"
#include "runtime/pool.hpp"  // aerolint: allow(public-api)
#include "runtime/rma.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

// ---------------------------------------------------------------------------
// Transfer frames.

TEST(RmaFrames, WindowFrameRoundTrip) {
  const std::vector<std::uint8_t> f = make_window_frame(
      0x1122334455667788ull, 3, 41, 987654321ull, 0xfeedfacecafebeefull);
  EXPECT_EQ(f.size(), kWindowFrameSize);
  const auto parsed = parse_frame(f);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->nonce, 0x1122334455667788ull);
  EXPECT_EQ(parsed->src, 3);
  EXPECT_EQ(parsed->slot, 41u);
  EXPECT_EQ(parsed->length, 987654321ull);
  EXPECT_EQ(parsed->digest, 0xfeedfacecafebeefull);
}

TEST(RmaFrames, EveryWindowFrameByteCorruptionIsRejected) {
  const std::vector<std::uint8_t> good =
      make_window_frame(7, 1, 2, 3000, 0xabcdef);
  for (std::size_t i = 0; i < kWindowFrameSize; ++i) {
    for (const std::uint8_t flip : {0x01, 0x80, 0xff}) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= flip;
      EXPECT_FALSE(parse_frame(bad).has_value())
          << "byte " << i << " flip " << int(flip);
    }
  }
}

TEST(RmaFrames, TruncationIsRejected) {
  const std::vector<std::uint8_t> w = make_window_frame(9, 0, 1, 64, 0);
  for (std::size_t n = 0; n < kWindowFrameSize; ++n) {
    const std::vector<std::uint8_t> cut(w.begin(), w.begin() + n);
    EXPECT_FALSE(parse_frame(cut).has_value()) << n;
  }
  EXPECT_FALSE(parse_frame({}).has_value());
}

TEST(RmaFrames, AckRoundTripAndCorruption) {
  const std::vector<std::uint8_t> ack = make_ack(0x0123456789abcdefull);
  EXPECT_EQ(parse_ack(ack), 0x0123456789abcdefull);
  for (std::size_t i = 0; i < ack.size(); ++i) {
    std::vector<std::uint8_t> bad = ack;
    bad[i] ^= 0x04;
    EXPECT_FALSE(parse_ack(bad).has_value()) << "byte " << i;
  }
  const std::vector<std::uint8_t> cut(ack.begin(), ack.end() - 1);
  EXPECT_FALSE(parse_ack(cut).has_value());
}

TEST(RmaFrames, DigestIsLengthAndContentSensitive) {
  std::vector<std::uint8_t> a(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(i * 37);
  }
  const std::uint64_t d = payload_digest(a.data(), a.size());
  EXPECT_EQ(payload_digest(a.data(), a.size()), d);  // deterministic
  EXPECT_NE(payload_digest(a.data(), a.size() - 1), d);
  auto b = a;
  b[0] ^= 0xff;  // byte 0 is always sampled
  EXPECT_NE(payload_digest(b.data(), b.size()), d);
  EXPECT_NE(payload_digest(nullptr, 0), d);
}

// ---------------------------------------------------------------------------
// PayloadWindow ownership handoff.

std::vector<std::uint8_t> pattern_bytes(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 13);
  return v;
}

/// Take `slot` with the length and digest of `bytes`, as a control frame
/// for an intact publish of `bytes` would.
std::optional<std::vector<std::uint8_t>> take_as_published(
    PayloadWindow& w, std::uint32_t slot, std::uint64_t nonce,
    const std::vector<std::uint8_t>& bytes) {
  return w.take(slot, nonce, bytes.size(),
                payload_digest(bytes.data(), bytes.size()));
}

TEST(PayloadWindow, TakeIsExactlyOnce) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(300);
  const std::uint32_t slot = w.publish(11, bytes);
  EXPECT_EQ(w.live(), 1u);
  auto got = take_as_published(w, slot, 11, bytes);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
  // The duplicate finds nothing.
  EXPECT_FALSE(take_as_published(w, slot, 11, bytes).has_value());
  EXPECT_EQ(w.published(), 1u);
  EXPECT_EQ(w.taken(), 1u);
}

TEST(PayloadWindow, NonceMismatchDoesNotConsume) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(64);
  const std::uint32_t slot = w.publish(5, bytes);
  // A stale or forged frame, then a wrong slot, then the intact retry.
  EXPECT_FALSE(take_as_published(w, slot, 6, bytes).has_value());
  EXPECT_FALSE(take_as_published(w, slot + 9, 5, bytes).has_value());
  EXPECT_TRUE(take_as_published(w, slot, 5, bytes).has_value());
}

TEST(PayloadWindow, VerifiedTakeRejectsWithoutConsuming) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(2048);
  const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
  const std::uint32_t slot = w.publish(21, bytes);
  // A body-damaged control frame (wrong length or digest) must leave the
  // slot live so the sender's retransmission can still succeed.
  EXPECT_FALSE(w.take(slot, 21, bytes.size() - 1, digest).has_value());
  EXPECT_FALSE(w.take(slot, 21, bytes.size(), digest ^ 1).has_value());
  EXPECT_EQ(w.live(), 1u);
  auto got = w.take(slot, 21, bytes.size(), digest);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
}

TEST(PayloadWindow, ReleaseRecyclesUntakenBytes) {
  // Release drops the slot, taken or not: a later take of it finds nothing.
  PayloadWindow w;
  const auto bytes = pattern_bytes(4096);
  const std::uint32_t slot = w.publish(1, bytes);
  w.release(slot, 1);  // ack arrived for a duplicate; bytes never taken
  EXPECT_EQ(w.live(), 0u);
  EXPECT_FALSE(take_as_published(w, slot, 1, bytes).has_value());
  // Releasing a taken slot leaves the receiver's bytes intact.
  const std::uint32_t slot2 = w.publish(2, bytes);
  auto got = take_as_published(w, slot2, 2, bytes);
  w.release(slot2, 2);
  EXPECT_EQ(w.live(), 0u);
  EXPECT_FALSE(take_as_published(w, slot2, 2, bytes).has_value());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes);
}

TEST(PayloadWindow, ReclaimReturnsBytesOnlyIfUntaken) {
  PayloadWindow w;
  const auto bytes = pattern_bytes(128);
  const std::uint32_t s1 = w.publish(1, bytes);
  auto back = w.reclaim(s1, 1);  // dest died before taking
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  const std::uint32_t s2 = w.publish(2, bytes);
  EXPECT_TRUE(take_as_published(w, s2, 2, bytes).has_value());
  EXPECT_FALSE(w.reclaim(s2, 2).has_value());  // dest took it, then died
  EXPECT_EQ(w.live(), 0u);
}

// ---------------------------------------------------------------------------
// Work-unit encode/decode fuzz: empty, huge, and adversarial inputs.

WorkUnit fuzz_unit(std::mt19937& rng, std::size_t npoints) {
  std::uniform_real_distribution<double> coord(-100.0, 100.0);
  std::vector<Vec2> pts;
  pts.reserve(npoints);
  for (std::size_t i = 0; i < npoints; ++i) {
    pts.push_back({coord(rng), coord(rng)});
  }
  WorkUnit u{WorkUnit::Kind::kBlDecompose, make_root_subdomain(pts), {}};
  u.id = rng();
  u.failed_ranks = rng();
  return u;
}

TEST(WorkFuzz, EmptyPieceRoundTrips) {
  const auto bytes = serialize_piece(MeshView{});
  EXPECT_EQ(bytes.size(), serialized_size(MeshView{}));
  const MeshView back = deserialize_piece(bytes);
  EXPECT_EQ(back.point_count(), 0u);
  EXPECT_EQ(back.triangle_count(), 0u);
}

TEST(WorkFuzz, SerializedSizeIsExact) {
  std::mt19937 rng(123);
  for (const std::size_t n : {std::size_t{3}, std::size_t{100},
                              std::size_t{5000}}) {
    const WorkUnit u = fuzz_unit(rng, n);
    EXPECT_EQ(serialize(u).size(), serialized_size(u)) << n << " points";
  }
  const MeshView piece(std::vector<Vec2>(300, Vec2{0.5, 0.25}),
                       std::vector<std::array<std::uint32_t, 3>>(
                           257, std::array<std::uint32_t, 3>{0, 1, 2}));
  EXPECT_EQ(serialize_piece(piece).size(), serialized_size(piece));
}

TEST(WorkFuzz, HugeUnitSurvivesTheWindowPath) {
  // A multi-megabyte unit: publish, verified-take, deserialize; the result
  // must equal the direct round trip.
  std::mt19937 rng(99);
  const WorkUnit u = fuzz_unit(rng, 60000);
  auto bytes = serialize(u);
  ASSERT_GT(bytes.size(), std::size_t{1} << 20);
  const std::uint64_t digest = payload_digest(bytes.data(), bytes.size());
  const std::uint64_t len = bytes.size();
  PayloadWindow w;
  const std::uint32_t slot = w.publish(1, std::move(bytes));
  auto taken = w.take(slot, 1, len, digest);
  ASSERT_TRUE(taken.has_value());
  const WorkUnit back = deserialize_work(taken->data(), taken->size());
  EXPECT_EQ(back.id, u.id);
  EXPECT_EQ(back.bl.xsorted, u.bl.xsorted);
}

TEST(WorkFuzz, RandomBitFlipsAndTruncationsAreRejected) {
  std::mt19937 rng(0x5eed);
  for (int trial = 0; trial < 40; ++trial) {
    const WorkUnit u = fuzz_unit(rng, 3 + rng() % 500);
    const auto bytes = serialize(u);
    {
      auto bad = bytes;
      const std::size_t i = rng() % bad.size();
      bad[i] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      EXPECT_THROW(deserialize_work(bad), std::runtime_error);
    }
    {
      auto bad = bytes;
      bad.resize(rng() % bytes.size());
      EXPECT_THROW(deserialize_work(bad), std::runtime_error);
    }
  }
}

// ---------------------------------------------------------------------------
// Pool-level transport: every payload moves by window handoff, and the
// protocol stays exactly-once under chaos.

struct PoolFixture {
  GradedSizing sizing;
  std::vector<WorkUnit> initial;
  PoolOptions opts;

  PoolFixture() {
    Options cfg;
    cfg.airfoil = make_naca0012(120);
    cfg.growth_kind = GrowthKind::kGeometric;
    cfg.first_height = 8e-4;
    cfg.growth_ratio = 1.3;
    cfg.max_layers = 25;
    cfg.farfield_chords = 6.0;
    cfg.inviscid_target_triangles = 4000.0;
    cfg.bl_min_points = 600;
    cfg.bl_max_level = 8;

    const BoundaryLayer bl = build_boundary_layer(cfg.airfoil, blayer_options(cfg));
    MergedMesh bl_mesh;
    triangulate_boundary_layer(bl, bl_decompose_options(cfg), bl_mesh, nullptr);
    const InviscidDomain domain = make_inviscid_domain(bl, cfg, bl_mesh);
    sizing = domain.sizing;
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      initial.push_back(
          WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
    }

    opts.nranks = 4;
    opts.steal_threshold = 1.0;
    opts.update_period = std::chrono::microseconds(50);
    opts.rules = tree_rules(cfg);
    opts.heartbeat_timeout = std::chrono::milliseconds(1000);
    opts.watchdog_timeout = std::chrono::seconds(120);
  }
};

TEST(PoolTransport, EveryPayloadMovesThroughTheWindow) {
  // Fault-free, every dispatched unit and every gathered result is taken
  // exactly once from its sender's window, so the window carries exactly
  // the logical payload volume, and the mailboxes carry only control frames
  // (37-byte window frames, 12-byte acks, empty steal requests and
  // shutdowns). Whether an idle rank manages to steal before rank 0 drains
  // its queue is up to the scheduler, so repeat until a run has moved work
  // units as well as results.
  const PoolFixture fx;
  bool transferred = false;
  for (int run = 0; run < 5 && !transferred; ++run) {
    MergedMesh mesh;
    auto units = fx.initial;
    const PoolStats stats =
        run_pool(std::move(units), fx.sizing, fx.opts, mesh);
    ASSERT_EQ(stats.status, RunStatus::kOk);
    EXPECT_GT(stats.result_bytes, 0u);
    EXPECT_EQ(stats.window_bytes, stats.transfer_bytes + stats.result_bytes);
    EXPECT_GT(stats.comm_messages, 0u);
    EXPECT_LE(stats.comm_bytes, 64 * stats.comm_messages);
    transferred = stats.transfer_bytes > 0;
  }
  EXPECT_TRUE(transferred) << "no run stole a unit; transfers went unchecked";
}

TEST(PoolAb, RmaChaosRunPassesTheProtocolAudit) {
  const PoolFixture fx;
  PoolOptions o = fx.opts;
  o.faults.enabled = true;
  o.faults.seed = 4242;
  o.faults.drop_rate = 0.06;
  o.faults.duplicate_rate = 0.05;
  o.faults.corrupt_rate = 0.05;
  o.faults.delay_rate = 0.04;
  o.faults.delay = std::chrono::microseconds(200);
  ProtocolTrace trace;
  o.trace = &trace;
  MergedMesh mesh;
  auto units = fx.initial;
  const PoolStats stats = run_pool(std::move(units), fx.sizing, o, mesh);
  EXPECT_EQ(stats.status, RunStatus::kOk);
  EXPECT_GT(stats.zero_copy_hits, 0u);  // chaos ran over the window path

  // Exactly-once window handoff under drops, duplicates, and corruption:
  // publish-once, take-once, take-before-accept, and every dispatch
  // resolved.
  const AuditReport report =
      audit_protocol(trace, stats.status == RunStatus::kFailed);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace aero
