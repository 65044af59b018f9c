// In-process message-passing runtime: communicator, RMA window, work-unit
// serialization, and the work-stealing pool's equivalence to the sequential
// pipeline, alone and with two pools running at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <tuple>
#include <vector>

#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "runtime/parallel_driver.hpp"
#include "runtime/pool.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

TEST(Communicator, SendRecvFifoPerPair) {
  Communicator comm(2);
  comm.send(0, 1, kTagWorkRequest, {1});
  comm.send(0, 1, kTagWorkRequest, {2});
  const Message m1 = comm.recv(1);
  const Message m2 = comm.recv(1);
  EXPECT_EQ(m1.payload[0], 1);
  EXPECT_EQ(m2.payload[0], 2);
  EXPECT_EQ(m1.from, 0);
}

TEST(Communicator, TryRecvNonBlocking) {
  Communicator comm(2);
  EXPECT_FALSE(comm.try_recv(0).has_value());
  comm.send(1, 0, kTagNoWork);
  const auto msg = comm.try_recv(0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, kTagNoWork);
}

TEST(Communicator, BlockingRecvWakesOnSend) {
  Communicator comm(2);
  std::thread sender([&comm] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    comm.send(0, 1, kTagShutdown);
  });
  const Message m = comm.recv(1);  // blocks until the send
  EXPECT_EQ(m.tag, kTagShutdown);
  sender.join();
}

TEST(RmaWindow, PutGetRoundTrip) {
  RmaWindow win(4);
  win.put(2, 123.5);
  win.put(0, 7.0);
  const auto all = win.get_all();
  EXPECT_EQ(all[0], 7.0);
  EXPECT_EQ(all[1], 0.0);
  EXPECT_EQ(all[2], 123.5);
}

TEST(WorkSerialization, BlSubdomainRoundTrip) {
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0.5, 1}, {2, 2}});
  s.cuts = {{CutAxis::kVertical, 0.5, true},
            {CutAxis::kHorizontal, 1.0, false}};
  s.level = 2;
  const WorkUnit unit{WorkUnit::Kind::kBlDecompose, s, {}};
  const WorkUnit back = deserialize_work(serialize(unit));
  EXPECT_EQ(back.kind, WorkUnit::Kind::kBlDecompose);
  EXPECT_EQ(back.bl.xsorted, s.xsorted);
  EXPECT_EQ(back.bl.ysorted, s.ysorted);
  EXPECT_EQ(back.bl.level, 2);
  ASSERT_EQ(back.bl.cuts.size(), 2u);
  EXPECT_EQ(back.bl.cuts[0].axis, CutAxis::kVertical);
  EXPECT_EQ(back.bl.cuts[0].line, 0.5);
  EXPECT_TRUE(back.bl.cuts[0].keep_left);
}

TEST(WorkSerialization, FinalizedShipsOnlyXsorted) {
  // The paper's communication optimization: a sufficiently decomposed
  // subdomain ships only its x-sorted vertices.
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0.5, 1}, {2, 2}});
  const std::size_t full = serialize({WorkUnit::Kind::kBlDecompose, s, {}}).size();
  s.finalize();
  const std::size_t final_size =
      serialize({WorkUnit::Kind::kBlDecompose, s, {}}).size();
  EXPECT_LT(final_size, full);
  const WorkUnit back =
      deserialize_work(serialize({WorkUnit::Kind::kBlDecompose, s, {}}));
  EXPECT_TRUE(back.bl.final_);
  EXPECT_TRUE(back.bl.ysorted.empty());
  EXPECT_EQ(back.bl.xsorted.size(), 4u);
}

TEST(WorkSerialization, InviscidRoundTrip) {
  InviscidSubdomain s;
  s.border = {{0, 0}, {4, 0}, {4, 4}, {0, 4}};
  s.corners = {0, 1, 2, 3};
  s.level = 3;
  s.hole_segments = {{{1, 1}, {2, 1}}, {{2, 1}, {1, 1.5}}};
  s.hole_seeds = {{1.4, 1.1}};
  const WorkUnit back =
      deserialize_work(serialize({WorkUnit::Kind::kInviscidDecouple, {}, s}));
  EXPECT_EQ(back.inv.border, s.border);
  EXPECT_EQ(back.inv.corners, s.corners);
  EXPECT_EQ(back.inv.hole_segments, s.hole_segments);
  EXPECT_EQ(back.inv.hole_seeds, s.hole_seeds);
  EXPECT_EQ(back.inv.level, 3);
}

TEST(WorkSerialization, PieceRoundTrip) {
  const MeshView piece({{0, 0}, {1, 0}, {0, 1}, {1e-300, -5}},
                       {{0, 1, 2}, {1, 3, 2}});
  const MeshView back = deserialize_piece(serialize_piece(piece));
  ASSERT_EQ(back.point_count(), 4u);
  ASSERT_EQ(back.triangle_count(), 2u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(back.point(i), piece.point(i));
  for (std::size_t t = 0; t < 2; ++t) EXPECT_EQ(back.tri(t), piece.tri(t));
}

TEST(WorkSerialization, TruncatedPayloadThrows) {
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0.5, 1}});
  auto bytes = serialize({WorkUnit::Kind::kBlDecompose, s, {}});
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_work(bytes), std::runtime_error);
}

/// The live triangles as coordinate triples, each rotated to start at its
/// lexicographically smallest vertex (orientation kept), then sorted: equal
/// for two meshes with the same triangles in any merge order.
std::vector<std::array<double, 6>> canonical_triangles(const MergedMesh& m) {
  std::vector<std::array<double, 6>> out;
  m.for_each_triangle([&](Vec2 a, Vec2 b, Vec2 c) {
    const auto less = [](Vec2 p, Vec2 q) {
      return p.x < q.x || (p.x == q.x && p.y < q.y);
    };
    if (less(b, a) && less(b, c)) {
      std::tie(a, b, c) = std::tuple(b, c, a);
    } else if (less(c, a) && less(c, b)) {
      std::tie(a, b, c) = std::tuple(c, a, b);
    }
    out.push_back({a.x, a.y, b.x, b.y, c.x, c.y});
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// A small NACA 0012 job whose pool passes split into several units.
Options pool_case(int ranks) {
  Options cfg;
  cfg.airfoil = make_naca0012(120);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 8e-4;
  cfg.growth_ratio = 1.3;
  cfg.max_layers = 25;
  cfg.farfield_chords = 6.0;
  cfg.inviscid_target_triangles = 8000.0;
  cfg.bl_min_points = 600;
  cfg.bl_max_level = 8;
  cfg.ranks = ranks;
  return cfg;
}

class PoolEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PoolEquivalence, ParallelMatchesSequential) {
  const Options cfg = pool_case(GetParam());

  const MeshGenerationResult seq = generate_mesh(cfg);
  const ParallelMeshResult par = parallel_generate_mesh(cfg);

  // The mesh is deterministic: identical triangle counts and identical
  // welded point counts regardless of rank count and steal interleaving.
  EXPECT_EQ(par.mesh.triangle_count(), seq.mesh.triangle_count());
  EXPECT_EQ(par.mesh.point_count(), seq.mesh.point_count());
  EXPECT_EQ(canonical_triangles(par.mesh), canonical_triangles(seq.mesh));
  const auto conf = par.mesh.check_conformity();
  EXPECT_TRUE(conf.manifold);
  EXPECT_TRUE(conf.orientation_ok);
}

INSTANTIATE_TEST_SUITE_P(Ranks, PoolEquivalence, ::testing::Values(1, 2, 4),
                         ::testing::PrintToStringParamName());

TEST(PoolConcurrency, ConcurrentRunsMatchASoloRun) {
  // Two 4-rank runs at once in one process: each pool owns its
  // communicator, windows and buffers, so each still gives exactly the
  // mesh of a run alone.
  const Options cfg = pool_case(4);
  const ParallelMeshResult solo = parallel_generate_mesh(cfg);
  ASSERT_EQ(solo.status, RunStatus::kOk);
  const auto reference = canonical_triangles(solo.mesh);

  ParallelMeshResult a, b;
  std::thread other([&] { b = parallel_generate_mesh(cfg); });
  a = parallel_generate_mesh(cfg);
  other.join();

  for (const ParallelMeshResult* r : {&a, &b}) {
    ASSERT_EQ(r->status, RunStatus::kOk);
    EXPECT_EQ(canonical_triangles(r->mesh), reference);
  }
}

TEST(Pool, WorkIsActuallyDistributed) {
  // Drive the steal path deterministically: every idle rank requests work
  // (threshold 1) and the update period is tight, so even on a single
  // oversubscribed core the requests land while rank 0 still has queued
  // units.
  Options cfg;
  cfg.airfoil = make_naca0012(150);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 6e-4;
  cfg.growth_ratio = 1.25;
  cfg.max_layers = 30;
  cfg.farfield_chords = 8.0;
  cfg.inviscid_target_triangles = 3000.0;
  cfg.bl_min_points = 400;
  cfg.bl_max_level = 10;

  const BoundaryLayer bl = build_boundary_layer(cfg.airfoil, blayer_options(cfg));
  MergedMesh bl_mesh;
  triangulate_boundary_layer(bl, bl_decompose_options(cfg), bl_mesh, nullptr);
  const InviscidDomain domain = make_inviscid_domain(bl, cfg, bl_mesh);

  PoolOptions opts;
  opts.nranks = 4;
  opts.steal_threshold = 1.0;
  opts.update_period = std::chrono::microseconds(50);
  opts.rules = tree_rules(cfg);

  std::vector<WorkUnit> initial;
  for (InviscidSubdomain& quad : initial_quadrants(domain)) {
    initial.push_back(
        WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
  }
  MergedMesh out;
  const PoolStats stats = run_pool(std::move(initial), domain.sizing, opts, out);

  std::size_t busy_ranks = 0;
  for (const std::size_t n : stats.tasks_per_rank) {
    if (n > 0) ++busy_ranks;
  }
  EXPECT_GE(busy_ranks, 2u);
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.transfer_bytes, 0u);
}

}  // namespace
}  // namespace aero
