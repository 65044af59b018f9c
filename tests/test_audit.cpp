// The invariant auditors (src/check) must (a) stay quiet on healthy
// structures -- including full seed-pipeline meshes -- and (b) report each
// seeded defect class with a precise, located message. The corruption tests
// reach the private internals through the TestAccess backdoors declared in
// quadedge.hpp / mesh.hpp (DelaunayMesh's is defined in delaunay_access.hpp).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "airfoil/geometry.hpp"
#include "blayer/boundary_layer.hpp"  // aerolint: allow(public-api)
#include "check/audit.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "delaunay/mesh.hpp"  // aerolint: allow(public-api)
#include "delaunay/quadedge.hpp"  // aerolint: allow(public-api)
#include "delaunay_access.hpp"  // aerolint: allow(public-api)
#include "geom/predicates.hpp"  // aerolint: allow(public-api)
#include "runtime/parallel_driver.hpp"

namespace aero {

// White-box corruption fixture: the auditors are tested by mutating kernel
// storage directly, which is exactly what the mesh-internal-access rule
// forbids everywhere else. DelaunayMesh's backdoor is in delaunay_access.hpp.
struct QuadEdge::TestAccess {
  static ChunkedArray<QuadEdge::EdgeRef>& next(QuadEdge& q) {  // aerolint: allow(mesh-internal-access)
    return q.next_;
  }
  static ChunkedArray<VertIndex>& data(QuadEdge& q) { return q.data_; }  // aerolint: allow(mesh-internal-access)
};

namespace {

bool has_issue(const AuditReport& r, const std::string& needle) {
  for (const std::string& s : r.issues) {
    if (s.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Quad-edge

/// A Guibas-Stolfi triangle: three edges 0->1->2->0 sharing faces.
QuadEdge make_triangle_quadedge() {
  QuadEdge q;
  const QuadEdge::EdgeRef a = q.make_edge(0, 1);
  const QuadEdge::EdgeRef b = q.make_edge(1, 2);
  q.splice(QuadEdge::sym(a), b);
  q.connect(b, a);
  return q;
}

TEST(AuditQuadEdge, CleanTriangle) {
  QuadEdge q = make_triangle_quadedge();
  const AuditReport r = audit_quadedge(q);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.checked, 12u);  // 3 physical edges, 4 quarters each
}

TEST(AuditQuadEdge, ParityCorruptionReported) {
  QuadEdge q = make_triangle_quadedge();
  // Point a primal quarter's Onext at a dual quarter.
  QuadEdge::TestAccess::next(q)[0] ^= 1u;
  const AuditReport r = audit_quadedge(q);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "crosses the primal/dual parity")) << r.summary();
}

TEST(AuditQuadEdge, RingCorruptionReported) {
  QuadEdge q = make_triangle_quadedge();
  // Redirect quarter 0's Onext onto quarter 4's successor: the involution
  // Oprev(Onext(e)) == e now fails for 0 (both land on the same successor),
  // the signature of a half-applied splice.
  auto& next = QuadEdge::TestAccess::next(q);
  ASSERT_NE(next[0], next[4]);
  next[0] = next[4];
  const AuditReport r = audit_quadedge(q);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "dual linkage broken")) << r.summary();
}

TEST(AuditQuadEdge, OriginDisagreementReported) {
  QuadEdge q = make_triangle_quadedge();
  // Two primal quarters on one origin ring must agree on the origin vertex;
  // rewrite one origin record without re-splicing.
  QuadEdge::TestAccess::data(q)[0] = 7;
  const AuditReport r = audit_quadedge(q);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "disagrees with ring origin")) << r.summary();
}

// ---------------------------------------------------------------------------
// Delaunay mesh

/// Triangle (0,0)-(1,0)-(0.5,1) with an interior vertex: the triangulation
/// is the 3-triangle fan around the interior point.
DelaunayMesh make_fan_mesh() {
  DelaunayMesh m;
  EXPECT_TRUE(m.triangulate(
      {{0.0, 0.0}, {1.0, 0.0}, {0.5, 1.0}, {0.5, 0.4}}));
  return m;
}

TEST(AuditDelaunay, CleanFan) {
  DelaunayMesh m = make_fan_mesh();
  const AuditReport r = audit_delaunay(m);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GE(r.checked, 6u);  // 3 finite + 3 ghost triangles
}

TEST(AuditDelaunay, CavityCorruptionViolatesIncircle) {
  // An irregular convex quad with an interior vertex: plenty of interior
  // edges. Flip one whose surrounding quad is strictly convex -- the result
  // is a topologically consistent, correctly oriented triangulation whose
  // flipped edge fails the empty-circumcircle test: a stale cavity, exactly
  // what a Bowyer-Watson step that misses a triangle leaves behind.
  DelaunayMesh m;
  ASSERT_TRUE(m.triangulate(
      {{0.0, 0.0}, {2.0, 0.0}, {3.0, 1.5}, {1.0, 2.2}, {1.2, 0.9}}));
  ASSERT_TRUE(audit_delaunay(m).ok());

  bool flipped = false;
  for (TriIndex t = 0;
       t < static_cast<TriIndex>(m.triangle_slots()) && !flipped; ++t) {
    if (!m.is_live_finite(t)) continue;
    const MeshTri& mt = m.tri(t);
    for (int i = 0; i < 3 && !flipped; ++i) {
      const TriIndex nb = mt.n[i];
      if (nb == kNoTri || !m.is_live_finite(nb) || mt.constrained[i]) continue;
      const Vec2 a = m.point(mt.v[(i + 1) % 3]);
      const Vec2 b = m.point(mt.v[(i + 2) % 3]);
      const Vec2 c = m.point(mt.v[i]);
      // The neighbor's apex sits opposite its back edge.
      int j = 0;
      for (; j < 3; ++j) {
        if (m.tri(nb).n[j] == t) break;
      }
      if (j == 3) continue;
      const Vec2 d = m.point(m.tri(nb).v[j]);
      // Flip only a strictly convex quad c-a-d-b (both new triangles CCW).
      if (orient2d(c, a, d) > 0.0 && orient2d(a, d, b) > 0.0 &&
          orient2d(d, b, c) > 0.0 && orient2d(b, c, a) > 0.0) {
        DelaunayMesh::TestAccess::flip(m, t, i);
        flipped = true;
      }
    }
  }
  ASSERT_TRUE(flipped);

  const AuditReport r = audit_delaunay(m);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "is not locally Delaunay")) << r.summary();
  EXPECT_FALSE(has_issue(r, "not strictly CCW")) << r.summary();
}

TEST(AuditDelaunay, AdjacencyCorruptionReported) {
  DelaunayMesh m = make_fan_mesh();
  auto& tri_n = DelaunayMesh::TestAccess::tri_n(m);
  TriIndex victim = kNoTri;
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_n.size()); ++t) {
    if (m.is_live_finite(t)) victim = t;
  }
  ASSERT_NE(victim, kNoTri);
  tri_n[static_cast<std::size_t>(victim)][0] = kNoTri;
  const AuditReport r = audit_delaunay(m);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "missing/out-of-range neighbor")) << r.summary();
}

TEST(AuditDelaunay, OrientationCorruptionReported) {
  DelaunayMesh m = make_fan_mesh();
  auto& tri_v = DelaunayMesh::TestAccess::tri_v(m);
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v.size()); ++t) {
    if (m.is_live_finite(t)) {
      std::swap(tri_v[static_cast<std::size_t>(t)][0],
                tri_v[static_cast<std::size_t>(t)][1]);
      break;
    }
  }
  const AuditReport r = audit_delaunay(m);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "not strictly CCW")) << r.summary();
}

// ---------------------------------------------------------------------------
// Protocol trace (the pool's ack table / exactly-once machinery)

TEST(AuditProtocol, CleanSingleTransfer) {
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kDispatch, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kAccept, 1, 1, 0);
  t.record(ProtocolEvent::Kind::kAckMatched, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 1);
  const AuditReport r = audit_protocol(t);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.checked, 5u);
}

TEST(AuditProtocol, AckWithoutAcceptReported) {
  // A corrupted ack table: the donor erased an in-flight entry for a frame
  // the receiver never accepted (the unit would be lost in flight).
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kDispatch, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kAckMatched, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 0);
  const AuditReport r = audit_protocol(t);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "ack-matched but the frame was never accepted"))
      << r.summary();
}

TEST(AuditProtocol, DedupeFailureReported) {
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kDispatch, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kAccept, 1, 1, 0);
  t.record(ProtocolEvent::Kind::kAccept, 1, 1, 0);  // retransmit re-accepted
  t.record(ProtocolEvent::Kind::kAckMatched, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 1);
  const AuditReport r = audit_protocol(t);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "accepted twice (receiver dedupe failed)"))
      << r.summary();
}

TEST(AuditProtocol, DoubleResolveReported) {
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kDispatch, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kAccept, 1, 1, 0);
  t.record(ProtocolEvent::Kind::kAckMatched, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kRecovered, 1, 0, 1);  // same entry, again
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 1);
  const AuditReport r = audit_protocol(t);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "resolved twice")) << r.summary();
}

TEST(AuditProtocol, RequeueAfterCompletionReported) {
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 0);
  t.record(ProtocolEvent::Kind::kUnitRequeued, 0, 0, 1);
  const AuditReport r = audit_protocol(t, /*run_aborted=*/true);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_issue(r, "after it already finished")) << r.summary();
}

TEST(AuditProtocol, UnresolvedNonceOnlyOnCompletedRuns) {
  ProtocolTrace t;
  t.begin_run();
  t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
  t.record(ProtocolEvent::Kind::kDispatch, 1, 0, 1);
  t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 0);
  const AuditReport completed = audit_protocol(t, /*run_aborted=*/false);
  EXPECT_FALSE(completed.ok());
  EXPECT_TRUE(has_issue(completed, "dispatched but never resolved"))
      << completed.summary();
  // A watchdog-aborted run legitimately strands in-flight entries.
  EXPECT_TRUE(audit_protocol(t, /*run_aborted=*/true).ok());
}

TEST(AuditProtocol, UnitIdsAreScopedPerRun) {
  // Two pool passes share one trace (the pipeline's boundary-layer and
  // inviscid pools); unit 0 exists in both without being "created twice".
  ProtocolTrace t;
  for (int run = 0; run < 2; ++run) {
    t.begin_run();
    t.record(ProtocolEvent::Kind::kUnitCreated, 0, 0);
    t.record(ProtocolEvent::Kind::kUnitCompleted, 0, 0);
  }
  const AuditReport r = audit_protocol(t);
  EXPECT_TRUE(r.ok()) << r.summary();
}

// ---------------------------------------------------------------------------
// Seed pipeline artifacts stay audit-clean

TEST(AuditPipeline, SequentialArtifactsClean) {
  Options cfg;
  cfg.airfoil = make_naca0012(120);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 6e-4;
  cfg.growth_ratio = 1.25;
  cfg.max_layers = 20;
  cfg.farfield_chords = 6.0;
  cfg.inviscid_target_triangles = 8000.0;
  cfg.bl_min_points = 800;
  cfg.bl_max_level = 10;

  const MeshGenerationResult r = generate_mesh(cfg);
  ASSERT_EQ(r.status, RunStatus::kOk);

  const AuditReport bl = audit_blayer(r.boundary_layer);
  EXPECT_TRUE(bl.ok()) << bl.summary();
  const AuditReport mm = audit_merged(r.mesh);
  EXPECT_TRUE(mm.ok()) << mm.summary();
}

TEST(AuditPipeline, ParallelProtocolTraceClean) {
  Options cfg;
  cfg.airfoil = make_naca0012(120);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 6e-4;
  cfg.growth_ratio = 1.25;
  cfg.max_layers = 20;
  cfg.farfield_chords = 6.0;
  cfg.inviscid_target_triangles = 8000.0;
  cfg.bl_min_points = 800;
  cfg.bl_max_level = 10;
  cfg.ranks = 2;

  ProtocolTrace trace;
  const ParallelMeshResult r = parallel_generate_mesh(cfg, &trace);
  ASSERT_EQ(r.status, RunStatus::kOk);
  EXPECT_GT(trace.size(), 0u);

  const AuditReport p = audit_protocol(trace);
  EXPECT_TRUE(p.ok()) << p.summary();
  const AuditReport mm = audit_merged(r.mesh);
  EXPECT_TRUE(mm.ok()) << mm.summary();
}

TEST(AuditRays, SingleElementClean) {
  const AirfoilConfig cfg = make_naca0012(100);
  BoundaryLayerOptions opts;
  opts.growth = {GrowthKind::kGeometric, 6e-4, 1.25};
  opts.max_layers = 20;
  IntersectionStats stats;
  ElementRays er = build_rays(cfg.elements[0], opts, 0, &stats);
  resolve_self_intersections(er, opts, &stats);
  const AuditReport r = audit_rays(er, opts);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_GT(r.checked, 100u);
}

}  // namespace
}  // namespace aero
