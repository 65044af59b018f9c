// Ruppert refinement: quality bounds, area/sizing bounds, concentric shells
// near small input angles, protected segments, dead-slot compaction.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/crc32.hpp"  // aerolint: allow(public-api)
#include "core/mesh_view.hpp"
#include "delaunay/stats.hpp"  // aerolint: allow(public-api)
#include "delaunay/triangulator.hpp"
#include "delaunay_access.hpp"  // aerolint: allow(public-api)
#include "inviscid/decouple.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;

Pslg unit_square(double s = 1.0) {
  Pslg p;
  p.points = {{0, 0}, {s, 0}, {s, s}, {0, s}};
  p.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  return p;
}

TriangulateResult refine_square(double max_area, double bound = kSqrt2) {
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = bound;
  o.refine_options.max_area = max_area;
  return triangulate(unit_square(), o);
}

TEST(Refine, QualityBoundAchieved) {
  const auto r = refine_square(0.01);
  const MeshStats st = compute_stats(r.mesh);
  // radius-edge sqrt(2) corresponds to a 20.7 degree minimum angle.
  EXPECT_GE(st.min_angle_deg, 20.6);
  EXPECT_LE(st.max_radius_edge, kSqrt2 + 1e-9);
  EXPECT_TRUE(r.mesh.check_topology());
  EXPECT_TRUE(r.mesh.check_delaunay());
}

TEST(Refine, AreaBoundRespected) {
  for (const double max_area : {0.1, 0.01, 0.001}) {
    const auto r = refine_square(max_area);
    const MeshStats st = compute_stats(r.mesh);
    EXPECT_LE(st.max_area, max_area + 1e-12) << "bound " << max_area;
    EXPECT_NEAR(st.total_area, 1.0, 1e-9);
    // Triangle count should scale like 1/area.
    EXPECT_GE(st.triangles, static_cast<std::size_t>(0.5 / max_area));
  }
}

TEST(Refine, SizingFunctionGradesMesh) {
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = kSqrt2;
  // Fine near x=0, coarse near x=1.
  o.refine_options.sizing = [](Vec2 p) {
    const double l = 0.01 + 0.2 * p.x;
    return 0.5 * l * l;
  };
  const auto r = triangulate(unit_square(), o);
  // Count triangles with centroid in the left vs right quarter.
  std::size_t left = 0, right = 0;
  r.mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = r.mesh.tri(t);
    if (!mt.inside) return;
    const double cx = (r.mesh.point(mt.v[0]).x + r.mesh.point(mt.v[1]).x +
                       r.mesh.point(mt.v[2]).x) / 3.0;
    if (cx < 0.25) ++left;
    if (cx > 0.75) ++right;
  });
  EXPECT_GT(left, right * 5) << "left " << left << " right " << right;
  EXPECT_TRUE(r.mesh.check_delaunay());
}

TEST(Refine, SmallInputAngleTerminates) {
  // A 10-degree wedge: classic Ruppert non-termination case, survivable
  // with concentric shells + the seditious-edge rule.
  Pslg p;
  constexpr double kA = 10.0 * 3.14159265358979323846 / 180.0;
  p.points = {{0, 0}, {1, 0}, {std::cos(kA), std::sin(kA)},
              {1.2, 0.6}, {-0.2, 0.8}};
  p.segments = {{0, 1}, {0, 2}, {1, 3}, {3, 4}, {4, 2}};
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = kSqrt2;
  o.refine_options.max_steiner = 200000;
  const auto r = triangulate(p, o);
  EXPECT_FALSE(r.refine_stats.hit_steiner_cap);
  EXPECT_TRUE(r.mesh.check_topology());
}

TEST(Refine, ProtectedSegmentsNeverSplit) {
  Pslg p = unit_square();
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = kSqrt2;
  o.refine_options.max_area = 0.005;
  o.refine_options.splittable = [](Vec2, Vec2) { return false; };
  const auto r = triangulate(p, o);
  EXPECT_EQ(r.refine_stats.segment_splits, 0u);
  // The four original corners must still bound the mesh: corner vertices
  // are input vertices 0..3 and every boundary edge endpoint coordinate
  // must lie on the square border.
  r.mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = r.mesh.tri(t);
    for (int i = 0; i < 3; ++i) {
      if (!mt.constrained[i]) continue;
      for (const Vec2 q : {r.mesh.point(mt.v[(i + 1) % 3]),
                           r.mesh.point(mt.v[(i + 2) % 3])}) {
        const bool on_border = q.x == 0.0 || q.x == 1.0 || q.y == 0.0 ||
                               q.y == 1.0;
        EXPECT_TRUE(on_border);
        // No Steiner point may appear in a border segment's interior:
        // only the original corners are allowed as constrained endpoints.
        const bool corner = (q.x == 0.0 || q.x == 1.0) &&
                            (q.y == 0.0 || q.y == 1.0);
        EXPECT_TRUE(corner) << q;
      }
    }
  });
}

TEST(Refine, SteinerCapStopsRunaway) {
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.max_area = 1e-7;
  o.refine_options.max_steiner = 100;
  const auto r = triangulate(unit_square(), o);
  EXPECT_TRUE(r.refine_stats.hit_steiner_cap);
  EXPECT_LE(r.refine_stats.steiner_points, 101u);
  EXPECT_TRUE(r.mesh.check_topology());  // still a valid mesh
}

TEST(Refine, StatsAreConsistent) {
  const auto r = refine_square(0.01);
  EXPECT_EQ(r.refine_stats.steiner_points,
            r.refine_stats.segment_splits + r.refine_stats.circumcenters);
  EXPECT_GT(r.refine_stats.steiner_points, 0u);
}

TEST(Refine, HoleBoundaryRefinedConformally) {
  // Square with square hole: refinement must respect the hole.
  Pslg p;
  p.points = {{0, 0}, {4, 0}, {4, 4}, {0, 4},
              {1.8, 1.8}, {2.2, 1.8}, {2.2, 2.2}, {1.8, 2.2}};
  p.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                {4, 5}, {5, 6}, {6, 7}, {7, 4}};
  p.holes = {{2, 2}};
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = kSqrt2;
  o.refine_options.max_area = 0.05;
  const auto r = triangulate(p, o);
  const MeshStats st = compute_stats(r.mesh);
  EXPECT_NEAR(st.total_area, 16.0 - 0.16, 1e-9);
  EXPECT_GE(st.min_angle_deg, 20.6);
}

TEST(RefineCompaction, HighLiftLeafKeepsSlotsNearLiveAndBytesPinned) {
  // The largest leaf of PipelineTest.HighLiftWorkIsPinned's job: '+' child
  // 1 of the first far-field quadrant of the three-element-400 layout (its
  // boxes and sizing as make_inviscid_domain derives them), refined with a
  // 4-thread initial scan as a pool rank with --threads-per-rank 4 runs it.
  // Uncompacted it would end with 774,053 slots for 150,412 live ones, so a
  // skipped compaction fails the slot bound. Compaction must not change the
  // piece's bytes, so one that reorders slots fails the CRC.
  InviscidDomain d;
  d.inner = BBox2{{-0.2058585715358689, -0.29467218716747634},
                  {1.3604079772415654, 0.22038623298257054}};
  d.outer = BBox2{{-24.422725297147153, -25.037142977092454},
                  {25.577274702852847, 24.962857022907546}};
  d.sizing = GradedSizing{d.inner, 0.0038836291932046458, 0.01};
  const std::vector<InviscidSubdomain> kids =
      plus_split(initial_quadrants(d)[0], d.sizing);
  ASSERT_EQ(kids.size(), 4u);
  const TriangulateResult r = refine_subdomain(kids[1], d.sizing, 4);

  std::size_t live = 0;
  for (TriIndex t = 0; t < static_cast<TriIndex>(r.mesh.triangle_slots());
       ++t) {
    if (!r.mesh.tri(t).dead) ++live;
  }
  constexpr std::size_t kOneChunk = 16384;  // triangle slots per arena chunk
  EXPECT_LE(r.mesh.triangle_slots(), 2 * live + kOneChunk);
  EXPECT_EQ(live, 150412u);
  EXPECT_TRUE(r.mesh.check_topology());
  EXPECT_EQ(r.refine_stats.steiner_points, 73228u);
  // One cavity search per circumcenter. Searching again to insert, as the
  // refiner once did, made 993,575 tests here.
  EXPECT_EQ(r.refine_stats.cavity_tests, 596288u);

  const MeshView piece = make_piece(r.mesh);
  EXPECT_EQ(piece.triangle_count(), 148433u);
  EXPECT_EQ(piece.point_count(), 75207u);
  const std::vector<std::uint8_t> blob = piece.serialize();
  EXPECT_EQ(crc32(blob.data(), blob.size()), 0x146e866cu);
}

TEST(RefineCompaction, CompactionThatEmptiesTheQueueEndsTheRun) {
  // On this rectangle the dead slots first outnumber the live ones right
  // after the last useful insertion, when every id still queued is dead and
  // no segment is: the compaction empties the queue, and the loop must end
  // there instead of popping it. (Without that check the run crashes.)
  Pslg p;
  p.points = {{0, 0}, {1.37, 0}, {1.37, 1}, {0, 1}};
  p.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  TriangulateOptions o;
  o.refine = true;
  o.refine_options.radius_edge_bound = kSqrt2;
  o.refine_options.max_area = 0.00023047070541836525;
  const TriangulateResult r = triangulate(p, o);

  EXPECT_EQ(r.refine_stats.steiner_points, 4753u);
  EXPECT_FALSE(r.refine_stats.hit_steiner_cap);
  // Not one dead slot left: the compaction came after the last insertion.
  std::size_t live = 0;
  for (TriIndex t = 0; t < static_cast<TriIndex>(r.mesh.triangle_slots());
       ++t) {
    if (!r.mesh.tri(t).dead) ++live;
  }
  EXPECT_EQ(r.mesh.triangle_slots(), live);
  EXPECT_EQ(r.mesh.triangle_count(), 9224u);
  EXPECT_TRUE(r.mesh.check_topology());
  const MeshStats st = compute_stats(r.mesh);
  EXPECT_GE(st.min_angle_deg, 20.6);
  EXPECT_LE(st.max_area, o.refine_options.max_area);
}

/// Every triangle slot's vertices, dead ones left out, in slot order.
std::vector<std::array<VertIndex, 3>> live_slots(const DelaunayMesh& m) {
  std::vector<std::array<VertIndex, 3>> out;
  for (TriIndex t = 0; t < static_cast<TriIndex>(m.triangle_slots()); ++t) {
    const MeshTri mt = m.tri(t);
    if (!mt.dead) out.push_back(mt.v);
  }
  return out;
}

/// Each vertex's incidence points at a live triangle holding it.
bool incidences_live(const DelaunayMesh& m) {
  for (VertIndex v = 0; v < static_cast<VertIndex>(m.point_count()); ++v) {
    const TriIndex t = m.incident_triangle(v);
    if (t == kNoTri || m.tri(t).dead || m.tri(t).index_of(v) < 0) {
      return false;
    }
  }
  return true;
}

TEST(RefineCompaction, DeadHeldIdsAreDroppedAndLiveOrderKept) {
  // Point-by-point insertion leaves dead the slot of every triangle a cavity
  // replaced. Holding only those ids, compact() must hand back an empty list
  // (the refiner then re-checks its loop instead of popping an empty
  // queue); holding every id, it must hand back the live ones renumbered in
  // order. Either way the live slots keep their order and the mesh still
  // walks and inserts.
  std::vector<Vec2> pts;
  std::uint32_t s = 12345;
  const auto next = [&s] {
    s = s * 1664525u + 1013904223u;
    return static_cast<double>(s >> 8) / 16777216.0;
  };
  for (int i = 0; i < 800; ++i) pts.push_back({next(), next()});
  TriangulateResult r = triangulate_points(
      std::vector<Vec2>(pts.begin(), pts.begin() + 400));
  DelaunayMesh& m = r.mesh;

  std::vector<TriIndex> held;
  for (TriIndex t = 0; t < static_cast<TriIndex>(m.triangle_slots()); ++t) {
    if (m.tri(t).dead) held.push_back(t);
  }
  std::vector<std::array<VertIndex, 3>> live = live_slots(m);
  ASSERT_GT(held.size(), live.size());
  DelaunayMesh::TestAccess::compact(m, held);
  EXPECT_TRUE(held.empty());
  EXPECT_EQ(m.triangle_slots(), live.size());
  EXPECT_EQ(live_slots(m), live);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
  EXPECT_TRUE(incidences_live(m));

  for (std::size_t i = 400; i < pts.size(); ++i) m.insert_point(pts[i], false);
  EXPECT_TRUE(m.check_delaunay());
  held.resize(m.triangle_slots());
  std::iota(held.begin(), held.end(), TriIndex{0});
  live = live_slots(m);
  ASSERT_LT(live.size(), held.size());
  DelaunayMesh::TestAccess::compact(m, held);
  std::vector<TriIndex> renumbered(live.size());
  std::iota(renumbered.begin(), renumbered.end(), TriIndex{0});
  EXPECT_EQ(held, renumbered);
  EXPECT_EQ(live_slots(m), live);
  EXPECT_TRUE(m.check_topology());
  EXPECT_TRUE(m.check_delaunay());
  EXPECT_TRUE(incidences_live(m));
  EXPECT_EQ(m.point_count(), pts.size());
}

}  // namespace
}  // namespace aero
