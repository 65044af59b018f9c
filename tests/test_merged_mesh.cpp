// Merged mesh assembly: point welding, carving, ring restriction, boundary
// extraction, conformity audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/merged_mesh.hpp"
#include "core/mesh_view.hpp"
#include "delaunay/triangulator.hpp"
#include "inviscid/decouple.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

TEST(MergedMesh, WeldsIdenticalPoints) {
  MergedMesh m;
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  m.add_triangle({1, 0}, {1, 1}, {0, 1});
  EXPECT_EQ(m.point_count(), 4u);  // shared edge endpoints welded
  EXPECT_EQ(m.triangle_count(), 2u);
  const auto conf = m.check_conformity();
  EXPECT_TRUE(conf.manifold);
  EXPECT_EQ(conf.interior_edges, 1u);
  EXPECT_EQ(conf.boundary_edges, 4u);
  EXPECT_TRUE(conf.orientation_ok);
}

TEST(MergedMesh, AppendFromDelaunayMesh) {
  const auto r = triangulate_points({{0, 0}, {2, 0}, {1, 2}, {1, 0.5}});
  MergedMesh m;
  m.append(r.mesh);
  EXPECT_EQ(m.triangle_count(), r.mesh.triangle_count());
  EXPECT_TRUE(m.check_conformity().manifold);
}

TEST(MergedMesh, AppendWeldsOnlyTheSharedArm) {
  // Two '+' children sharing an arm, refined independently: only their
  // border points can coincide, and only the shared arm's actually do. The
  // Steiner points take the next ids without the interner, and the ids are
  // the ones welding every point gives (the parsed pieces below).
  InviscidDomain d;
  d.inner = BBox2{{-1, -1}, {1, 1}};
  d.outer = BBox2{{-8, -8}, {8, 8}};
  d.sizing = GradedSizing{d.inner, 0.08, 0.3};
  const std::vector<InviscidSubdomain> kids =
      plus_split(initial_quadrants(d)[0], d.sizing);
  ASSERT_EQ(kids.size(), 4u);
  // Child i's border runs out along arm i and back along arm i + 1.
  const InviscidSubdomain& a = kids[0];
  const InviscidSubdomain& b = kids[1];
  std::set<std::pair<double, double>> border_a, border_b;
  for (const Vec2 p : a.border) border_a.insert({p.x, p.y});
  for (const Vec2 p : b.border) border_b.insert({p.x, p.y});
  std::size_t shared = 0;
  for (const auto& p : border_a) shared += border_b.count(p);
  ASSERT_GE(shared, 3u);  // the centre, the arm's end, points between

  const MeshView pa = make_piece(refine_subdomain(a, d.sizing).mesh);
  const MeshView pb = make_piece(refine_subdomain(b, d.sizing).mesh);
  ASSERT_GT(pa.point_count(), border_a.size());  // refinement added points
  MergedMesh m;
  m.append(pa);
  m.append(pb);
  EXPECT_EQ(m.point_count(), pa.point_count() + pb.point_count() - shared);
  EXPECT_EQ(m.interned_point_count(),
            border_a.size() + border_b.size() - shared);
  EXPECT_EQ(m.triangle_count(), pa.triangle_count() + pb.triangle_count());
  const MergedMesh::Conformity conf = m.check_conformity();
  EXPECT_TRUE(conf.manifold);
  EXPECT_TRUE(conf.orientation_ok);

  // Parsed pieces carry no weld flags, so every point is interned.
  MeshView qa, qb;
  ASSERT_EQ(MeshView::parse(pa.serialize(), qa), MeshBlobStatus::kOk);
  ASSERT_EQ(MeshView::parse(pb.serialize(), qb), MeshBlobStatus::kOk);
  MergedMesh all;
  all.append(qa);
  all.append(qb);
  EXPECT_EQ(all.interned_point_count(), all.point_count());
  EXPECT_TRUE(MeshView(all).serialize() == MeshView(m).serialize());
}

TEST(MergedMesh, AppendWeldsTheSplitPointsOfASharedSegment) {
  // Refinement that may split segments puts Steiner points on the shared
  // side x = 1 of two unit squares; the right square takes them as input
  // vertices. They must weld like any border point, while the left
  // square's interior Steiner points still take the next ids.
  TriangulateOptions refine;
  refine.refine = true;
  refine.refine_options.radius_edge_bound = 1.4142135623730951;
  refine.refine_options.max_area = 0.005;
  Pslg left;
  left.points = {{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  left.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
  const MeshView pa = make_piece(triangulate(left, refine).mesh);

  std::size_t border = 0;
  Pslg right;
  for (std::uint32_t i = 0; i < pa.point_count(); ++i) {
    const Vec2 p = pa.point(i);
    const bool on_border = p.x == 0 || p.x == 1 || p.y == 0 || p.y == 1;
    EXPECT_EQ(pa.welds(i), on_border) << p.x << " " << p.y;
    border += on_border;
    if (p.x == 1) right.points.push_back(p);
  }
  std::sort(right.points.begin(), right.points.end(),
            [](Vec2 a, Vec2 b) { return a.y < b.y; });
  const auto shared = static_cast<std::uint32_t>(right.points.size());
  ASSERT_GT(shared, 2u);  // the side was split
  ASSERT_GT(pa.point_count(), border);  // and the interior refined
  right.points.push_back({2, 1});
  right.points.push_back({2, 0});
  for (std::uint32_t i = 0; i <= shared + 1; ++i) {
    right.segments.push_back({i, (i + 1) % (shared + 2)});
  }
  const MeshView pb = make_piece(triangulate(right, {}).mesh);
  ASSERT_EQ(pb.point_count(), shared + 2);

  MergedMesh m;
  m.append(pa);
  m.append(pb);
  EXPECT_EQ(m.point_count(), pa.point_count() + 2);
  EXPECT_EQ(m.interned_point_count(), border + 2);
  const MergedMesh::Conformity conf = m.check_conformity();
  EXPECT_TRUE(conf.manifold);
  EXPECT_TRUE(conf.orientation_ok);
  EXPECT_EQ(conf.boundary_edges, border - shared + 4);

  MeshView qa, qb;
  ASSERT_EQ(MeshView::parse(pa.serialize(), qa), MeshBlobStatus::kOk);
  ASSERT_EQ(MeshView::parse(pb.serialize(), qb), MeshBlobStatus::kOk);
  MergedMesh all;
  all.append(qa);
  all.append(qb);
  EXPECT_TRUE(MeshView(all).serialize() == MeshView(m).serialize());
}

TEST(MergedMesh, DetectsNonManifoldOverlap) {
  MergedMesh m;
  m.add_triangle({0, 0}, {1, 0}, {0, 1});
  m.add_triangle({1, 0}, {1, 1}, {0, 1});
  m.add_triangle({1, 0}, {2, 1}, {0, 1});  // third triangle on edge (1,0)-(0,1)
  const auto conf = m.check_conformity();
  EXPECT_FALSE(conf.manifold);
  EXPECT_EQ(conf.nonmanifold_edges, 1u);
}

TEST(MergedMesh, DetectsBadOrientation) {
  MergedMesh m;
  m.add_triangle({0, 0}, {0, 1}, {1, 0});  // clockwise
  EXPECT_FALSE(m.check_conformity().orientation_ok);
}

MergedMesh grid_mesh(int n) {
  std::vector<Vec2> pts;
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) pts.push_back({i * 1.0, j * 1.0});
  }
  const auto r = triangulate_points(pts);
  MergedMesh m;
  m.append(r.mesh);
  return m;
}

TEST(MergedMesh, CarveRemovesEnclosedRegion) {
  MergedMesh m = grid_mesh(4);
  const std::size_t before = m.triangle_count();
  // Barrier: the unit square [1,3]x[1,3] boundary along grid edges.
  std::vector<std::pair<Vec2, Vec2>> barrier;
  for (int i = 1; i < 3; ++i) {
    barrier.push_back({{static_cast<double>(i), 1}, {static_cast<double>(i + 1), 1}});
    barrier.push_back({{static_cast<double>(i), 3}, {static_cast<double>(i + 1), 3}});
    barrier.push_back({{1, static_cast<double>(i)}, {1, static_cast<double>(i + 1)}});
    barrier.push_back({{3, static_cast<double>(i)}, {3, static_cast<double>(i + 1)}});
  }
  m.carve(barrier, {{2.0, 2.0}});
  // The 2x2 interior block (8 triangles) is gone.
  EXPECT_EQ(m.triangle_count(), before - 8);
  EXPECT_TRUE(m.check_conformity().manifold);
}

TEST(MergedMesh, KeepOnlyIsComplementOfCarve) {
  MergedMesh a = grid_mesh(4);
  MergedMesh b = grid_mesh(4);
  std::vector<std::pair<Vec2, Vec2>> barrier;
  for (int i = 1; i < 3; ++i) {
    barrier.push_back({{static_cast<double>(i), 1}, {static_cast<double>(i + 1), 1}});
    barrier.push_back({{static_cast<double>(i), 3}, {static_cast<double>(i + 1), 3}});
    barrier.push_back({{1, static_cast<double>(i)}, {1, static_cast<double>(i + 1)}});
    barrier.push_back({{3, static_cast<double>(i)}, {3, static_cast<double>(i + 1)}});
  }
  const std::size_t total = a.triangle_count();
  a.carve(barrier, {{2.0, 2.0}});
  b.keep_only(barrier, {{2.0, 2.0}});
  EXPECT_EQ(a.triangle_count() + b.triangle_count(), total);
  EXPECT_EQ(b.triangle_count(), 8u);
}

TEST(MergedMesh, CarveWithSeedOutsideMeshIsNoOp) {
  MergedMesh m = grid_mesh(2);
  const std::size_t before = m.triangle_count();
  m.carve({}, {{100.0, 100.0}});
  EXPECT_EQ(m.triangle_count(), before);
}

TEST(MergedMesh, BoundaryEdgesOfGrid) {
  MergedMesh m = grid_mesh(3);
  const auto boundary = m.boundary_edges({});
  EXPECT_EQ(boundary.size(), 12u);  // 4 sides x 3 edges
  // Excluding one side's edges removes them from the report.
  std::vector<std::pair<Vec2, Vec2>> exclude;
  for (int i = 0; i < 3; ++i) {
    exclude.push_back({{static_cast<double>(i), 0}, {static_cast<double>(i + 1), 0}});
  }
  EXPECT_EQ(m.boundary_edges(exclude).size(), 9u);
}

TEST(MergedMesh, MissingEdges) {
  MergedMesh m = grid_mesh(2);
  const std::vector<std::pair<Vec2, Vec2>> candidates = {
      {{0, 0}, {1, 0}},    // present
      {{0, 0}, {2, 2}},    // absent (not a grid edge)
      {{5, 5}, {6, 6}},    // endpoints not even in the mesh
  };
  const auto missing = m.missing_edges(candidates);
  ASSERT_EQ(missing.size(), 2u);
}

TEST(MergedStats, GridValues) {
  MergedMesh m = grid_mesh(4);
  const MergedStats st = compute_stats(m);
  EXPECT_EQ(st.triangles, 32u);
  EXPECT_EQ(st.vertices, 25u);
  EXPECT_NEAR(st.total_area, 16.0, 1e-12);
  EXPECT_NEAR(st.min_angle_deg, 45.0, 1e-9);
  EXPECT_NEAR(st.max_angle_deg, 90.0, 1e-9);
}

}  // namespace
}  // namespace aero
