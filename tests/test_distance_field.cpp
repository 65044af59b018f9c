// Distance-field grid and the body-overlap safety purge.

#include <gtest/gtest.h>

#include <cmath>

#include "core/crc32.hpp"  // aerolint: allow(public-api)
#include "core/distance_field.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "core/mesh_view.hpp"
#include "geom/segment.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

TEST(DistanceField, ZeroOnTheLoopAndGrowsAway) {
  const std::vector<std::vector<Vec2>> loops{
      {{0, 0}, {1, 0}, {1, 1}, {0, 1}}};
  const DistanceField field(loops, BBox2{{-2, -2}, {3, 3}}, 256);
  // On the boundary: ~0 (within a cell).
  EXPECT_LT(field.distance({0.5, 0.0}), 0.05);
  EXPECT_LT(field.distance({1.0, 0.5}), 0.05);
  // Center of the square: ~0.5 from the nearest side.
  EXPECT_NEAR(field.distance({0.5, 0.5}), 0.5, 0.08);
  // Outside: approximately the true clearance.
  EXPECT_NEAR(field.distance({2.0, 0.5}), 1.0, 0.12);
  EXPECT_NEAR(field.distance({-1.0, -1.0}), std::sqrt(2.0), 0.2);
}

TEST(DistanceField, ChamferErrorBounded) {
  // The 2-pass chamfer with the sqrt(2) diagonal weight over-estimates the
  // Euclidean distance by at most ~8%.
  const std::vector<std::vector<Vec2>> loops{{{0, 0}, {0.0, 1.0}}};
  const DistanceField field(loops, BBox2{{-3, -3}, {3, 3}}, 512);
  for (double x = 0.2; x < 2.5; x += 0.3) {
    for (double y = -1.5; y < 1.5; y += 0.4) {
      const double exact =
          y >= 0.0 && y <= 1.0
              ? std::fabs(x)
              : std::hypot(x, y < 0 ? -y : y - 1.0);
      const double approx = field.distance({x, y});
      EXPECT_NEAR(approx, exact, 0.09 * exact + 0.04) << x << "," << y;
    }
  }
}

TEST(DistanceField, ClampsOutsideCoverage) {
  const std::vector<std::vector<Vec2>> loops{{{0, 0}, {1, 0}}};
  const DistanceField field(loops, BBox2{{-1, -1}, {2, 1}}, 128);
  // Far outside the grid: returns the boundary cell's value, no crash.
  EXPECT_GT(field.distance({100.0, 100.0}), 0.5);
}

TEST(RestrictToRing, MeshNeverOverlapsBodies) {
  // The cove geometry is exactly the case where nominal surface edges are
  // absent from the Delaunay triangulation and the flood leaks. At 120
  // points cove edges are missing, so the body purge must act on a leaky
  // element; at 240 none is, so it runs nowhere. The counts and CRCs were
  // read from a build that purged every element, so a rule that skips a
  // leaky element fails the 120 pin.
  struct Case {
    int points;
    std::size_t triangles;
    std::uint32_t crc;
  };
  for (const Case pin : {Case{120, 11361, 0x883341c8u},
                         Case{240, 14958, 0x10f04ff1u}}) {
    SCOPED_TRACE(pin.points);
    BoundaryLayerOptions opts;
    opts.growth = {GrowthKind::kGeometric, 5e-4, 1.25};
    opts.max_layers = 30;
    const BoundaryLayer bl =
        build_boundary_layer(make_three_element(pin.points), opts);

    MergedMesh mesh;
    std::size_t subdomains = 0;
    triangulate_boundary_layer(bl, {.min_points = 1000, .max_level = 10},
                               mesh, &subdomains);

    // No kept triangle's centroid may be inside any element.
    std::size_t inside_body = 0;
    mesh.for_each_triangle([&](Vec2 a, Vec2 b, Vec2 c) {
      const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
      for (const auto& surface : bl.surfaces) {
        if (point_in_polygon(centroid, surface)) ++inside_body;
      }
    });
    EXPECT_EQ(inside_body, 0u);
    EXPECT_EQ(mesh.triangle_count(), pin.triangles);
    const std::vector<std::uint8_t> blob = MeshView(mesh).serialize();
    EXPECT_EQ(crc32(blob.data(), blob.size()), pin.crc);
  }
}

TEST(RestrictToRing, KeepsTheAnisotropicLayer) {
  BoundaryLayerOptions opts;
  opts.growth = {GrowthKind::kGeometric, 5e-4, 1.25};
  opts.max_layers = 30;
  const BoundaryLayer bl = build_boundary_layer(make_naca0012(200), opts);
  MergedMesh mesh;
  triangulate_boundary_layer(bl, {.min_points = 1000, .max_level = 10}, mesh,
                             nullptr);
  // The kept ring has far more vertices than the surface alone (the layer
  // points survive).
  EXPECT_GT(mesh.point_count(), bl.surfaces[0].size());
  // The ring's area is small (thin layer) but positive.
  const MergedStats st = compute_stats(mesh);
  EXPECT_GT(st.total_area, 0.0);
  EXPECT_LT(st.total_area, 1.0);  // much less than the unit-chord bbox
  EXPECT_GT(st.max_aspect_ratio, 8.0);  // anisotropic content survived
}

}  // namespace
}  // namespace aero
