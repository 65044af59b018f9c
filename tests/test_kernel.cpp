// The fast-path Delaunay kernel: the reusable cavity arena, the semi-static
// predicate filters, locate-hint plumbing, and the refiner's threaded
// initial scan.
//
// These are the paths the tentpole perf work added; each test pins the
// property that makes the fast path safe to use (arena reuse correctness,
// sign-exactness of the filters, hint independence of locate).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "delaunay/mesh.hpp"          // aerolint: allow(public-api)
#include "delaunay/triangulator.hpp"
#include "geom/predicates.hpp"        // aerolint: allow(public-api)
#include "geom/predicates_fast.hpp"   // aerolint: allow(public-api)

namespace aero {
namespace {

int sgn(double v) { return (v > 0.0) - (v < 0.0); }

std::vector<Vec2> random_cloud(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<Vec2> pts(n);
  for (Vec2& p : pts) p = {u(rng), u(rng)};
  return pts;
}

/// Order-independent fingerprint: every live finite triangle as its three
/// vertex coordinates sorted lexicographically, the whole list sorted.
std::vector<std::array<double, 6>> canonical_triangles(
    const DelaunayMesh& mesh) {
  std::vector<std::array<double, 6>> tris;
  mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = mesh.tri(t);
    std::array<Vec2, 3> v = {mesh.point(mt.v[0]), mesh.point(mt.v[1]),
                             mesh.point(mt.v[2])};
    std::sort(v.begin(), v.end(), LessXY{});
    tris.push_back({v[0].x, v[0].y, v[1].x, v[1].y, v[2].x, v[2].y});
  });
  std::sort(tris.begin(), tris.end());
  return tris;
}

/// Flat copy of the vertex array in id order (the SoA arena has no direct
/// vector accessor; exact id-order equality is what the tests compare).
std::vector<Vec2> mesh_points(const DelaunayMesh& mesh) {
  std::vector<Vec2> pts(mesh.point_count());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    pts[i] = mesh.point(static_cast<VertIndex>(i));
  }
  return pts;
}

/// The serialized-bytes form of the fingerprint: two meshes are considered
/// bit-identical iff these byte strings match.
std::string canonical_bytes(const DelaunayMesh& mesh) {
  const auto tris = canonical_triangles(mesh);
  std::string bytes(tris.size() * sizeof(tris[0]), '\0');
  if (!tris.empty()) std::memcpy(bytes.data(), tris.data(), bytes.size());
  return bytes;
}

// --- Cavity arena reuse ----------------------------------------------------

TEST(KernelArena, ReuseAcrossTriangulations) {
  // One DelaunayMesh object reused for clouds of varying size: the grow-only
  // arena must reset correctly between runs (stale cavity marks or fan-start
  // entries would corrupt the next triangulation; under ASan this also
  // proves reuse leaks nothing).
  DelaunayMesh mesh;
  for (const std::size_t n : {1500u, 40u, 2500u, 3u, 800u}) {
    const std::vector<Vec2> pts = random_cloud(n, 1234 + n);
    std::vector<VertIndex> ids;
    ASSERT_TRUE(mesh.triangulate(pts, &ids));
    ASSERT_EQ(ids.size(), n);
    ASSERT_EQ(mesh.point_count(), n);  // random doubles: no duplicates
    ASSERT_TRUE(mesh.check_topology());
    ASSERT_TRUE(mesh.check_delaunay());
  }
}

TEST(KernelArena, RepeatedRunsAreBitIdentical) {
  // Reuse must not change results: a fresh mesh and a heavily reused one
  // produce the same triangulation of the same cloud.
  const std::vector<Vec2> pts = random_cloud(2000, 5);
  DelaunayMesh reused;
  for (int warm = 0; warm < 3; ++warm) {
    ASSERT_TRUE(reused.triangulate(random_cloud(500 + 300 * warm, warm)));
  }
  ASSERT_TRUE(reused.triangulate(pts));
  DelaunayMesh fresh;
  ASSERT_TRUE(fresh.triangulate(pts));
  EXPECT_EQ(canonical_triangles(reused), canonical_triangles(fresh));
  EXPECT_EQ(mesh_points(reused), mesh_points(fresh));
}

// --- Predicate filter fast path ---------------------------------------------

TEST(KernelFilter, AgreesWithExactOnRandomTriples) {
  // 10^6 uniformly random triples/quadruples: the filtered predicates must
  // report the same *sign* as the exact adaptive predicates on every one.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(-10.0, 10.0);
  for (int i = 0; i < 1000000; ++i) {
    const Vec2 a{u(rng), u(rng)}, b{u(rng), u(rng)}, c{u(rng), u(rng)};
    ASSERT_EQ(sgn(orient2d_fast(a, b, c)), sgn(orient2d(a, b, c)))
        << "triple " << i;
  }
  for (int i = 0; i < 1000000; ++i) {
    Vec2 a{u(rng), u(rng)}, b{u(rng), u(rng)}, c{u(rng), u(rng)};
    const Vec2 d{u(rng), u(rng)};
    if (orient2d(a, b, c) < 0.0) std::swap(b, c);  // incircle expects CCW
    ASSERT_EQ(sgn(incircle_fast(a, b, c, d)), sgn(incircle(a, b, c, d)))
        << "quad " << i;
  }
}

TEST(KernelFilter, AgreesWithExactOnAdversarialTriples) {
  // Near-degenerate orientation: c on the segment (a, b) (rounded), then
  // perturbed by a few ulps in each coordinate. These land inside the filter
  // bound, forcing the exact fallback; signs must still match.
  std::mt19937_64 rng(7777);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_int_distribution<int> ulps(-3, 3);
  const auto nudge = [&](double v) {
    int k = ulps(rng);
    while (k > 0) { v = std::nextafter(v, 2.0); --k; }
    while (k < 0) { v = std::nextafter(v, -2.0); ++k; }
    return v;
  };
  for (int i = 0; i < 200000; ++i) {
    const Vec2 a{u(rng), u(rng)};
    const Vec2 b{u(rng), u(rng)};
    const double t = 0.5 * (u(rng) + 1.0) * 2.0;  // [0, 2): beyond b too
    Vec2 c{a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)};
    c = {nudge(c.x), nudge(c.y)};
    ASSERT_EQ(sgn(orient2d_fast(a, b, c)), sgn(orient2d(a, b, c)))
        << "adversarial triple " << i;
  }
}

TEST(KernelFilter, AgreesWithExactOnAdversarialCocircular) {
  // Near-cocircular quadruples: four points of one circle (rounded to
  // doubles), perturbed by ulps. The semi-static and dynamic filter tiers
  // must both give up here and fall through to the exact predicate.
  std::mt19937_64 rng(31337);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> ang(0.0, 6.283185307179586);
  std::uniform_int_distribution<int> ulps(-2, 2);
  const auto nudge = [&](double v) {
    int k = ulps(rng);
    while (k > 0) { v = std::nextafter(v, 1e9); --k; }
    while (k < 0) { v = std::nextafter(v, -1e9); ++k; }
    return v;
  };
  for (int i = 0; i < 200000; ++i) {
    const Vec2 center{u(rng) * 100.0, u(rng) * 100.0};
    const double r = 0.1 + (u(rng) + 1.0) * 50.0;
    std::array<double, 4> theta{ang(rng), ang(rng), ang(rng), ang(rng)};
    std::sort(theta.begin(), theta.end());  // CCW order on the circle
    std::array<Vec2, 4> q;
    for (int k = 0; k < 4; ++k) {
      q[k] = {nudge(center.x + r * std::cos(theta[k])),
              nudge(center.y + r * std::sin(theta[k]))};
    }
    if (orient2d(q[0], q[1], q[2]) <= 0.0) continue;  // degenerate draw
    ASSERT_EQ(sgn(incircle_fast(q[0], q[1], q[2], q[3])),
              sgn(incircle(q[0], q[1], q[2], q[3])))
        << "adversarial quad " << i;
  }
}

TEST(KernelFilter, ExactDegeneraciesReportZero) {
  // Exactly representable degeneracies: the filter may not round a true zero
  // to either side.
  EXPECT_EQ(sgn(orient2d_fast({0, 0}, {1, 1}, {2, 2})), 0);
  EXPECT_EQ(sgn(orient2d_fast({-5, 3}, {-5, 7}, {-5, -11})), 0);
  // The unit square is exactly cocircular.
  EXPECT_EQ(sgn(incircle_fast({0, 0}, {1, 0}, {1, 1}, {0, 1})), 0);
  // And huge-coordinate collinear triples (stresses the error bound scale).
  EXPECT_EQ(sgn(orient2d_fast({1e18, 1e18}, {2e18, 2e18}, {3e18, 3e18})), 0);
}

// --- Locate hints ----------------------------------------------------------

TEST(KernelLocate, HintIndependence) {
  // locate() must return a triangle actually containing the query point no
  // matter which live triangle seeds the walk.
  const std::vector<Vec2> pts = random_cloud(1500, 11);
  const TriangulateResult r = triangulate_points(pts);
  const DelaunayMesh& mesh = r.mesh;

  std::vector<TriIndex> live;
  mesh.for_each_triangle([&](TriIndex t) { live.push_back(t); });
  ASSERT_FALSE(live.empty());

  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> u(-0.95, 0.95);
  std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
  const auto contains = [&](TriIndex t, Vec2 p) {
    const MeshTri& mt = mesh.tri(t);
    if (mt.is_ghost()) return false;
    const Vec2 a = mesh.point(mt.v[0]);
    const Vec2 b = mesh.point(mt.v[1]);
    const Vec2 c = mesh.point(mt.v[2]);
    return orient2d(a, b, p) >= 0.0 && orient2d(b, c, p) >= 0.0 &&
           orient2d(c, a, p) >= 0.0;
  };
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{u(rng), u(rng)};
    const LocateResult base = mesh.locate(p, kNoTri);
    const LocateResult hinted = mesh.locate(p, live[pick(rng)]);
    ASSERT_EQ(static_cast<int>(hinted.kind), static_cast<int>(base.kind));
    if (base.kind == LocateResult::Kind::kInside ||
        base.kind == LocateResult::Kind::kOnEdge) {
      EXPECT_TRUE(contains(hinted.tri, p));
      EXPECT_TRUE(contains(base.tri, p));
    }
  }
}

TEST(KernelLocate, HintAcrossConstrainedEdges) {
  // A constrained cross-wall through the domain: walks seeded on the far
  // side must cross the constrained edges and still land correctly (the
  // locate walk ignores constraint marks; only cavities respect them).
  Pslg pslg;
  pslg.points = {{-2, -2}, {2, -2}, {2, 2}, {-2, 2},   // outer box
                 {0, -2},  {0, 2}};                    // wall endpoints
  pslg.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}};
  // Interior points on both sides of the wall.
  std::mt19937_64 rng(55);
  std::uniform_real_distribution<double> u(-1.9, 1.9);
  for (int i = 0; i < 400; ++i) pslg.points.push_back({u(rng), u(rng)});

  TriangulateOptions topts;
  topts.constrained = true;
  topts.carve = false;
  const TriangulateResult r = triangulate(pslg, topts);
  const DelaunayMesh& mesh = r.mesh;
  ASSERT_TRUE(mesh.check_topology());

  // Collect live triangles strictly left / right of the wall.
  std::vector<TriIndex> left, right;
  mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = mesh.tri(t);
    double cx = 0.0;
    for (int k = 0; k < 3; ++k) cx += mesh.point(mt.v[k]).x / 3.0;
    (cx < 0.0 ? left : right).push_back(t);
  });
  ASSERT_FALSE(left.empty());
  ASSERT_FALSE(right.empty());

  std::uniform_int_distribution<std::size_t> pl(0, left.size() - 1);
  std::uniform_int_distribution<std::size_t> pr(0, right.size() - 1);
  for (int i = 0; i < 500; ++i) {
    // Query on one side, hint from the other: the walk must cross the wall.
    const bool query_left = (i % 2) == 0;
    const Vec2 p{query_left ? -1.0 + 0.4 * u(rng) : 1.0 + 0.4 * u(rng),
                 u(rng)};
    const TriIndex hint = query_left ? right[pr(rng)] : left[pl(rng)];
    const LocateResult base = mesh.locate(p, kNoTri);
    const LocateResult hinted = mesh.locate(p, hint);
    ASSERT_EQ(static_cast<int>(hinted.kind), static_cast<int>(base.kind));
    if (base.kind == LocateResult::Kind::kInside) {
      const MeshTri& mt = mesh.tri(hinted.tri);
      const Vec2 a = mesh.point(mt.v[0]);
      const Vec2 b = mesh.point(mt.v[1]);
      const Vec2 c = mesh.point(mt.v[2]);
      EXPECT_GE(orient2d(a, b, p), 0.0);
      EXPECT_GE(orient2d(b, c, p), 0.0);
      EXPECT_GE(orient2d(c, a, p), 0.0);
    }
  }
}

TEST(KernelLocate, InsertWithHintMatchesWithout) {
  // Bowyer-Watson with a hint must build the same mesh as without: insert
  // the same cloud twice, once hinting every insert with the previously
  // returned triangle neighborhood, once with kNoTri.
  const std::vector<Vec2> base = random_cloud(600, 77);
  const std::vector<Vec2> extra = random_cloud(200, 78);

  DelaunayMesh with_hint;
  ASSERT_TRUE(with_hint.triangulate(base));
  for (const Vec2 p : extra) {
    // Hint from a locate of the previous point's neighborhood: any valid
    // triangle is a legal hint, so use the last touched one via locate.
    const LocateResult loc = with_hint.locate(p, kNoTri);
    with_hint.insert_point(p, /*respect_constraints=*/false, loc.tri);
  }
  DelaunayMesh without;
  ASSERT_TRUE(without.triangulate(base));
  for (const Vec2 p : extra) {
    without.insert_point(p, /*respect_constraints=*/false, kNoTri);
  }
  ASSERT_TRUE(with_hint.check_delaunay());
  EXPECT_EQ(canonical_triangles(with_hint), canonical_triangles(without));
}

// --- Refiner's threaded initial scan ----------------------------------------

TEST(RefinerScan, ThreadsDoNotChangeTheMesh) {
  // The threaded initial scan must enqueue the identical work in the
  // identical order, so refinement with 1 and 4 threads yields the same
  // mesh (the scan only engages past 16384 triangles; the sizing below
  // pushes well beyond that).
  const auto refine_with = [](int threads) {
    Pslg pslg;
    pslg.points = {{-1, -1}, {1, -1}, {1, 1}, {-1, 1}};
    pslg.segments = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
    TriangulateOptions opts;
    opts.refine = true;
    opts.refine_options.radius_edge_bound = 1.4142135623730951;
    opts.refine_options.max_area = 2.0e-4;
    opts.refine_options.threads = threads;
    return triangulate(pslg, opts);
  };
  const TriangulateResult one = refine_with(1);
  const TriangulateResult four = refine_with(4);
  ASSERT_GT(one.mesh.triangle_count(), 16384u);
  EXPECT_EQ(mesh_points(one.mesh), mesh_points(four.mesh));
  EXPECT_EQ(canonical_bytes(one.mesh), canonical_bytes(four.mesh));
}

}  // namespace
}  // namespace aero
