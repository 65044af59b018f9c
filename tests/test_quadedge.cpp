// Quad-edge algebra and the Guibas-Stolfi divide-and-conquer Delaunay
// triangulation: equivalence with the incremental kernel.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <random>

#include "delaunay/quadedge.hpp"  // aerolint: allow(public-api)
#include "delaunay/triangulator.hpp"
#include "geom/predicates.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

TEST(QuadEdgeAlgebra, RotSymInverse) {
  QuadEdge q;
  const auto e = q.make_edge(0, 1);
  EXPECT_EQ(QuadEdge::sym(QuadEdge::sym(e)), e);
  EXPECT_EQ(QuadEdge::rot(QuadEdge::rot_inv(e)), e);
  EXPECT_EQ(QuadEdge::rot(QuadEdge::rot(e)), QuadEdge::sym(e));
  EXPECT_EQ(q.org(e), 0);
  EXPECT_EQ(q.dest(e), 1);
  EXPECT_EQ(q.org(QuadEdge::sym(e)), 1);
}

TEST(QuadEdgeAlgebra, FreshEdgeRings) {
  QuadEdge q;
  const auto e = q.make_edge(0, 1);
  EXPECT_EQ(q.onext(e), e);                      // isolated origin ring
  EXPECT_EQ(q.onext(QuadEdge::sym(e)), QuadEdge::sym(e));
  EXPECT_EQ(q.lnext(e), QuadEdge::sym(e));       // both sides same face
}

TEST(QuadEdgeAlgebra, SpliceMergesRings) {
  QuadEdge q;
  const auto a = q.make_edge(0, 1);
  const auto b = q.make_edge(0, 2);
  q.splice(a, b);  // both leave vertex 0: one origin ring
  EXPECT_EQ(q.onext(a), b);
  EXPECT_EQ(q.onext(b), a);
  q.splice(a, b);  // splice is an involution
  EXPECT_EQ(q.onext(a), a);
}

TEST(QuadEdgeAlgebra, ConnectMakesTriangle) {
  QuadEdge q;
  const auto a = q.make_edge(0, 1);
  const auto b = q.make_edge(1, 2);
  q.splice(QuadEdge::sym(a), b);
  const auto c = q.connect(b, a);
  EXPECT_EQ(q.org(c), 2);
  EXPECT_EQ(q.dest(c), 0);
  // Left face of a is the triangle 0-1-2.
  EXPECT_EQ(q.lnext(a), b);
  EXPECT_EQ(q.lnext(b), c);
  EXPECT_EQ(q.lnext(c), a);
}

TEST(DcDelaunay, RejectsUnsortedInput) {
  EXPECT_THROW(dc_delaunay({{1, 0}, {0, 0}, {2, 2}}), std::invalid_argument);
  EXPECT_THROW(dc_delaunay({{0, 0}, {0, 0}, {2, 2}}), std::invalid_argument);
}

TEST(DcDelaunay, SmallCases) {
  EXPECT_TRUE(dc_delaunay({}).empty());
  EXPECT_TRUE(dc_delaunay({{0, 0}, {1, 1}}).empty());
  const auto tri = dc_delaunay({{0, 0}, {1, 2}, {2, 0}});
  ASSERT_EQ(tri.size(), 1u);
  EXPECT_TRUE(orient2d({0, 0}, {1, 2}, {2, 0}) != 0.0);
  EXPECT_TRUE(dc_delaunay({{0, 0}, {1, 1}, {2, 2}, {3, 3}}).empty());
}

using TriKey = std::array<std::pair<double, double>, 3>;

std::map<TriKey, int> coord_set(
    const std::vector<Vec2>& pts,
    const std::vector<std::array<VertIndex, 3>>& tris) {
  std::map<TriKey, int> out;
  for (const auto& t : tris) {
    TriKey k{{{pts[t[0]].x, pts[t[0]].y},
              {pts[t[1]].x, pts[t[1]].y},
              {pts[t[2]].x, pts[t[2]].y}}};
    std::sort(k.begin(), k.end());
    out[k]++;
  }
  return out;
}

struct DcParam {
  const char* shape;
  int n;
  unsigned seed;
};

// Without this gtest prints the struct's raw bytes, and with them the
// address of `shape`, into the listed test name; under ASLR that gave the
// ctest entry a different name on every build.
void PrintTo(const DcParam& p, std::ostream* os) {
  *os << '{' << p.shape << ',' << p.n << ',' << p.seed << '}';
}

class DcEquivalence : public ::testing::TestWithParam<DcParam> {
 protected:
  std::vector<Vec2> make_points() const {
    const auto& p = GetParam();
    const std::string shape = p.shape;
    std::vector<Vec2> pts;
    if (shape == "random") {
      std::mt19937_64 rng(p.seed);
      std::uniform_real_distribution<double> d(0.0, 1.0);
      for (int i = 0; i < p.n; ++i) pts.push_back({d(rng), d(rng)});
    } else if (shape == "grid") {
      const int side = static_cast<int>(std::sqrt(p.n));
      for (int i = 0; i < side; ++i) {
        for (int j = 0; j < side; ++j) pts.push_back({i * 0.5, j * 0.5});
      }
    } else if (shape == "circle") {
      for (int i = 0; i < p.n; ++i) {
        const double th = 2.0 * 3.141592653589793 * i / p.n;
        pts.push_back({std::cos(th), std::sin(th)});
      }
      pts.push_back({0.1, 0.2});
    } else if (shape == "anisotropic") {
      for (int i = 0; i < p.n / 6; ++i) {
        for (int j = 0; j < 6; ++j) pts.push_back({i * 0.01, j * 1e-5});
      }
    }
    std::sort(pts.begin(), pts.end(), LessXY{});
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    return pts;
  }
};

TEST_P(DcEquivalence, MatchesIncrementalKernel) {
  const std::vector<Vec2> pts = make_points();
  const auto dc = dc_delaunay(pts);

  // Every DC triangle must be CCW.
  for (const auto& t : dc) {
    EXPECT_GT(orient2d(pts[t[0]], pts[t[1]], pts[t[2]]), 0.0);
  }

  const auto inc = triangulate_points(pts, /*assume_sorted=*/true);
  EXPECT_EQ(dc.size(), inc.mesh.triangle_count());

  const std::string shape = GetParam().shape;
  if (shape == "random" || shape == "anisotropic") {
    // General position: the Delaunay triangulation is unique; compare the
    // triangle sets by coordinates.
    std::map<TriKey, int> inc_set;
    inc.mesh.for_each_triangle([&](TriIndex t) {
      const MeshTri& mt = inc.mesh.tri(t);
      TriKey k{{{inc.mesh.point(mt.v[0]).x, inc.mesh.point(mt.v[0]).y},
                {inc.mesh.point(mt.v[1]).x, inc.mesh.point(mt.v[1]).y},
                {inc.mesh.point(mt.v[2]).x, inc.mesh.point(mt.v[2]).y}}};
      std::sort(k.begin(), k.end());
      inc_set[k]++;
    });
    EXPECT_EQ(coord_set(pts, dc), inc_set);
  } else {
    // Degenerate (cocircular) inputs: both are valid Delaunay
    // triangulations; verify the DC one directly by empty circumcircles.
    for (const auto& t : dc) {
      for (std::size_t p = 0; p < pts.size(); ++p) {
        const auto v = static_cast<VertIndex>(p);
        if (v == t[0] || v == t[1] || v == t[2]) continue;
        EXPECT_LE(incircle(pts[t[0]], pts[t[1]], pts[t[2]], pts[p]), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, DcEquivalence,
    ::testing::Values(DcParam{"random", 500, 1}, DcParam{"random", 5000, 2},
                      DcParam{"grid", 900, 3}, DcParam{"circle", 128, 4},
                      DcParam{"anisotropic", 1200, 5}),
    [](const auto& info) {
      return std::string(info.param.shape) + "_" +
             std::to_string(info.param.n);
    });

TEST(DcDelaunay, TotalAreaMatchesHull) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<Vec2> pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  for (int i = 0; i < 2000; ++i) pts.push_back({d(rng), d(rng)});
  std::sort(pts.begin(), pts.end(), LessXY{});
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
  const auto dc = dc_delaunay(pts);
  double area = 0.0;
  for (const auto& t : dc) {
    area += 0.5 * (pts[t[1]] - pts[t[0]]).cross(pts[t[2]] - pts[t[0]]);
  }
  EXPECT_NEAR(area, 1.0, 1e-12);  // the hull is the unit square
}

}  // namespace
}  // namespace aero
