// The projection-based (Blelloch) decomposition: the central correctness
// theorem of the parallel triangulation -- the union of circumcenter-owned
// triangles over all leaves equals the direct Delaunay triangulation of the
// whole cloud, exactly, triangle for triangle.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <random>

#include "hull/subdomain.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

using TriKey = std::array<std::pair<double, double>, 3>;

TriKey key_of(Vec2 a, Vec2 b, Vec2 c) {
  TriKey k{{{a.x, a.y}, {b.x, b.y}, {c.x, c.y}}};
  std::sort(k.begin(), k.end());
  return k;
}

std::map<TriKey, int> triangle_set(const DelaunayMesh& m, bool inside_only) {
  std::map<TriKey, int> out;
  m.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = m.tri(t);
    if (inside_only && !mt.inside) return;
    out[key_of(m.point(mt.v[0]), m.point(mt.v[1]), m.point(mt.v[2]))]++;
  });
  return out;
}

struct DecompParam {
  const char* shape;
  int n;
  std::size_t min_points;
  int max_level;
  unsigned seed;
};

// Without this gtest prints the struct's raw bytes, the address of `shape`
// and the padding included, into the listed test name, which then changes
// from build to build.
void PrintTo(const DecompParam& p, std::ostream* os) {
  *os << '{' << p.shape << ',' << p.n << ',' << p.min_points << ','
      << p.max_level << ',' << p.seed << '}';
}

class DecompositionSweep : public ::testing::TestWithParam<DecompParam> {
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
        for (int j = 0; j < side; ++j) {
          pts.push_back({i / static_cast<double>(side),
                         j / static_cast<double>(side)});
        }
      }
    } else if (shape == "annulus") {
      const int ns = p.n / 10;
      for (int i = 0; i < ns; ++i) {
        const double th = 2 * 3.14159265358979323846 * i / ns;
        for (int l = 0; l < 10; ++l) {
          const double r = 1.0 + 0.02 * (std::pow(1.3, l) - 1.0);
          pts.push_back({r * std::cos(th), 0.6 * r * std::sin(th)});
        }
      }
    } else if (shape == "skewed") {
      // Strongly anisotropic extent: forces alternating cut axes.
      std::mt19937_64 rng(p.seed);
      std::uniform_real_distribution<double> d(0.0, 1.0);
      for (int i = 0; i < p.n; ++i) pts.push_back({d(rng) * 100.0, d(rng)});
    }
    return pts;
  }
};

TEST_P(DecompositionSweep, UnionEqualsDirectTriangulation) {
  const auto& param = GetParam();
  const std::vector<Vec2> pts = make_points();

  const auto direct = triangulate_points(pts);
  const auto expected = triangle_set(direct.mesh, false);

  Subdomain root = make_root_subdomain(pts);
  DecomposeOptions opts{param.min_points, param.max_level};
  const auto leaves = decompose(std::move(root), opts);
  EXPECT_GT(leaves.size(), 1u);

  std::map<TriKey, int> got;
  for (const auto& leaf : leaves) {
    EXPECT_TRUE(leaf.final_);
    EXPECT_TRUE(leaf.ysorted.empty());  // dropped on finalize
    const auto r = triangulate_subdomain(leaf);
    for (const auto& [k, c] : triangle_set(r.mesh, true)) got[k] += c;
  }

  std::size_t missing = 0, extra = 0, dup = 0;
  for (const auto& [k, c] : expected) {
    if (!got.count(k)) ++missing;
  }
  for (const auto& [k, c] : got) {
    if (c > 1) ++dup;
    if (!expected.count(k)) ++extra;
  }
  EXPECT_EQ(missing, 0u);
  EXPECT_EQ(extra, 0u);
  EXPECT_EQ(dup, 0u);
  EXPECT_EQ(got.size(), expected.size());
}

INSTANTIATE_TEST_SUITE_P(
    Clouds, DecompositionSweep,
    ::testing::Values(
        DecompParam{"random", 2000, 100, 10, 1},
        DecompParam{"random", 2000, 100, 10, 2},
        DecompParam{"random", 5000, 50, 12, 3},   // deep recursion
        DecompParam{"grid", 1600, 100, 10, 4},    // full degeneracy
        DecompParam{"annulus", 2000, 150, 10, 5}, // hole + structure
        DecompParam{"skewed", 2000, 100, 10, 6}),
    [](const auto& info) {
      return std::string(info.param.shape) + "_" +
             std::to_string(info.param.n) + "_" +
             std::to_string(info.param.seed);
    });

TEST(Subdomain, BboxIsConstantTimeFromSortedArrays) {
  Subdomain s = make_root_subdomain({{3, 1}, {0, 5}, {7, 2}, {4, 9}});
  const BBox2 box = s.bbox();
  EXPECT_EQ(box.lo, (Vec2{0, 1}));
  EXPECT_EQ(box.hi, (Vec2{7, 9}));
}

TEST(Subdomain, MakeRootDeduplicates) {
  Subdomain s = make_root_subdomain({{1, 1}, {0, 0}, {1, 1}, {0, 0}});
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(std::is_sorted(s.xsorted.begin(), s.xsorted.end(), LessXY{}));
  EXPECT_TRUE(std::is_sorted(s.ysorted.begin(), s.ysorted.end(), LessYX{}));
}

TEST(Subdomain, SplitMaintainsSortedArrays) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 1000; ++i) pts.push_back({d(rng), d(rng)});
  Subdomain root = make_root_subdomain(pts);
  auto [l, r] = split_subdomain(std::move(root));
  for (const Subdomain* s : {&l, &r}) {
    EXPECT_TRUE(
        std::is_sorted(s->xsorted.begin(), s->xsorted.end(), LessXY{}));
    EXPECT_TRUE(
        std::is_sorted(s->ysorted.begin(), s->ysorted.end(), LessYX{}));
    EXPECT_EQ(s->xsorted.size(), s->ysorted.size());
    EXPECT_EQ(s->cuts.size(), 1u);
  }
  EXPECT_TRUE(l.cuts[0].keep_left);
  EXPECT_FALSE(r.cuts[0].keep_left);
  // Shared path vertices mean the sizes sum to >= the parent size.
  EXPECT_GE(l.size() + r.size(), 1000u);
}

TEST(Subdomain, CutAxisFollowsShortestBboxEdge) {
  // Wide cloud: vertical median line (cut of the x extent).
  std::vector<Vec2> wide;
  std::mt19937_64 rng(10);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  for (int i = 0; i < 500; ++i) wide.push_back({d(rng) * 10.0, d(rng)});
  Subdomain root = make_root_subdomain(wide);
  const std::size_t n = root.size();
  auto [l, r] = split_subdomain(std::move(root));
  EXPECT_EQ(l.cuts[0].axis, CutAxis::kVertical);
  // The median split halves the point count (up to shared path vertices;
  // bbox widths can exceed half because path endpoints are u-extreme points
  // of the whole cloud).
  EXPECT_NEAR(static_cast<double>(l.size()), n / 2.0, n * 0.2);
  EXPECT_NEAR(static_cast<double>(r.size()), n / 2.0, n * 0.2);
}

TEST(Subdomain, DegenerateCollinearCloudFinalizesWhole) {
  std::vector<Vec2> line;
  for (int i = 0; i < 100; ++i) line.push_back({i * 1.0, 0.0});
  Subdomain root = make_root_subdomain(line);
  DecomposeOptions opts{10, 10};
  const auto leaves = decompose(std::move(root), opts);
  // No valid 2D triangulation exists; all that matters is termination with
  // every point still present somewhere.
  ASSERT_GE(leaves.size(), 1u);
  std::size_t total = 0;
  for (const auto& leaf : leaves) total += leaf.size();
  EXPECT_GE(total, 100u);
}

TEST(Subdomain, DcKernelMatchesIncrementalOwnership) {
  // The production path triangulates leaves with the divide-and-conquer
  // kernel; its owned-triangle set must equal the incremental kernel's.
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> d(0.0, 1.0);
  std::vector<Vec2> pts;
  for (int i = 0; i < 3000; ++i) pts.push_back({d(rng), d(rng)});
  Subdomain root = make_root_subdomain(pts);
  const auto leaves = decompose(std::move(root), {300, 10});
  ASSERT_GT(leaves.size(), 2u);
  for (const auto& leaf : leaves) {
    std::map<TriKey, int> inc_owned;
    const auto r = triangulate_subdomain(leaf);
    for (const auto& [k, c] : triangle_set(r.mesh, true)) inc_owned[k] += c;
    std::map<TriKey, int> dc_owned;
    for (const auto& t : triangulate_subdomain_dc(leaf)) {
      dc_owned[key_of(t[0], t[1], t[2])]++;
    }
    EXPECT_EQ(dc_owned, inc_owned);
  }
}

TEST(Subdomain, CostIsTriangleEstimate) {
  Subdomain s = make_root_subdomain({{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(s.cost(), 8.0);
}

}  // namespace
}  // namespace aero
