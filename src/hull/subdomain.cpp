#include "hull/subdomain.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "delaunay/quadedge.hpp"
#include "hull/monotone_chain.hpp"

namespace aero {

BBox2 Subdomain::bbox() const {
  assert(!xsorted.empty() && !ysorted.empty());
  return BBox2{{xsorted.front().x, ysorted.front().y},
               {xsorted.back().x, ysorted.back().y}};
}

void Subdomain::finalize() {
  final_ = true;
  ysorted.clear();
  ysorted.shrink_to_fit();
}

namespace {

/// True if decomposition of `s` should stop under `opts`.
bool sufficiently_decomposed(const Subdomain& s, const DecomposeOptions& opts) {
  if (s.size() < std::max<std::size_t>(opts.min_points, 4)) return true;
  if (s.level >= opts.max_level) return true;
  const BBox2 box = s.bbox();
  if (box.width() == 0.0 && box.height() == 0.0) return true;  // degenerate
  return false;
}

}  // namespace

std::pair<Subdomain, Subdomain> split_subdomain(Subdomain&& parent,
                                                int force_axis) {
  const std::size_t n = parent.size();
  assert(n >= 4);
  const BBox2 box = parent.bbox();
  // Median line perpendicular to the longest bbox extent, i.e. the cut axis
  // is parallel to the shortest bbox edge: avoids long, skinny subdomains,
  // which are more expensive to triangulate. force_axis overrides (ablation).
  const CutAxis axis =
      force_axis >= 0 ? static_cast<CutAxis>(force_axis)
      : box.width() >= box.height() ? CutAxis::kVertical
                                    : CutAxis::kHorizontal;
  const bool vertical = axis == CutAxis::kVertical;
  const std::vector<Vec2>& primary = vertical ? parent.xsorted : parent.ysorted;
  const std::vector<Vec2>& secondary =
      vertical ? parent.ysorted : parent.xsorted;
  const std::size_t mid = n / 2;
  const Vec2 median = primary[mid];
  const double line = vertical ? median.x : median.y;

  // "p belongs to the left/below child" — identical to "p precedes the
  // median vertex in the primary sort", so the primary array can be split by
  // a low-level copy at the median index.
  const auto in_left = [&](Vec2 p) {
    return vertical ? LessXY{}(p, median) : LessYX{}(p, median);
  };

  // --- Dividing Delaunay path -------------------------------------------
  std::vector<std::uint32_t> hull = lifted_lower_hull(secondary, median, axis);
  // A trailing chain edge between two equal-u points is an artifact of the
  // tie (a "vertical" lifted edge certifies no empty circle): the true path
  // terminates at the first (minimum-w) point of the final equal-u run.
  while (hull.size() >= 2 &&
         lifted_u(secondary[hull[hull.size() - 2]], axis) ==
             lifted_u(secondary[hull.back()], axis)) {
    hull.pop_back();
  }

  // Points lying exactly on a chain edge in lifted space (cocircular about a
  // median-line-centered circle) are hull points too and must be shared, or
  // the two children could resolve the degenerate neighborhood differently.
  std::vector<std::uint8_t> is_path(n, 0);
  for (const std::uint32_t h : hull) is_path[h] = 1;
  {
    std::size_t k = 0;  // current chain segment (hull[k], hull[k+1])
    for (std::uint32_t i = 0; i < n; ++i) {
      if (is_path[i]) continue;
      const double ui = lifted_u(secondary[i], axis);
      while (k + 2 < hull.size() &&
             lifted_u(secondary[hull[k + 1]], axis) < ui) {
        ++k;
      }
      for (std::size_t seg = k;
           seg + 1 < hull.size() && lifted_u(secondary[hull[seg]], axis) <= ui;
           ++seg) {
        const Vec2 a = secondary[hull[seg]];
        const Vec2 b = secondary[hull[seg + 1]];
        if (lifted_u(b, axis) < ui) continue;
        // Same-u as an endpoint means coincident or off the open segment.
        if (lifted_u(a, axis) == ui || lifted_u(b, axis) == ui) continue;
        if (lifted_turn(median, a, secondary[i], b, axis) != 0) continue;
        is_path[i] = 1;
        break;
      }
    }
  }

  std::unordered_set<Vec2, Vec2Hash> path_set;
  path_set.reserve(2 * hull.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (is_path[i]) path_set.insert(secondary[i]);
  }

  // --- Build the children -------------------------------------------------
  Subdomain left, right;
  left.level = right.level = parent.level + 1;
  left.cuts = parent.cuts;
  left.cuts.push_back({axis, line, true});
  right.cuts = parent.cuts;
  right.cuts.push_back({axis, line, false});

  // Path vertices that live in the other half, sorted for the primary order.
  // Collected by index scan (not by iterating path_set, whose hash order
  // varies); `secondary` is sorted, so duplicates are adjacent and one
  // std::unique pass reproduces the set's dedup exactly.
  std::vector<Vec2> path_pts;
  path_pts.reserve(path_set.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (is_path[i]) path_pts.push_back(secondary[i]);
  }
  path_pts.erase(std::unique(path_pts.begin(), path_pts.end()),
                 path_pts.end());
  std::vector<Vec2> path_in_left, path_in_right;
  for (const Vec2 p : path_pts) {
    (in_left(p) ? path_in_left : path_in_right).push_back(p);
  }
  const auto primary_less = [&](Vec2 a, Vec2 b) {
    return vertical ? LessXY{}(a, b) : LessYX{}(a, b);
  };
  std::sort(path_in_left.begin(), path_in_left.end(), primary_less);
  std::sort(path_in_right.begin(), path_in_right.end(), primary_less);

  // Secondary-sorted arrays: one stable pass keeps both children sorted;
  // path vertices are emitted to both sides.
  std::vector<Vec2> left_secondary, right_secondary;
  left_secondary.reserve(mid + path_set.size());
  right_secondary.reserve(n - mid + path_set.size());
  for (const Vec2 p : secondary) {
    const bool shared = path_set.contains(p);
    if (in_left(p)) {
      left_secondary.push_back(p);
      if (shared) right_secondary.push_back(p);
    } else {
      right_secondary.push_back(p);
      if (shared) left_secondary.push_back(p);
    }
  }

  // Primary-sorted arrays, with the paper's storage trick: the left child
  // reuses the parent's array truncated at the median index with the
  // right-half path copies appended (all of which sort after the median);
  // the right child takes the left-half path copies followed by the tail.
  std::vector<Vec2> right_primary;
  right_primary.reserve(n - mid + path_in_left.size());
  right_primary.insert(right_primary.end(), path_in_left.begin(),
                       path_in_left.end());
  right_primary.insert(right_primary.end(),
                       primary.begin() + static_cast<std::ptrdiff_t>(mid),
                       primary.end());

  std::vector<Vec2> left_primary =
      std::move(vertical ? parent.xsorted : parent.ysorted);
  left_primary.resize(mid);
  left_primary.insert(left_primary.end(), path_in_right.begin(),
                      path_in_right.end());

  if (vertical) {
    left.xsorted = std::move(left_primary);
    left.ysorted = std::move(left_secondary);
    right.xsorted = std::move(right_primary);
    right.ysorted = std::move(right_secondary);
  } else {
    left.ysorted = std::move(left_primary);
    left.xsorted = std::move(left_secondary);
    right.ysorted = std::move(right_primary);
    right.xsorted = std::move(right_secondary);
  }

  return {std::move(left), std::move(right)};
}

std::vector<Subdomain> decompose_step(Subdomain& s,
                                      const DecomposeOptions& opts) {
  if (!sufficiently_decomposed(s, opts)) {
    const std::size_t parent_size = s.size();
    auto [l, r] = split_subdomain(std::move(s), opts.force_axis);
    if (l.size() < parent_size && r.size() < parent_size) {
      std::vector<Subdomain> children;
      children.push_back(std::move(l));
      children.push_back(std::move(r));
      return children;
    }
    // Degenerate geometry (e.g. all points collinear): the split cannot
    // make progress; keep the piece whole.
    s = l.size() >= parent_size ? std::move(l) : std::move(r);
    s.level -= 1;
    s.cuts.pop_back();
  }
  s.finalize();
  return {};
}

std::vector<Subdomain> decompose(Subdomain root, const DecomposeOptions& opts) {
  std::vector<Subdomain> leaves;
  std::vector<Subdomain> stack;
  stack.push_back(std::move(root));
  while (!stack.empty()) {
    Subdomain s = std::move(stack.back());
    stack.pop_back();
    std::vector<Subdomain> children = decompose_step(s, opts);
    if (children.empty()) leaves.push_back(std::move(s));
    for (Subdomain& c : children) stack.push_back(std::move(c));
  }
  return leaves;
}

bool owns_triangle(const Subdomain& s, Vec2 a, Vec2 b, Vec2 c) {
  for (const Cut& cut : s.cuts) {
    // Ties (circumcenter exactly on a median line) go to the left/below
    // child -- the same rule in every subdomain, so each degenerate triangle
    // is owned exactly once.
    const int side = circumcenter_side(a, b, c, cut.axis, cut.line);
    if ((side <= 0) != cut.keep_left) return false;
  }
  return true;
}

TriangulateResult triangulate_subdomain(const Subdomain& s) {
  TriangulateResult result = triangulate_points(s.xsorted,
                                                /*assume_sorted=*/true);
  DelaunayMesh& mesh = result.mesh;
  mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri& mt = mesh.tri(t);
    const bool owned = owns_triangle(s, mesh.point(mt.v[0]),
                                     mesh.point(mt.v[1]), mesh.point(mt.v[2]));
    mesh.set_inside(t, owned);
  });
  return result;
}

std::vector<std::array<std::uint32_t, 3>> owned_triangles_dc(
    const Subdomain& s) {
  std::vector<std::array<std::uint32_t, 3>> owned;
  const std::vector<Vec2>& pts = s.xsorted;
  if (pts.size() < 3) return owned;
  for (const auto& t : dc_delaunay(pts)) {
    const std::array<std::uint32_t, 3> ids = {static_cast<std::uint32_t>(t[0]),
                                              static_cast<std::uint32_t>(t[1]),
                                              static_cast<std::uint32_t>(t[2])};
    if (owns_triangle(s, pts[ids[0]], pts[ids[1]], pts[ids[2]])) {
      owned.push_back(ids);
    }
  }
  return owned;
}

std::vector<std::array<Vec2, 3>> triangulate_subdomain_dc(
    const Subdomain& s) {
  std::vector<std::array<Vec2, 3>> owned;
  for (const auto& t : owned_triangles_dc(s)) {
    owned.push_back({s.xsorted[t[0]], s.xsorted[t[1]], s.xsorted[t[2]]});
  }
  return owned;
}

Subdomain make_root_subdomain(std::vector<Vec2> points) {
  Subdomain s;
  s.xsorted = std::move(points);
  std::sort(s.xsorted.begin(), s.xsorted.end(), LessXY{});
  s.xsorted.erase(std::unique(s.xsorted.begin(), s.xsorted.end()),
                  s.xsorted.end());
  s.ysorted = s.xsorted;
  std::sort(s.ysorted.begin(), s.ysorted.end(), LessYX{});
  return s;
}

}  // namespace aero
