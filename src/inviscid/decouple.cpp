#include "inviscid/decouple.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <cmath>

#include "geom/triangle_quality.hpp"

namespace aero {

namespace {

constexpr double kSqrt3 = 1.7320508075688772;

/// Centroid (area-weighted) of a convex CCW polygon.
Vec2 polygon_centroid(const std::vector<Vec2>& poly) {
  double area2 = 0.0;
  Vec2 c{};
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Vec2 a = poly[i];
    const Vec2 b = poly[(i + 1) % poly.size()];
    const double w = a.cross(b);
    area2 += w;
    c += (a + b) * w;
  }
  if (area2 == 0.0) return poly.front();
  return c / (3.0 * area2);
}

}  // namespace

namespace {

/// Triangle-count estimate over one triangle of a fan decomposition:
/// area / target-area, with recursive 4-way subdivision while the sizing
/// varies too much across the triangle for a midpoint sample to be honest.
/// `budget` caps the total number of evaluations per estimate call: large
/// subdomains spanning the whole gradation range would otherwise subdivide
/// into millions of pieces, and the estimate only steers load balancing.
double estimate_over_triangle(Vec2 a, Vec2 b, Vec2 c,
                              const GradedSizing& sizing, int depth,
                              int& budget) {
  const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
  const double target_len = sizing.length_at(centroid);
  const double longest =
      std::max({distance(a, b), distance(b, c), distance(c, a)});
  if (depth <= 0 || --budget <= 0 || longest < 8.0 * target_len) {
    // The 1.8 factor is the measured Ruppert overshoot: refinement to an
    // area bound A produces triangles averaging ~A/1.8 (splits land below
    // the bound). Calibrated against refine_subdomain on graded quadrants.
    return 1.8 * std::fabs(signed_area(a, b, c)) / sizing.area_at(centroid);
  }
  const Vec2 ab = midpoint(a, b), bc = midpoint(b, c), ca = midpoint(c, a);
  return estimate_over_triangle(a, ab, ca, sizing, depth - 1, budget) +
         estimate_over_triangle(ab, b, bc, sizing, depth - 1, budget) +
         estimate_over_triangle(ca, bc, c, sizing, depth - 1, budget) +
         estimate_over_triangle(ab, bc, ca, sizing, depth - 1, budget);
}

}  // namespace

double InviscidSubdomain::estimated_triangles(
    const GradedSizing& sizing) const {
  // Fan the convex polygon from its centroid; each fan triangle contributes
  // its integrated 1/target-area. Holes subtract the same estimate.
  const Vec2 c = polygon_centroid(border);
  double est = 0.0;
  int budget = 8192;
  for (std::size_t i = 0; i < border.size(); ++i) {
    const Vec2 a = border[i];
    const Vec2 b = border[(i + 1) % border.size()];
    est += estimate_over_triangle(c, a, b, sizing, 10, budget);
  }
  // Holes (near-body only) are not subtracted: the estimate is only used
  // for decoupling recursion and load-balancing priority, and the near-body
  // subdomain is never split, so an overestimate just schedules it first.
  return std::max(est, 1.0);
}

std::vector<Vec2> decouple_segment(Vec2 a, Vec2 b,
                                   const GradedSizing& sizing) {
  std::vector<Vec2> out;
  const double total = distance(a, b);
  if (total <= 0.0) return out;
  const Vec2 dir = (b - a) / total;

  double s = 0.0;  // arc-length position of the current vertex
  Vec2 current = a;
  while (true) {
    const double k_current = sizing.k_at(current);
    // Step inside [2k/sqrt(3), 2k): aim high for fewer points, stay strictly
    // below the Delaunay-safety ceiling.
    double d = 1.9 * k_current;
    // Repair: the next vertex must also satisfy D < 2 k_next; where the
    // sizing shrinks along the march, pull the point closer (a few fixed-
    // point iterations converge because k is 1-Lipschitz in position here).
    for (int iter = 0; iter < 8; ++iter) {
      const Vec2 next = a + dir * (s + d);
      const double k_next = sizing.k_at(next);
      if (d < 2.0 * k_next) break;
      d = 1.9 * k_next;
    }
    d = std::max(d, 2.0 * k_current / kSqrt3);

    if (s + d >= total - 0.5 * d) break;  // the endpoint closes the march
    s += d;
    current = a + dir * s;
    out.push_back(current);
  }
  return out;
}

namespace {

/// Append `a`, then the decoupled interior points of segment (a, b).
void append_side(std::vector<Vec2>& border, Vec2 a, Vec2 b,
                 const GradedSizing& sizing) {
  border.push_back(a);
  const auto mids = decouple_segment(a, b, sizing);
  border.insert(border.end(), mids.begin(), mids.end());
}

InviscidSubdomain make_quad(Vec2 c0, Vec2 c1, Vec2 c2, Vec2 c3,
                            const GradedSizing& sizing) {
  InviscidSubdomain s;
  s.corners[0] = 0;
  append_side(s.border, c0, c1, sizing);
  s.corners[1] = s.border.size();
  append_side(s.border, c1, c2, sizing);
  s.corners[2] = s.border.size();
  append_side(s.border, c2, c3, sizing);
  s.corners[3] = s.border.size();
  append_side(s.border, c3, c0, sizing);
  return s;
}

}  // namespace

std::vector<InviscidSubdomain> initial_quadrants(const InviscidDomain& d) {
  const Vec2 fl = d.outer.lo;
  const Vec2 fh = d.outer.hi;
  const Vec2 bl = d.inner.lo;
  const Vec2 bh = d.inner.hi;
  const Vec2 f00{fl.x, fl.y}, f10{fh.x, fl.y}, f11{fh.x, fh.y}, f01{fl.x, fh.y};
  const Vec2 b00{bl.x, bl.y}, b10{bh.x, bl.y}, b11{bh.x, bh.y}, b01{bl.x, bh.y};

  // IMPORTANT: shared borders must be discretized identically on both sides.
  // decouple_segment(a, b, ...) is orientation-dependent, so each shared
  // border is generated once here and each quadrant is assembled from the
  // same point sequences. The four trapezoids (bottom, right, top, left)
  // share the diagonals f00-b00, f10-b10, f11-b11, f01-b01.
  const auto diag00 = decouple_segment(f00, b00, d.sizing);
  const auto diag10 = decouple_segment(f10, b10, d.sizing);
  const auto diag11 = decouple_segment(f11, b11, d.sizing);
  const auto diag01 = decouple_segment(f01, b01, d.sizing);
  // Near-body box sides (shared with the near-body subdomain), CCW for the
  // near-body polygon: b00 -> b10 -> b11 -> b01.
  const auto inner_bottom = decouple_segment(b00, b10, d.sizing);
  const auto inner_right = decouple_segment(b10, b11, d.sizing);
  const auto inner_top = decouple_segment(b11, b01, d.sizing);
  const auto inner_left = decouple_segment(b01, b00, d.sizing);
  // Far-field sides belong to exactly one quadrant each; discretize anyway
  // so refinement starts graded.
  const auto outer_bottom = decouple_segment(f00, f10, d.sizing);
  const auto outer_right = decouple_segment(f10, f11, d.sizing);
  const auto outer_top = decouple_segment(f11, f01, d.sizing);
  const auto outer_left = decouple_segment(f01, f00, d.sizing);

  const auto reversed = [](std::vector<Vec2> v) {
    std::reverse(v.begin(), v.end());
    return v;
  };

  std::vector<InviscidSubdomain> quads(4);
  // Bottom trapezoid, CCW: f00 -> f10 -> b10 -> b00.
  {
    InviscidSubdomain& s = quads[0];
    s.corners[0] = 0;
    s.border.push_back(f00);
    s.border.insert(s.border.end(), outer_bottom.begin(), outer_bottom.end());
    s.corners[1] = s.border.size();
    s.border.push_back(f10);
    {
      const auto c = diag10;
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
    s.corners[2] = s.border.size();
    s.border.push_back(b10);
    {
      const auto c = reversed(inner_bottom);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
    s.corners[3] = s.border.size();
    s.border.push_back(b00);
    {
      const auto c = reversed(diag00);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
  }
  // Right trapezoid, CCW: f10 -> f11 -> b11 -> b10.
  {
    InviscidSubdomain& s = quads[1];
    s.corners[0] = 0;
    s.border.push_back(f10);
    s.border.insert(s.border.end(), outer_right.begin(), outer_right.end());
    s.corners[1] = s.border.size();
    s.border.push_back(f11);
    s.border.insert(s.border.end(), diag11.begin(), diag11.end());
    s.corners[2] = s.border.size();
    s.border.push_back(b11);
    {
      const auto c = reversed(inner_right);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
    s.corners[3] = s.border.size();
    s.border.push_back(b10);
    {
      const auto c = reversed(diag10);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
  }
  // Top trapezoid, CCW: f11 -> f01 -> b01 -> b11.
  {
    InviscidSubdomain& s = quads[2];
    s.corners[0] = 0;
    s.border.push_back(f11);
    s.border.insert(s.border.end(), outer_top.begin(), outer_top.end());
    s.corners[1] = s.border.size();
    s.border.push_back(f01);
    s.border.insert(s.border.end(), diag01.begin(), diag01.end());
    s.corners[2] = s.border.size();
    s.border.push_back(b01);
    {
      const auto c = reversed(inner_top);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
    s.corners[3] = s.border.size();
    s.border.push_back(b11);
    {
      const auto c = reversed(diag11);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
  }
  // Left trapezoid, CCW: f01 -> f00 -> b00 -> b01.
  {
    InviscidSubdomain& s = quads[3];
    s.corners[0] = 0;
    s.border.push_back(f01);
    s.border.insert(s.border.end(), outer_left.begin(), outer_left.end());
    s.corners[1] = s.border.size();
    s.border.push_back(f00);
    s.border.insert(s.border.end(), diag00.begin(), diag00.end());
    s.corners[2] = s.border.size();
    s.border.push_back(b00);
    {
      const auto c = reversed(inner_left);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
    s.corners[3] = s.border.size();
    s.border.push_back(b01);
    {
      const auto c = reversed(diag01);
      s.border.insert(s.border.end(), c.begin(), c.end());
    }
  }
  return quads;
}

InviscidSubdomain near_body_subdomain(const InviscidDomain& d) {
  const Vec2 b00{d.inner.lo.x, d.inner.lo.y};
  const Vec2 b10{d.inner.hi.x, d.inner.lo.y};
  const Vec2 b11{d.inner.hi.x, d.inner.hi.y};
  const Vec2 b01{d.inner.lo.x, d.inner.hi.y};
  InviscidSubdomain s = make_quad(b00, b10, b11, b01, d.sizing);
  s.hole_segments = d.bl_interface;
  s.hole_seeds = d.hole_seeds;
  return s;
}

std::vector<InviscidSubdomain> plus_split(const InviscidSubdomain& sub,
                                          const GradedSizing& sizing) {
  if (!sub.hole_segments.empty()) return {};  // the near-body piece stays whole
  const std::size_t n = sub.border.size();

  // For each logical side, the existing border point nearest the geometric
  // side midpoint, strictly between the corners.
  std::array<std::size_t, 4> attach{};
  for (int side = 0; side < 4; ++side) {
    const std::size_t from = sub.corners[static_cast<std::size_t>(side)];
    const std::size_t to = sub.corners[static_cast<std::size_t>((side + 1) % 4)];
    const std::size_t count = (to + n - from) % n;
    if (count < 2) return {};  // no interior point available on this side
    const Vec2 mid = midpoint(sub.border[from], sub.border[to % n]);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_i = from;
    for (std::size_t k = 1; k < count; ++k) {
      const std::size_t i = (from + k) % n;
      const double dist = distance2(sub.border[i], mid);
      if (dist < best) {
        best = dist;
        best_i = i;
      }
    }
    attach[static_cast<std::size_t>(side)] = best_i;
  }

  const Vec2 center = polygon_centroid(sub.border);
  // Decoupled interior points along each arm of the '+', generated once so
  // the two children sharing an arm see identical borders.
  std::array<std::vector<Vec2>, 4> arms;
  for (int i = 0; i < 4; ++i) {
    arms[static_cast<std::size_t>(i)] = decouple_segment(
        center, sub.border[attach[static_cast<std::size_t>(i)]], sizing);
  }

  // Child i: center -> arm i -> border chain attach[i]..attach[i+1]
  // (through corner i+1) -> reversed arm i+1 -> back to center.
  std::vector<InviscidSubdomain> children(4);
  for (int i = 0; i < 4; ++i) {
    InviscidSubdomain& c = children[static_cast<std::size_t>(i)];
    c.level = sub.level + 1;
    const std::size_t a0 = attach[static_cast<std::size_t>(i)];
    const std::size_t a1 = attach[static_cast<std::size_t>((i + 1) % 4)];

    c.corners[0] = c.border.size();
    c.border.push_back(center);
    c.border.insert(c.border.end(), arms[static_cast<std::size_t>(i)].begin(),
                    arms[static_cast<std::size_t>(i)].end());
    c.corners[1] = c.border.size();
    // Border chain from a0 to a1 going forward (CCW) through corner i+1.
    const std::size_t corner_mid = sub.corners[static_cast<std::size_t>((i + 1) % 4)];
    for (std::size_t j = a0; j != a1; j = (j + 1) % n) {
      c.border.push_back(sub.border[j]);
      if (j == corner_mid) c.corners[2] = c.border.size() - 1;
    }
    c.border.push_back(sub.border[a1]);
    c.corners[3] = c.border.size() - 1;
    // Reversed arm i+1 back toward the center (center itself closes).
    const auto& arm1 = arms[static_cast<std::size_t>((i + 1) % 4)];
    for (auto it = arm1.rbegin(); it != arm1.rend(); ++it) {
      c.border.push_back(*it);
    }
  }
  return children;
}

std::vector<InviscidSubdomain> decouple_step(const InviscidSubdomain& sub,
                                             const GradedSizing& sizing,
                                             double target_triangles,
                                             int max_level) {
  if (!sub.hole_segments.empty() || sub.level >= max_level ||
      sub.estimated_triangles(sizing) <= target_triangles) {
    return {};
  }
  return plus_split(sub, sizing);
}

std::vector<InviscidSubdomain> decouple_recursive(InviscidSubdomain sub,
                                                  const GradedSizing& sizing,
                                                  double target_triangles,
                                                  int max_level) {
  std::vector<InviscidSubdomain> out;
  std::vector<InviscidSubdomain> stack;
  stack.push_back(std::move(sub));
  while (!stack.empty()) {
    InviscidSubdomain s = std::move(stack.back());
    stack.pop_back();
    std::vector<InviscidSubdomain> children =
        decouple_step(s, sizing, target_triangles, max_level);
    if (children.empty()) out.push_back(std::move(s));
    for (InviscidSubdomain& c : children) stack.push_back(std::move(c));
  }
  return out;
}

TriangulateResult refine_subdomain(const InviscidSubdomain& sub,
                                   const GradedSizing& sizing, int threads) {
  Pslg pslg;
  pslg.points = sub.border;
  const auto nb = static_cast<std::uint32_t>(sub.border.size());
  for (std::uint32_t i = 0; i < nb; ++i) {
    pslg.segments.emplace_back(i, (i + 1) % nb);
  }
  if (!sub.hole_segments.empty()) {
    std::unordered_map<Vec2, std::uint32_t, Vec2Hash> index_of;
    index_of.reserve(sub.hole_segments.size() * 2);
    const auto intern = [&](Vec2 p) {
      const auto [it, fresh] =
          index_of.try_emplace(p, static_cast<std::uint32_t>(pslg.points.size()));
      if (fresh) pslg.points.push_back(p);
      return it->second;
    };
    for (const auto& [a, b] : sub.hole_segments) {
      const std::uint32_t ia = intern(a);
      const std::uint32_t ib = intern(b);
      if (ia != ib) pslg.segments.emplace_back(ia, ib);
    }
    pslg.holes = sub.hole_seeds;
  }

  TriangulateOptions opts;
  opts.constrained = true;
  opts.carve = true;
  opts.refine = true;
  opts.refine_options.radius_edge_bound = 1.4142135623730951;
  opts.refine_options.sizing = [sizing](Vec2 p) { return sizing.area_at(p); };
  // Shared borders are never split: the decoupling spacing guarantees they
  // never need to be, and splitting would break cross-process conformity.
  opts.refine_options.splittable = [](Vec2, Vec2) { return false; };
  opts.refine_options.threads = std::max(1, threads);
  return triangulate(pslg, opts);
}

}  // namespace aero
