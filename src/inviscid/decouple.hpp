#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "delaunay/triangulator.hpp"
#include "inviscid/sizing.hpp"

namespace aero {

/// A decoupled inviscid subdomain: a convex counter-clockwise polygon whose
/// border is already discretized to the graded decoupling spacing, so it can
/// be refined independently of its neighbors without disturbing the shared
/// border (Linardakis-Chrisochoides graded Delaunay decoupling).
///
/// Only the counter-clockwise point list is stored between decoupling steps;
/// edges are constructed when the subdomain is ready to be refined, which is
/// the paper's communication-volume optimization.
struct InviscidSubdomain {
  std::vector<Vec2> border;       ///< CCW, closed implicitly (last->first)
  std::array<std::size_t, 4> corners{};  ///< indices of the 4 logical corners
  int level = 0;

  /// For the near-body subdomain only: the constraint segments bounding the
  /// boundary-layer + airfoil holes (the exact boundary-layer mesh boundary
  /// plus any exposed surface edges) and one seed inside each element.
  std::vector<std::pair<Vec2, Vec2>> hole_segments;
  std::vector<Vec2> hole_seeds;

  /// Estimated number of triangles refinement will create (drives both the
  /// recursion cutoff and the load-balancing cost).
  double estimated_triangles(const GradedSizing& sizing) const;
};

/// The inviscid domain layout: far-field box, near-body box, and the
/// boundary-layer outer borders the near-body subdomain must conform to.
struct InviscidDomain {
  BBox2 inner;                  ///< near-body box (contains airfoil + BL)
  BBox2 outer;                  ///< far-field box (30-50 chords)
  /// The exact interface between the anisotropic boundary-layer mesh and
  /// the isotropic near-body mesh, as constraint segments.
  std::vector<std::pair<Vec2, Vec2>> bl_interface;
  std::vector<Vec2> hole_seeds; ///< one seed inside each element
  GradedSizing sizing;
};

/// March from `a` to `b` inserting graded decoupling points (exclusive of
/// the endpoints): spacing D in [2k/sqrt(3), 2k) with the Delaunay-safety
/// repair D < 2 k_next (points pulled closer where the sizing shrinks).
std::vector<Vec2> decouple_segment(Vec2 a, Vec2 b, const GradedSizing& sizing);

/// Initial decoupling: four convex trapezoid quadrants between the near-body
/// box and the far-field box (paper Figure 9), with every shared border
/// (the four diagonals and the near-body box sides) and the outer boundary
/// pre-discretized by the grading rule.
std::vector<InviscidSubdomain> initial_quadrants(const InviscidDomain& domain);

/// The near-body subdomain: the near-body box with the boundary-layer mesh
/// boundary as hole constraints. Its outer border matches the quadrants'
/// inner borders exactly.
InviscidSubdomain near_body_subdomain(const InviscidDomain& domain);

/// The inviscid tree's one split rule, shared by every walker of the tree:
/// the '+' children of `sub` (plus_split), or none when `sub` is a leaf -- it
/// holds body holes (the near-body subdomain stays whole), has reached
/// `max_level`, is estimated at no more than `target_triangles`, or has no
/// valid attach points left.
std::vector<InviscidSubdomain> decouple_step(const InviscidSubdomain& sub,
                                             const GradedSizing& sizing,
                                             double target_triangles,
                                             int max_level);

/// Recursive '+' decoupling of one subdomain: a center point joined to the
/// existing border point nearest each side midpoint (no new border points,
/// so neighbors are undisturbed and no communication is needed). A
/// depth-first walk of decouple_step (children pushed in order, so the last
/// child's subtree is visited first), returning the leaves in visit order.
std::vector<InviscidSubdomain> decouple_recursive(InviscidSubdomain sub,
                                                  const GradedSizing& sizing,
                                                  double target_triangles,
                                                  int max_level = 12);

/// Split one subdomain once with the '+' pattern. Returns an empty vector if
/// the subdomain cannot be split (sides too short).
std::vector<InviscidSubdomain> plus_split(const InviscidSubdomain& sub,
                                          const GradedSizing& sizing);

/// Refine a decoupled subdomain: constrained triangulation of its border
/// (plus hole borders) with Ruppert refinement bounded by sqrt(2) and the
/// graded sizing. Shared border segments are protected from splitting; the
/// decoupling spacing guarantees refinement never needs to split them.
///
/// `threads` parallelizes only the refiner's initial scan (see
/// RefineOptions::threads) — never the border triangulation — so the
/// subdomain mesh is identical at every thread count. That invariance is
/// what lets threads_per_rank stay out of the service cache key.
TriangulateResult refine_subdomain(const InviscidSubdomain& sub,
                                   const GradedSizing& sizing,
                                   int threads = 1);

}  // namespace aero
