#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "delaunay/triangulator.hpp"
#include "geom/bbox.hpp"
#include "geom/vec2.hpp"
#include "hull/lifted.hpp"

namespace aero {

/// One ancestor median-line cut of a subdomain.
struct Cut {
  CutAxis axis;    ///< orientation of the median line
  double line;     ///< its coordinate (x for kVertical, y for kHorizontal)
  bool keep_left;  ///< this subdomain is the left/below child of the cut
};

/// A piece of the boundary-layer point cloud produced by the
/// projection-based (Blelloch) decomposition.
///
/// Vertices are held twice, in x-sorted and y-sorted order, so that the
/// bounding box and the median vertex are available in constant time at
/// every split (the paper's Implementation section). Once a subdomain is
/// sufficiently decomposed the y-sorted copy is dropped: only the x-sorted
/// vertices are needed by the triangulator (and shipped to other processes).
///
/// A subdomain triangulates its points independently; the triangles whose
/// circumcenter falls on its side of every ancestor cut (see `cuts`) are
/// exactly its share of the global Delaunay triangulation -- the dividing
/// paths guarantee every such triangle has all three vertices present.
struct Subdomain {
  std::vector<Vec2> xsorted;  ///< vertices in LessXY order
  std::vector<Vec2> ysorted;  ///< vertices in LessYX order (empty once final)
  std::vector<Cut> cuts;      ///< ancestor cuts, root first
  int level = 0;              ///< decomposition depth
  bool final_ = false;        ///< sufficiently decomposed

  std::size_t size() const { return xsorted.size(); }

  /// Bounding box in O(1) from the two sorted arrays.
  BBox2 bbox() const;

  /// Work estimate: expected triangle count (~2n for a Delaunay point set).
  double cost() const { return 2.0 * static_cast<double>(xsorted.size()); }

  /// Drop the y-sorted copy (called when the subdomain becomes final).
  void finalize();
};

/// Controls when recursion stops (the paper's added coarse-partitioner
/// tolerances: vertex-count floor and recursion-depth cap, the latter set
/// from the process count).
struct DecomposeOptions {
  std::size_t min_points = 512;  ///< stop below this many vertices
  int max_level = 20;            ///< stop at this recursion depth
  /// Ablation hook: force every median line to one orientation instead of
  /// following the shortest bbox edge (-1 = adaptive, else CutAxis value).
  int force_axis = -1;
};

/// One split: compute the dividing Delaunay path through the median vertex
/// (median line perpendicular to the longest bbox extent), duplicate the
/// path vertices into both halves, and return the two children. The parent
/// is consumed; its primary sorted array is reused for the left child
/// exactly as the paper describes.
std::pair<Subdomain, Subdomain> split_subdomain(Subdomain&& parent,
                                                int force_axis = -1);

/// The boundary-layer tree's one split rule, shared by every walker of the
/// tree. Returns the two children of `s`; or none, when `s` is a leaf: it is
/// sufficiently decomposed under `opts`, or its split fails to shrink it
/// (degenerate geometry such as collinear points), and it is then finalized
/// in place. `s` is consumed when children are returned.
std::vector<Subdomain> decompose_step(Subdomain& s,
                                      const DecomposeOptions& opts);

/// Decompose `root` until every leaf is final: a depth-first walk of
/// decompose_step (children pushed in order, so the right child's subtree is
/// visited first), returning the leaves in visit order.
std::vector<Subdomain> decompose(Subdomain root, const DecomposeOptions& opts);

/// Triangulate a final subdomain (x-sorted fast path) and mark as `inside`
/// exactly the triangles this subdomain owns under the circumcenter rule.
/// The union of owned triangles over all leaves is the Delaunay
/// triangulation of the full point cloud, crack-free and overlap-free.
TriangulateResult triangulate_subdomain(const Subdomain& s);

/// Same contract, on the divide-and-conquer kernel with vertical cuts (the
/// Triangle configuration the paper selects for the over-decomposed leaves;
/// ~3x faster than the incremental kernel on pre-sorted points). Returns
/// only the OWNED triangles, in kernel order, as index triples into
/// `s.xsorted`.
std::vector<std::array<std::uint32_t, 3>> owned_triangles_dc(
    const Subdomain& s);

/// owned_triangles_dc as coordinate triples.
std::vector<std::array<Vec2, 3>> triangulate_subdomain_dc(const Subdomain& s);

/// True if this subdomain owns triangle (a, b, c) under its ancestor cuts.
bool owns_triangle(const Subdomain& s, Vec2 a, Vec2 b, Vec2 c);

/// Build the root subdomain from an arbitrary point cloud (deduplicated).
Subdomain make_root_subdomain(std::vector<Vec2> points);

}  // namespace aero
