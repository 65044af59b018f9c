#pragma once

#include <vector>

#include "delaunay/mesh.hpp"
#include "delaunay/pslg.hpp"
#include "delaunay/refine.hpp"

namespace aero {

/// Options mirroring the Triangle switches the paper relies on.
struct TriangulateOptions {
  /// Insert the PSLG segments (constrained Delaunay). Without this only the
  /// point set is triangulated.
  bool constrained = true;
  /// Remove triangles outside the outer boundary and inside holes.
  bool carve = true;
  /// Run Ruppert refinement after construction.
  bool refine = false;
  RefineOptions refine_options;
  /// The input points are already x-sorted: insert them in the caller's
  /// order instead of sorting them (x, then y) first, as Triangle does. This
  /// is the fast path the paper unlocks by maintaining x-sorted vertex arrays
  /// through every decomposition step.
  bool assume_sorted = false;
};

/// Result bundle of a triangulation run.
struct TriangulateResult {
  DelaunayMesh mesh;
  /// Mesh vertex index for each input point (duplicates merged).
  std::vector<VertIndex> vertex_ids;
  RefineStats refine_stats;
};

/// Triangulate a PSLG: Delaunay construction (+ constrained segments,
/// carving, Ruppert refinement per `opts`). This is the drop-in role that
/// Shewchuk's Triangle plays in the paper.
TriangulateResult triangulate(const Pslg& pslg, const TriangulateOptions& opts);

/// Convenience: plain Delaunay triangulation of a point set.
TriangulateResult triangulate_points(const std::vector<Vec2>& points,
                                     bool assume_sorted = false);

}  // namespace aero
