// White-box backdoor into DelaunayMesh, declared as DelaunayMesh::TestAccess
// in delaunay/mesh.hpp and defined only here. The audit tests corrupt kernel
// storage through it, which is exactly what the mesh-internal-access rule
// forbids everywhere else; the compaction tests call the refiner's private
// compact() with ids of their choosing.

#pragma once

#include <array>
#include <vector>

#include "delaunay/mesh.hpp"  // aerolint: allow(public-api)

namespace aero {

struct DelaunayMesh::TestAccess {
  static ChunkedArray<std::array<VertIndex, 3>>& tri_v(DelaunayMesh& m) {  // aerolint: allow(mesh-internal-access)
    return m.tri_v_;
  }
  static ChunkedArray<std::array<TriIndex, 3>>& tri_n(DelaunayMesh& m) {  // aerolint: allow(mesh-internal-access)
    return m.tri_n_;
  }
  static ChunkedArray<Vec2>& points(DelaunayMesh& m) { return m.points_; }  // aerolint: allow(mesh-internal-access)
  static void flip(DelaunayMesh& m, TriIndex t, int edge) {
    m.flip_edge(t, edge);
  }
  static void compact(DelaunayMesh& m, std::vector<TriIndex>& held) {
    m.compact(held);
  }
};

}  // namespace aero
