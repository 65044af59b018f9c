#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "delaunay/chunked.hpp"
#include "delaunay/mesh.hpp"
#include "geom/vec2.hpp"

namespace aero {

class MeshView;

/// Thrown when a merged mesh outgrows 32-bit index capacity. The pipeline
/// drivers catch it and report RunStatus::kMeshTooLarge instead of silently
/// truncating vertex ids.
struct MeshTooLargeError : std::length_error {
  using std::length_error::length_error;
};

/// Global mesh assembled from independently generated pieces (boundary-layer
/// subdomain triangulations and inviscid subdomain refinements). Vertices
/// are welded by exact coordinate identity -- the whole pipeline guarantees
/// shared border points are bit-identical on both sides, which is what makes
/// the distributed pieces conform without any stitching pass. Only points
/// that can be shared are welded: a refined piece's Steiner points off its
/// constrained edges are unique to it (MeshView::welds), so append() gives
/// each the next id without touching the interner. The ids, and so the
/// output bytes, are the ones welding every point would give.
///
/// Storage is structure-of-arrays over chunked grow-only arenas: point
/// coordinates, triangle connectivity, and the dead flags each live in their
/// own ChunkedArray, and the coordinate interner is a flat open-addressing
/// table of 32-bit ids (no per-node heap allocations) over the welded points
/// only. Growing never relocates elements, so peak RSS tracks the live mesh
/// instead of the transient doubling of vector reallocation. Read access
/// goes through the index-based accessors below or the aero::MeshView
/// facade; the arenas themselves are private.
class MergedMesh {
 public:
  /// Intern a point, returning its global index.
  /// Throws MeshTooLargeError past 32-bit index capacity.
  std::uint32_t add_point(Vec2 p);

  /// Append one triangle by coordinates (CCW).
  void add_triangle(Vec2 a, Vec2 b, Vec2 c);

  /// Append a mesh piece: give each of its points an id once, in order --
  /// interning the ones the piece welds, numbering the rest next -- then
  /// append its live triangles with their ids mapped. This is the one merge
  /// loop every pipeline driver feeds; for a piece built by make_piece it
  /// assigns exactly the ids per-corner interning would, provided the pieces
  /// meet only along constrained edges or at input vertices (see
  /// make_piece(const DelaunayMesh&)).
  void append(const MeshView& piece);

  /// Append every live inside triangle of a kernel mesh (its make_piece),
  /// under the same proviso.
  void append(const DelaunayMesh& mesh);

  /// Remove the triangles enclosed by `barrier` edges around each `seed`
  /// (flood fill from the seed's containing triangle, stopping at barrier
  /// edges). Used to cut the airfoil interiors out of the boundary-layer
  /// triangulation.
  void carve(const std::vector<std::pair<Vec2, Vec2>>& barrier,
             const std::vector<Vec2>& seeds);

  /// Complement of carve: keep only the triangles reachable from the seeds
  /// without crossing a barrier edge. Used to restrict the boundary-layer
  /// triangulation to the ring between the surface and the outer border
  /// (the junk triangles a Delaunay triangulation puts in coves, gaps, and
  /// hole interiors are dropped; the inviscid near-body refinement meshes
  /// those regions isotropically instead).
  void keep_only(const std::vector<std::pair<Vec2, Vec2>>& barrier,
                 const std::vector<Vec2>& seeds);

  /// Live triangles (records minus carved ones).
  std::size_t triangle_count() const { return tris_.size() - dead_count_; }
  /// Points, in insertion order. Ids are dense in [0, point_count).
  std::size_t point_count() const { return points_.size(); }
  /// Points held by the interner: those add_point() or a welding append()
  /// gave an id. The rest are pieces' unshared Steiner points.
  std::size_t interned_point_count() const { return interned_; }
  /// All triangle records including carved ones; check alive().
  std::size_t record_count() const { return tris_.size(); }
  const std::array<std::uint32_t, 3>& tri(std::size_t t) const {
    return tris_[t];
  }
  bool alive(std::size_t t) const { return !dead_[t]; }
  Vec2 point(std::uint32_t i) const { return points_[i]; }

  /// Interner lookup: the id of an exact-coordinate match among the
  /// interned points, or kNoPoint. A piece's unshared Steiner points are
  /// not found; the callers below run on the boundary-layer mesh, where
  /// every point is interned.
  static constexpr std::uint32_t kNoPoint = 0xffffffffu;
  std::uint32_t find_point(Vec2 p) const;

  /// Remove a single triangle by record index.
  void kill(std::size_t t) {
    if (!dead_[t]) {
      dead_[t] = 1;
      ++dead_count_;
    }
  }

  /// Visit each live triangle's vertex coordinates.
  template <typename Fn>
  void for_each_triangle(Fn&& fn) const {
    for (std::size_t t = 0; t < tris_.size(); ++t) {
      if (dead_[t]) continue;
      fn(points_[tris_[t][0]], points_[tris_[t][1]], points_[tris_[t][2]]);
    }
  }

  /// Edges incident to exactly one live triangle, excluding any listed in
  /// `exclude` (coordinate pairs, unordered). These are the mesh boundary
  /// edges; after the ring restriction they are the exact interface the
  /// near-body inviscid subdomain must conform to.
  std::vector<std::pair<Vec2, Vec2>> boundary_edges(
      const std::vector<std::pair<Vec2, Vec2>>& exclude) const;

  /// Subset of `candidates` that are NOT edges of any live triangle (either
  /// endpoint missing or edge count zero), in candidate order.
  std::vector<std::pair<Vec2, Vec2>> missing_edges(
      const std::vector<std::pair<Vec2, Vec2>>& candidates) const;

  /// Conformity audit of the assembled mesh.
  struct Conformity {
    bool manifold = true;          ///< no edge with more than two triangles
    std::size_t interior_edges = 0;
    std::size_t boundary_edges = 0;
    std::size_t nonmanifold_edges = 0;
    bool orientation_ok = true;    ///< all triangles CCW with positive area
  };
  Conformity check_conformity() const;

  /// Test-only: lower the 32-bit capacity ceiling so the kMeshTooLarge path
  /// is reachable without interning four billion points.
  void set_capacity_limit_for_test(std::uint64_t limit) {
    capacity_limit_ = limit;
  }

 private:
  friend class MeshView;  ///< chunk-level access for zero-copy serialization

  /// Flood fill from seed-containing triangles across non-barrier edges;
  /// returns a reached flag per triangle record.
  std::vector<std::uint8_t> flood_from(
      const std::vector<std::pair<Vec2, Vec2>>& barrier,
      const std::vector<Vec2>& seeds) const;

  /// Interner slot for p: either the occupied slot holding p's id+1 or the
  /// empty slot where p would go. Requires a non-empty table.
  std::size_t probe(Vec2 p) const;
  void rehash(std::size_t new_cap);
  /// Append p as a new point without interning it.
  /// Throws MeshTooLargeError past 32-bit point capacity.
  std::uint32_t push_point(Vec2 p);
  /// Append one triangle record of interned ids.
  /// Throws MeshTooLargeError past 32-bit triangle capacity.
  void push_tri(const std::array<std::uint32_t, 3>& ids);

  ChunkedArray<Vec2> points_;
  ChunkedArray<std::array<std::uint32_t, 3>> tris_;
  ChunkedArray<std::uint8_t> dead_;
  std::size_t dead_count_ = 0;

  // Flat open-addressing interner: each slot holds id+1 (0 = empty).
  // Power-of-two capacity, linear probing, rehash at 1/2 load of the
  // interned points. Ids are assigned in insertion order, so the table
  // layout never affects mesh identity -- only lookup cost.
  std::vector<std::uint32_t> slots_;
  std::size_t interned_ = 0;
  std::uint64_t capacity_limit_ = 0xffffffffull;
};

/// Quality statistics of a merged mesh (same fields as delaunay/stats).
struct MergedStats {
  std::size_t triangles = 0;
  std::size_t vertices = 0;
  double min_angle_deg = 180.0;
  double max_angle_deg = 0.0;
  double max_aspect_ratio = 0.0;
  double total_area = 0.0;
};
MergedStats compute_stats(const MergedMesh& mesh);

}  // namespace aero
