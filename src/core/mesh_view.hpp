#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/merged_mesh.hpp"
#include "geom/vec2.hpp"

namespace aero {

/// Typed outcome of parsing a serialized mesh blob. Consumers (service
/// cache, journal replay, checkpoint sink) reject mismatched layouts with
/// one of these instead of silently mis-decoding.
enum class MeshBlobStatus {
  kOk = 0,
  kTruncated,      ///< shorter than the fixed header
  kBadMagic,       ///< not an "AMSH" blob
  kBadVersion,     ///< layout version this build does not speak
  kCountMismatch,  ///< header counts disagree with the payload size
  kBadIndex,       ///< a triangle names a point id past the point count
};

inline const char* to_string(MeshBlobStatus s) {
  switch (s) {
    case MeshBlobStatus::kOk: return "ok";
    case MeshBlobStatus::kTruncated: return "truncated";
    case MeshBlobStatus::kBadMagic: return "bad-magic";
    case MeshBlobStatus::kBadVersion: return "bad-version";
    case MeshBlobStatus::kCountMismatch: return "count-mismatch";
    case MeshBlobStatus::kBadIndex: return "bad-index";
  }
  return "unknown";
}

/// Serialized mesh layout: "AMSH" | u32 version | u64 points | u64 live
/// triangles | point coords (2 doubles each) | triangle vertex-id triples
/// (3 u32 each), all little-endian. Version 1 is the first tagged layout;
/// the pre-tag form (bare counts) is rejected as kBadMagic.
inline constexpr std::array<std::uint8_t, 4> kMeshBlobMagic = {'A', 'M', 'S',
                                                               'H'};
inline constexpr std::uint32_t kMeshBlobVersion = 1;
inline constexpr std::size_t kMeshBlobHeaderSize = 4 + 4 + 8 + 8;

/// Validate a blob header without materializing the mesh. On kOk the counts
/// are stored through the optional out-pointers.
MeshBlobStatus mesh_blob_status(const std::uint8_t* data, std::size_t len,
                                std::uint64_t* points = nullptr,
                                std::uint64_t* triangles = nullptr);
inline MeshBlobStatus mesh_blob_status(const std::vector<std::uint8_t>& blob,
                                       std::uint64_t* points = nullptr,
                                       std::uint64_t* triangles = nullptr) {
  return mesh_blob_status(blob.data(), blob.size(), points, triangles);
}

/// Stable read-only facade over an assembled mesh: index-based handles,
/// range iteration, and the one serialized form shared by the service
/// cache, the result journal, the checkpoint sink and the pool's result
/// gather. Callers outside the mesh core consume this instead of reaching
/// into MergedMesh internals.
///
/// A view is either borrowed (zero-copy over a live MergedMesh -- the mesh
/// must outlive the view) or owning (parsed from a serialized blob or built
/// from arrays, in which case every record is live). An owning view is also
/// the one form a subdomain leaf's output takes: a mesh *piece*, points plus
/// id triples, merged into the global mesh by MergedMesh::append. A piece
/// from make_piece(const DelaunayMesh&) also carries weld flags (welds()),
/// which the serialized form does not.
class MeshView {
 public:
  MeshView() = default;
  /// Borrowed view; `mesh` must outlive the view.
  explicit MeshView(const MergedMesh& mesh) : mesh_(&mesh) {}
  /// Owning view over explicit arrays; ids index `points`.
  MeshView(std::vector<Vec2> points,
           std::vector<std::array<std::uint32_t, 3>> tris)
      : own_pts_(std::move(points)), own_tris_(std::move(tris)) {}

  /// The pieces laid end to end as one piece (ids offset per piece; points
  /// shared between pieces repeat, and MergedMesh::append welds them).
  static MeshView concat(const std::vector<MeshView>& pieces);

  /// Parse an "AMSH" blob into an owning view, checking every triangle's
  /// ids against the point count. On any status other than kOk, `out` is
  /// left empty.
  static MeshBlobStatus parse(const std::uint8_t* data, std::size_t len,
                              MeshView& out);
  static MeshBlobStatus parse(const std::vector<std::uint8_t>& blob,
                              MeshView& out) {
    return parse(blob.data(), blob.size(), out);
  }

  std::size_t point_count() const {
    return mesh_ ? mesh_->point_count() : own_pts_.size();
  }
  /// Triangle records including dead ones; iterate with alive().
  std::size_t record_count() const {
    return mesh_ ? mesh_->record_count() : own_tris_.size();
  }
  /// Live triangles only.
  std::size_t triangle_count() const {
    return mesh_ ? mesh_->triangle_count() : own_tris_.size();
  }
  bool alive(std::size_t t) const { return mesh_ ? mesh_->alive(t) : true; }
  const std::array<std::uint32_t, 3>& tri(std::size_t t) const {
    return mesh_ ? mesh_->tri(t) : own_tris_[t];
  }
  Vec2 point(std::uint32_t i) const {
    return mesh_ ? mesh_->point(i) : own_pts_[i];
  }
  /// Whether MergedMesh::append must weld point i, i.e. whether another
  /// piece may hold the same coordinates. True for every point unless the
  /// view came from make_piece(const DelaunayMesh&), which welds the
  /// kernel's input vertices and the points on its constrained edges only.
  bool welds(std::uint32_t i) const {
    return own_welds_.empty() || own_welds_[i] != 0;
  }

  /// Visit each live triangle's vertex ids, in record order.
  template <typename Fn>
  void for_each_tri_ids(Fn&& fn) const {
    const std::size_t n = record_count();
    for (std::size_t t = 0; t < n; ++t) {
      if (!alive(t)) continue;
      fn(tri(t));
    }
  }

  /// Visit each live triangle's vertex coordinates, in record order.
  template <typename Fn>
  void for_each_triangle(Fn&& fn) const {
    for_each_tri_ids([&](const std::array<std::uint32_t, 3>& ids) {
      fn(point(ids[0]), point(ids[1]), point(ids[2]));
    });
  }

  /// Serialize to the versioned "AMSH" form, appended to `out`. Points keep
  /// their interned ids (including ids orphaned by carving); only live
  /// triangles are emitted. Borrowed views copy chunk-wise out of the SoA
  /// arenas.
  std::vector<std::uint8_t> serialize(std::vector<std::uint8_t> out = {}) const;
  /// Exact size of serialize()'s output.
  std::size_t serialized_size() const {
    return kMeshBlobHeaderSize + point_count() * sizeof(Vec2) +
           triangle_count() * 3 * sizeof(std::uint32_t);
  }

 private:
  friend MeshView make_piece(const DelaunayMesh& mesh);

  const MergedMesh* mesh_ = nullptr;  ///< borrowed backing (nullptr = owning)
  std::vector<Vec2> own_pts_;
  std::vector<std::array<std::uint32_t, 3>> own_tris_;
  /// Per-point weld flags (see welds()); empty means every point welds.
  std::vector<std::uint8_t> own_welds_;
};

/// Build a piece from triangles given as ids into a larger source point set
/// (`point_of(id)` yields the coordinates, and is called once per kept point,
/// in the kept order). Only the points the triangles use are kept,
/// renumbered in order of first use, so appending the piece interns points
/// in exactly the order that interning each triangle's corners in turn
/// would. This is what keeps a mesh byte-identical whichever walker appends
/// the pieces.
template <typename PointOf>
MeshView make_piece(std::size_t source_points,
                    std::vector<std::array<std::uint32_t, 3>> tris,
                    PointOf&& point_of) {
  constexpr std::uint32_t kUnmapped = 0xffffffffu;
  std::vector<std::uint32_t> remap(source_points, kUnmapped);
  std::vector<Vec2> points;
  for (std::array<std::uint32_t, 3>& t : tris) {
    for (std::uint32_t& id : t) {
      std::uint32_t& slot = remap[id];
      if (slot == kUnmapped) {
        slot = static_cast<std::uint32_t>(points.size());
        points.push_back(point_of(id));
      }
      id = slot;
    }
  }
  return MeshView(std::move(points), std::move(tris));
}

/// The piece of a kernel mesh's inside triangles, in triangle order. Only
/// its input vertices and the endpoints of its constrained edges weld
/// (welds()): every other Steiner point lies inside the piece, so it cannot
/// coincide with a point of another piece as long as pieces meet only along
/// constrained edges or at input vertices -- which is how the pipeline's
/// subdomains, and any decomposition whose borders are segments, meet.
MeshView make_piece(const DelaunayMesh& mesh);

}  // namespace aero
