#include "core/mesh_view.hpp"

#include <algorithm>
#include <cstring>

namespace aero {

namespace {

template <typename T>
void put_raw(std::vector<std::uint8_t>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
T get_raw(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

MeshBlobStatus mesh_blob_status(const std::uint8_t* data, std::size_t len,
                                std::uint64_t* points,
                                std::uint64_t* triangles) {
  if (len < kMeshBlobHeaderSize) return MeshBlobStatus::kTruncated;
  if (std::memcmp(data, kMeshBlobMagic.data(), 4) != 0) {
    return MeshBlobStatus::kBadMagic;
  }
  if (get_raw<std::uint32_t>(data + 4) != kMeshBlobVersion) {
    return MeshBlobStatus::kBadVersion;
  }
  const auto np = get_raw<std::uint64_t>(data + 8);
  const auto nt = get_raw<std::uint64_t>(data + 16);
  const std::uint64_t body = len - kMeshBlobHeaderSize;
  // Bound each count first so the size sum below cannot wrap.
  if (np > body / (2 * sizeof(double)) ||
      nt > body / (3 * sizeof(std::uint32_t)) ||
      np * 2 * sizeof(double) + nt * 3 * sizeof(std::uint32_t) != body) {
    return MeshBlobStatus::kCountMismatch;
  }
  if (points != nullptr) *points = np;
  if (triangles != nullptr) *triangles = nt;
  return MeshBlobStatus::kOk;
}

MeshBlobStatus MeshView::parse(const std::uint8_t* data, std::size_t len,
                               MeshView& out) {
  out = MeshView{};
  std::uint64_t np = 0, nt = 0;
  const MeshBlobStatus st = mesh_blob_status(data, len, &np, &nt);
  if (st != MeshBlobStatus::kOk) return st;
  const std::uint8_t* p = data + kMeshBlobHeaderSize;
  std::vector<Vec2> pts(np);
  std::vector<std::array<std::uint32_t, 3>> tris(nt);
  // An empty vector's data() may be null, which memcpy forbids even for
  // zero bytes.
  if (np > 0) std::memcpy(pts.data(), p, np * 2 * sizeof(double));
  p += np * 2 * sizeof(double);
  if (nt > 0) std::memcpy(tris.data(), p, nt * 3 * sizeof(std::uint32_t));
  for (const std::array<std::uint32_t, 3>& t : tris) {
    for (const std::uint32_t id : t) {
      if (id >= np) return MeshBlobStatus::kBadIndex;
    }
  }
  out = MeshView(std::move(pts), std::move(tris));
  return MeshBlobStatus::kOk;
}

MeshView MeshView::concat(const std::vector<MeshView>& pieces) {
  std::vector<Vec2> points;
  std::vector<std::array<std::uint32_t, 3>> tris;
  for (const MeshView& p : pieces) {
    const auto base = static_cast<std::uint32_t>(points.size());
    for (std::uint32_t i = 0; i < p.point_count(); ++i) {
      points.push_back(p.point(i));
    }
    p.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& t) {
      tris.push_back({t[0] + base, t[1] + base, t[2] + base});
    });
  }
  return MeshView(std::move(points), std::move(tris));
}

MeshView make_piece(const DelaunayMesh& mesh) {
  // Another piece can hold only an input vertex or a point on a constrained
  // edge (a border, split or not); every other Steiner point lies inside
  // this piece alone.
  std::vector<std::uint8_t> shared(mesh.point_count(), 0);
  std::fill_n(shared.begin(), mesh.input_point_count(), 1);
  std::vector<std::array<std::uint32_t, 3>> tris;
  mesh.for_each_triangle([&](TriIndex t) {
    const MeshTri mt = mesh.tri(t);
    if (!mt.inside) return;
    for (int e = 0; e < 3; ++e) {
      if (!mt.constrained[e]) continue;
      shared[static_cast<std::size_t>(mt.v[(e + 1) % 3])] = 1;
      shared[static_cast<std::size_t>(mt.v[(e + 2) % 3])] = 1;
    }
    tris.push_back({static_cast<std::uint32_t>(mt.v[0]),
                    static_cast<std::uint32_t>(mt.v[1]),
                    static_cast<std::uint32_t>(mt.v[2])});
  });
  std::vector<std::uint8_t> welds;
  MeshView piece = make_piece(mesh.point_count(), std::move(tris),
                              [&](std::uint32_t v) {
                                welds.push_back(shared[v]);
                                return mesh.point(static_cast<VertIndex>(v));
                              });
  piece.own_welds_ = std::move(welds);
  return piece;
}

std::vector<std::uint8_t> MeshView::serialize(
    std::vector<std::uint8_t> out) const {
  const std::uint64_t np = point_count();
  const std::uint64_t nt = triangle_count();
  out.reserve(out.size() + serialized_size());
  out.insert(out.end(), kMeshBlobMagic.begin(), kMeshBlobMagic.end());
  put_raw(out, kMeshBlobVersion);
  put_raw(out, np);
  put_raw(out, nt);
  if (mesh_ != nullptr) {
    // Chunk-wise copies straight out of the SoA arenas.
    const auto& pts = mesh_->points_;
    for (std::size_t c = 0; c < pts.chunk_count(); ++c) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(pts.chunk_data(c));
      out.insert(out.end(), p, p + pts.chunk_len(c) * sizeof(Vec2));
    }
  } else {
    const auto* p = reinterpret_cast<const std::uint8_t*>(own_pts_.data());
    out.insert(out.end(), p, p + own_pts_.size() * sizeof(Vec2));
  }
  for_each_tri_ids([&](const std::array<std::uint32_t, 3>& ids) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(ids.data());
    out.insert(out.end(), p, p + 3 * sizeof(std::uint32_t));
  });
  return out;
}

}  // namespace aero
