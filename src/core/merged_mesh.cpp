#include "core/merged_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "core/mesh_view.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "geom/triangle_quality.hpp"

namespace aero {

std::size_t MergedMesh::probe(Vec2 p) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = Vec2Hash{}(p) & mask;
  while (true) {
    const std::uint32_t s = slots_[i];
    if (s == 0 || points_[s - 1] == p) return i;
    i = (i + 1) & mask;
  }
}

void MergedMesh::rehash(std::size_t new_cap) {
  // Re-insert from the old table, not from points_: only the interned
  // points belong in it.
  std::vector<std::uint32_t> old(new_cap, 0);
  old.swap(slots_);
  for (const std::uint32_t s : old) {
    if (s != 0) slots_[probe(points_[s - 1])] = s;
  }
}

std::uint32_t MergedMesh::push_point(Vec2 p) {
  if (points_.size() >= capacity_limit_) {
    throw MeshTooLargeError("merged mesh exceeds 32-bit point capacity");
  }
  const auto id = static_cast<std::uint32_t>(points_.size());
  points_.push_back(p);
  return id;
}

std::uint32_t MergedMesh::add_point(Vec2 p) {
  // Keep load factor <= 1/2 (linear probing stays short). Rehashing only
  // changes lookup cost: ids are insertion-ordered, so mesh identity is
  // independent of the table layout.
  if (2 * (interned_ + 1) > slots_.size()) {
    rehash(slots_.empty() ? 1024 : slots_.size() * 2);
  }
  const std::size_t i = probe(p);
  if (slots_[i] != 0) return slots_[i] - 1;
  const std::uint32_t id = push_point(p);
  slots_[i] = id + 1;
  ++interned_;
  return id;
}

std::uint32_t MergedMesh::find_point(Vec2 p) const {
  if (slots_.empty()) return kNoPoint;
  const std::uint32_t s = slots_[probe(p)];
  return s == 0 ? kNoPoint : s - 1;
}

void MergedMesh::push_tri(const std::array<std::uint32_t, 3>& ids) {
  if (tris_.size() >= capacity_limit_) {
    throw MeshTooLargeError("merged mesh exceeds 32-bit triangle capacity");
  }
  tris_.push_back(ids);
  dead_.push_back(0);
}

void MergedMesh::add_triangle(Vec2 a, Vec2 b, Vec2 c) {
  push_tri({add_point(a), add_point(b), add_point(c)});
}

void MergedMesh::append(const MeshView& piece) {
  // At most one probe per piece point, not one per triangle corner (~6x
  // more per interior vertex), and none for a point the piece does not
  // weld: interner hashing dominated merge time in profiles.
  std::vector<std::uint32_t> ids(piece.point_count());
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    ids[i] = piece.welds(i) ? add_point(piece.point(i))
                            : push_point(piece.point(i));
  }
  piece.for_each_tri_ids([&](const std::array<std::uint32_t, 3>& t) {
    push_tri({ids[t[0]], ids[t[1]], ids[t[2]]});
  });
}

void MergedMesh::append(const DelaunayMesh& mesh) { append(make_piece(mesh)); }

std::vector<std::uint8_t> MergedMesh::flood_from(
    const std::vector<std::pair<Vec2, Vec2>>& barrier,
    const std::vector<Vec2>& seeds) const {
  // Edge -> incident live triangles.
  std::unordered_map<EdgeKey, std::array<std::int64_t, 2>, EdgeKeyHash> edges;
  edges.reserve(tris_.size() * 2);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    for (int i = 0; i < 3; ++i) {
      const EdgeKey k = edge_key(tris_[t][i], tris_[t][(i + 1) % 3]);
      auto [it, fresh] = edges.try_emplace(k, std::array<std::int64_t, 2>{-1, -1});
      auto& slots = it->second;
      (slots[0] < 0 ? slots[0] : slots[1]) = static_cast<std::int64_t>(t);
    }
  }

  std::unordered_set<EdgeKey, EdgeKeyHash> blocked;
  blocked.reserve(barrier.size() * 2);
  for (const auto& [a, b] : barrier) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint) continue;
    blocked.insert(edge_key(ia, ib));
  }

  std::vector<std::uint8_t> reached(tris_.size(), 0);
  for (const Vec2 seed : seeds) {
    // Locate a live triangle containing the seed (linear scan: seeds are
    // few and this is a one-shot assembly pass).
    std::int64_t start = -1;
    for (std::size_t t = 0; t < tris_.size() && start < 0; ++t) {
      if (dead_[t] || reached[t]) continue;
      const Vec2 a = points_[tris_[t][0]];
      const Vec2 b = points_[tris_[t][1]];
      const Vec2 c = points_[tris_[t][2]];
      if (orient2d(a, b, seed) >= 0.0 && orient2d(b, c, seed) >= 0.0 &&
          orient2d(c, a, seed) >= 0.0) {
        start = static_cast<std::int64_t>(t);
      }
    }
    if (start < 0) continue;

    std::vector<std::int64_t> stack{start};
    reached[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      const auto t = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      for (int i = 0; i < 3; ++i) {
        const EdgeKey k = edge_key(tris_[t][i], tris_[t][(i + 1) % 3]);
        if (blocked.contains(k)) continue;
        const auto it = edges.find(k);
        if (it == edges.end()) continue;
        for (const std::int64_t nb : it->second) {
          if (nb < 0 || dead_[static_cast<std::size_t>(nb)] ||
              reached[static_cast<std::size_t>(nb)]) {
            continue;
          }
          reached[static_cast<std::size_t>(nb)] = 1;
          stack.push_back(nb);
        }
      }
    }
  }
  return reached;
}

void MergedMesh::carve(const std::vector<std::pair<Vec2, Vec2>>& barrier,
                       const std::vector<Vec2>& seeds) {
  const std::vector<std::uint8_t> reached = flood_from(barrier, seeds);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (!dead_[t] && reached[t]) {
      dead_[t] = 1;
      ++dead_count_;
    }
  }
}

void MergedMesh::keep_only(const std::vector<std::pair<Vec2, Vec2>>& barrier,
                           const std::vector<Vec2>& seeds) {
  const std::vector<std::uint8_t> reached = flood_from(barrier, seeds);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (!dead_[t] && !reached[t]) {
      dead_[t] = 1;
      ++dead_count_;
    }
  }
}

std::vector<std::pair<Vec2, Vec2>> MergedMesh::boundary_edges(
    const std::vector<std::pair<Vec2, Vec2>>& exclude) const {
  std::unordered_map<EdgeKey, int, EdgeKeyHash> counts;
  counts.reserve(tris_.size() * 2);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    for (int i = 0; i < 3; ++i) {
      ++counts[edge_key(tris_[t][i], tris_[t][(i + 1) % 3])];
    }
  }
  std::unordered_set<EdgeKey, EdgeKeyHash> excluded;
  excluded.reserve(exclude.size() * 2);
  for (const auto& [a, b] : exclude) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint) continue;
    excluded.insert(edge_key(ia, ib));
  }
  // Emit in triangle-scan order, not hash order: every boundary edge has
  // exactly one live triangle, so the scan yields each edge exactly once and
  // the output order is a pure function of the mesh.
  std::vector<std::pair<Vec2, Vec2>> out;
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    for (int i = 0; i < 3; ++i) {
      const EdgeKey k = edge_key(tris_[t][i], tris_[t][(i + 1) % 3]);
      if (counts.at(k) != 1 || excluded.contains(k)) continue;
      out.emplace_back(points_[k.first], points_[k.second]);
    }
  }
  return out;
}

std::vector<std::pair<Vec2, Vec2>> MergedMesh::missing_edges(
    const std::vector<std::pair<Vec2, Vec2>>& candidates) const {
  std::unordered_set<EdgeKey, EdgeKeyHash> present;
  present.reserve(tris_.size() * 2);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    for (int i = 0; i < 3; ++i) {
      present.insert(edge_key(tris_[t][i], tris_[t][(i + 1) % 3]));
    }
  }
  std::vector<std::pair<Vec2, Vec2>> out;
  for (const auto& [a, b] : candidates) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint ||
        !present.contains(edge_key(ia, ib))) {
      out.emplace_back(a, b);
    }
  }
  return out;
}

MergedMesh::Conformity MergedMesh::check_conformity() const {
  Conformity c;
  std::unordered_map<EdgeKey, int, EdgeKeyHash> counts;
  counts.reserve(tris_.size() * 2);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    const Vec2 a = points_[tris_[t][0]];
    const Vec2 b = points_[tris_[t][1]];
    const Vec2 cc = points_[tris_[t][2]];
    if (orient2d(a, b, cc) <= 0.0) c.orientation_ok = false;
    for (int i = 0; i < 3; ++i) {
      ++counts[edge_key(tris_[t][i], tris_[t][(i + 1) % 3])];
    }
  }
  // aerolint: allow(det-unordered-iter: commutative counting -- the three sums are iteration-order independent)
  for (const auto& [k, n] : counts) {
    if (n == 1) {
      ++c.boundary_edges;
    } else if (n == 2) {
      ++c.interior_edges;
    } else {
      ++c.nonmanifold_edges;
      c.manifold = false;
    }
  }
  return c;
}

MergedStats compute_stats(const MergedMesh& mesh) {
  MergedStats s;
  s.vertices = mesh.point_count();
  mesh.for_each_triangle([&](Vec2 a, Vec2 b, Vec2 c) {
    ++s.triangles;
    constexpr double kRad2Deg = 180.0 / 3.14159265358979323846;
    s.min_angle_deg = std::min(s.min_angle_deg, min_angle(a, b, c) * kRad2Deg);
    s.max_angle_deg = std::max(s.max_angle_deg, max_angle(a, b, c) * kRad2Deg);
    s.max_aspect_ratio = std::max(s.max_aspect_ratio, aspect_ratio(a, b, c));
    s.total_area += signed_area(a, b, c);
  });
  return s;
}

}  // namespace aero
