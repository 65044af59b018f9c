#include "core/merged_mesh.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/mesh_view.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "geom/triangle_quality.hpp"

namespace aero {

namespace {

/// An edge's two point ids in one word, the smaller one high.
std::uint64_t edge_key(std::uint32_t a, std::uint32_t b) {
  return a < b ? std::uint64_t{a} << 32 | b : std::uint64_t{b} << 32 | a;
}

/// The live triangles on each edge of a MergedMesh, for the flood and the
/// edge queries: an open-addressing table whose 16-byte slot holds the
/// edge key and the first and last live triangle on the edge in record
/// order (kNone second for a boundary edge; an edge with three or more
/// keeps the first and the last). Capacity is a power of two sized from
/// the live triangle count for a load of at most 1/2, with linear probing;
/// one mark byte per slot lives in a separate array.
class EdgeIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kMissing = ~std::size_t{0};

  explicit EdgeIndex(const MergedMesh& mesh) {
    // A triangulation has about 3/2 edges per triangle.
    std::size_t cap = 16;
    while (cap < 3 * mesh.triangle_count()) cap *= 2;
    slots_.assign(cap, Slot{});
    for (std::size_t t = 0; t < mesh.record_count(); ++t) {
      if (!mesh.alive(t)) continue;
      const std::array<std::uint32_t, 3>& v = mesh.tri(t);
      for (int i = 0; i < 3; ++i) {
        add(edge_key(v[i], v[(i + 1) % 3]), static_cast<std::uint32_t>(t));
      }
    }
    marks_.assign(slots_.size(), 0);
  }

  /// Slot of the edge with this key, or kMissing.
  std::size_t find(std::uint64_t key) const {
    const std::size_t i = probe(key);
    return slots_[i].key == key ? i : kMissing;
  }
  /// The first and last triangle on the edge in `slot`.
  const std::array<std::uint32_t, 2>& tris(std::size_t slot) const {
    return slots_[slot].tri;
  }
  /// Mark edge (a, b) if it is in the index.
  void mark(std::uint32_t a, std::uint32_t b) {
    const std::size_t i = find(edge_key(a, b));
    if (i != kMissing) marks_[i] = 1;
  }
  bool marked(std::size_t slot) const { return marks_[slot] != 0; }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    std::array<std::uint32_t, 2> tri{kNone, kNone};
  };

  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9e3779b97f4a7c15ull >> 32) & mask;
    while (slots_[i].key != kEmpty && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void add(std::uint64_t key, std::uint32_t t) {
    if (2 * (size_ + 1) > slots_.size()) {
      // More edges than 3/2 per triangle (a mesh of loose triangles).
      std::vector<Slot> old(2 * slots_.size());
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.key != kEmpty) slots_[probe(s.key)] = s;
      }
    }
    Slot& s = slots_[probe(key)];
    if (s.key == kEmpty) {
      s = Slot{key, {t, kNone}};
      ++size_;
    } else {
      s.tri[1] = t;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> marks_;
  std::size_t size_ = 0;
};

}  // namespace

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
  EdgeIndex edges(*this);
  for (const auto& [a, b] : barrier) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint) continue;
    edges.mark(ia, ib);
  }

  std::vector<std::uint8_t> reached(tris_.size(), 0);
  std::vector<std::uint32_t> stack;
  for (const Vec2 seed : seeds) {
    // The lowest live unreached triangle containing the seed (linear scan:
    // seeds are few and this is a one-shot assembly pass). A triangle
    // holds the seed only if its bounding box does, a cheaper exact test.
    std::size_t start = tris_.size();
    for (std::size_t t = 0; t < tris_.size(); ++t) {
      if (dead_[t] || reached[t]) continue;
      const Vec2 a = points_[tris_[t][0]];
      const Vec2 b = points_[tris_[t][1]];
      const Vec2 c = points_[tris_[t][2]];
      if (seed.x < std::min({a.x, b.x, c.x}) ||
          seed.x > std::max({a.x, b.x, c.x}) ||
          seed.y < std::min({a.y, b.y, c.y}) ||
          seed.y > std::max({a.y, b.y, c.y})) {
        continue;
      }
      if (orient2d(a, b, seed) >= 0.0 && orient2d(b, c, seed) >= 0.0 &&
          orient2d(c, a, seed) >= 0.0) {
        start = t;
        break;
      }
    }
    if (start == tris_.size()) continue;

    stack.assign(1, static_cast<std::uint32_t>(start));
    reached[start] = 1;
    while (!stack.empty()) {
      const std::uint32_t t = stack.back();
      stack.pop_back();
      for (int i = 0; i < 3; ++i) {
        const std::size_t e =
            edges.find(edge_key(tris_[t][i], tris_[t][(i + 1) % 3]));
        if (edges.marked(e)) continue;
        for (const std::uint32_t nb : edges.tris(e)) {
          if (nb == EdgeIndex::kNone || dead_[nb] || reached[nb]) continue;
          reached[nb] = 1;
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
  EdgeIndex edges(*this);
  for (const auto& [a, b] : exclude) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint) continue;
    edges.mark(ia, ib);
  }
  // Emit in triangle-scan order, not hash order: every boundary edge has
  // exactly one live triangle, so the scan yields each edge exactly once and
  // the output order is a pure function of the mesh.
  std::vector<std::pair<Vec2, Vec2>> out;
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    if (dead_[t]) continue;
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t k = edge_key(tris_[t][i], tris_[t][(i + 1) % 3]);
      const std::size_t e = edges.find(k);
      if (edges.tris(e)[1] != EdgeIndex::kNone || edges.marked(e)) continue;
      out.emplace_back(points_[static_cast<std::uint32_t>(k >> 32)],
                       points_[static_cast<std::uint32_t>(k)]);
    }
  }
  return out;
}

std::vector<std::pair<Vec2, Vec2>> MergedMesh::missing_edges(
    const std::vector<std::pair<Vec2, Vec2>>& candidates) const {
  const EdgeIndex edges(*this);
  std::vector<std::pair<Vec2, Vec2>> out;
  for (const auto& [a, b] : candidates) {
    const std::uint32_t ia = find_point(a);
    const std::uint32_t ib = find_point(b);
    if (ia == kNoPoint || ib == kNoPoint ||
        edges.find(edge_key(ia, ib)) == EdgeIndex::kMissing) {
      out.emplace_back(a, b);
    }
  }
  return out;
}

MergedMesh::Conformity MergedMesh::check_conformity() const {
  Conformity c;
  // Exact edge multiplicities, which the edge index does not keep.
  std::unordered_map<std::uint64_t, int> counts;
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
