#include "delaunay/mesh.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "geom/predicates.hpp"
#include "geom/predicates_fast.hpp"
#include "obs/trace.hpp"

namespace aero {

// Small deterministic PRNG for the stochastic walk (avoids pathological
// cycles in point location without the cost of <random>). The state is
// per-mesh, not thread_local: a process-wide state would make the walk path
// -- and through cavity seeding the triangle creation order -- depend on how
// many walks earlier triangulations performed, breaking the guarantee that
// the same input always yields a bit-identical mesh.
std::uint32_t DelaunayMesh::next_rand() const {
  std::uint32_t s = rand_state_;
  s ^= s << 13;
  s ^= s >> 17;
  s ^= s << 5;
  rand_state_ = s;
  return s;
}

std::size_t DelaunayMesh::inside_triangle_count() const {
  std::size_t n = 0;
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v_.size()); ++t) {
    if (is_live_finite(t) && tri_inside(t)) ++n;
  }
  return n;
}

TriIndex DelaunayMesh::new_tri() {
  tri_v_.emplace_back() = {kGhost, kGhost, kGhost};
  tri_n_.emplace_back() = {kNoTri, kNoTri, kNoTri};
  tri_flags_.emplace_back() = kInside;
  return static_cast<TriIndex>(tri_v_.size() - 1);
}

void DelaunayMesh::kill_tri(TriIndex t) {
  assert(!tri_dead(t));
  if (!tri_ghost(t)) --live_finite_;
  set_flag(t, kDead, true);
  ++dead_slots_;
}

void DelaunayMesh::compact(std::vector<TriIndex>& held) {
  AERO_TRACE_SPAN("delaunay", "compact_slots");
  const std::size_t slots = tri_v_.size();
  // Old id -> new id; dead slots map to kNoTri. The map is monotone, so
  // moving each live slot down in ascending order never overwrites a slot
  // that is still to be read.
  std::vector<TriIndex> remap(slots, kNoTri);
  std::size_t live = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    if ((tri_flags_[t] & kDead) != 0) continue;
    remap[t] = static_cast<TriIndex>(live);
    if (live != t) {
      tri_v_[live] = tri_v_[t];
      tri_n_[live] = tri_n_[t];
      tri_flags_[live] = tri_flags_[t];
    }
    ++live;
  }
  const auto renumber = [&remap](TriIndex& t) {
    if (t != kNoTri) t = remap[static_cast<std::size_t>(t)];
  };
  for (std::size_t t = 0; t < live; ++t) {
    for (TriIndex& nb : tri_n_[t]) renumber(nb);
  }
  for (std::size_t v = 0; v < vert_tri_.size(); ++v) renumber(vert_tri_[v]);
  // A dead walk hint becomes kNoTri, which locate() treats the same way:
  // it falls back to the lowest live triangle, the same one as before.
  renumber(last_tri_);
  std::size_t kept = 0;
  for (const TriIndex t : held) {
    const TriIndex n = remap[static_cast<std::size_t>(t)];
    if (n != kNoTri) held[kept++] = n;
  }
  held.resize(kept);
  tri_v_.truncate(live);
  tri_n_.truncate(live);
  tri_flags_.truncate(live);
  dead_slots_ = 0;
}

void DelaunayMesh::link(TriIndex t, int edge, TriIndex u, int uedge) {
  tn(t)[edge] = u;
  tn(u)[uedge] = t;
}

void DelaunayMesh::set_vert_tri(TriIndex t) {
  for (const VertIndex v : tv(t)) {
    if (v != kGhost) vert_tri_[static_cast<size_t>(v)] = t;
  }
}

bool DelaunayMesh::in_cavity(TriIndex t, Vec2 p) const {
  const auto& v = tv(t);
  if (v[2] != kGhost) {
    return incircle_fast(point(v[0]), point(v[1]), point(v[2]), p) > 0.0;
  }
  // Ghost (w, u, kGhost) for finite hull edge (u, w): its "circumdisk" is
  // the open half-plane strictly beyond the hull edge, plus the open edge
  // itself (a point landing exactly on the hull edge splits it, so the ghost
  // must dissolve). A point collinear with the edge but beyond its endpoints
  // leaves this hull edge intact and must NOT claim the ghost, or the star
  // retriangulation would emit a degenerate collinear triangle.
  const Vec2 w = point(v[0]);
  const Vec2 u = point(v[1]);
  const double o = orient2d_fast(w, u, p);
  if (o > 0.0) return true;
  if (o < 0.0) return false;
  return (p - u).dot(w - u) > 0.0 && (p - w).dot(u - w) > 0.0;
}

bool DelaunayMesh::triangulate(const std::vector<Vec2>& pts,
                               std::vector<VertIndex>* ids) {
  points_.clear();
  tri_v_.clear();
  tri_n_.clear();
  tri_flags_.clear();
  vert_tri_.clear();
  live_finite_ = 0;
  dead_slots_ = 0;
  last_tri_ = kNoTri;
  rand_state_ = 0x9d2c5680u;

  if (pts.size() < 3) return false;

  // Find an initial non-collinear triple (i, j, k) with i=0, j = first point
  // distinct from p0, and k the first point not collinear with them.
  const Vec2 p0 = pts[0];
  std::size_t j = 1;
  while (j < pts.size() && pts[j] == p0) ++j;
  if (j == pts.size()) return false;
  const Vec2 p1 = pts[j];
  std::size_t k = j + 1;
  double orient = 0.0;
  while (k < pts.size()) {
    orient = orient2d(p0, p1, pts[k]);
    if (orient != 0.0) break;
    ++k;
  }
  if (k == pts.size()) return false;  // all collinear

  // Seed triangle (CCW) plus three ghosts closing the sphere.
  points_.push_back(p0);
  points_.push_back(p1);
  points_.push_back(pts[k]);
  if (orient < 0.0) std::swap(points_[1], points_[2]);
  vert_tri_.assign(3, kNoTri);

  const TriIndex f = new_tri();
  tv(f) = {0, 1, 2};
  live_finite_ = 1;
  // Ghost for hull edge (a, b) is stored (b, a, kGhost); finite edge slots:
  // edge 0 = (1,2), edge 1 = (2,0), edge 2 = (0,1).
  const TriIndex g01 = new_tri();
  const TriIndex g12 = new_tri();
  const TriIndex g20 = new_tri();
  tv(g01) = {1, 0, kGhost};
  tv(g12) = {2, 1, kGhost};
  tv(g20) = {0, 2, kGhost};
  set_flag(g01, kInside, false);
  set_flag(g12, kInside, false);
  set_flag(g20, kInside, false);
  link(f, 2, g01, 2);  // finite edge (0,1) <-> ghost edge (1,0)
  link(f, 0, g12, 2);
  link(f, 1, g20, 2);
  // Ghost ring: ghost (b, a, G) has edge 0 = (a, G) and edge 1 = (G, b).
  // g01 = (1,0,G): edge0=(0,G), edge1=(G,1); g20 = (0,2,G): edge1=(G,0).
  link(g01, 0, g20, 1);  // shared vertex 0
  link(g12, 0, g01, 1);  // shared vertex 1
  link(g20, 0, g12, 1);  // shared vertex 2
  set_vert_tri(f);
  last_tri_ = f;

  if (ids) {
    ids->assign(pts.size(), kGhost);
    (*ids)[0] = 0;
    (*ids)[j] = orient < 0.0 ? 2 : 1;
    (*ids)[k] = orient < 0.0 ? 1 : 2;
  }

  // Insert the remaining points in input order (duplicates merge).
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (i == j || i == k) continue;
    const VertIndex vi = insert_point(pts[i], /*respect_constraints=*/false);
    if (ids) (*ids)[i] = vi;
  }
  if (ids) {
    // Duplicates of the seed points that preceded them positionally.
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if ((*ids)[i] == kGhost) {
        // pts[i] equals one of the seed coordinates.
        for (VertIndex s = 0; s < 3; ++s) {
          if (points_[static_cast<size_t>(s)] == pts[i]) (*ids)[i] = s;
        }
      }
    }
  }
  input_point_count_ = points_.size();
  return true;
}

LocateResult DelaunayMesh::locate(Vec2 p, TriIndex hint) const {
  LocateResult res;
  TriIndex t = hint != kNoTri ? hint : last_tri_;
  if (t == kNoTri || tri_dead(t)) {
    // Fallback: any live finite triangle.
    t = kNoTri;
    for (TriIndex i = 0; i < static_cast<TriIndex>(tri_v_.size()); ++i) {
      if (is_live_finite(i)) {
        t = i;
        break;
      }
    }
    if (t == kNoTri) throw std::logic_error("locate on empty triangulation");
  }
  if (tri_ghost(t)) {
    t = tn(t)[2];  // its finite partner
  }

  int came_from = -1;  // edge slot we entered through, in current triangle
  for (std::size_t guard = 0; guard <= 4 * tri_v_.size() + 16; ++guard) {
    const auto& v = tv(t);
    double o[3];
    int neg[3];
    int nneg = 0;
    int zero_mask = 0;
    for (int i = 0; i < 3; ++i) {
      if (i == came_from) {
        o[i] = 1.0;  // we came from there; p is on this side by construction
        continue;
      }
      o[i] = orient2d_fast(point(v[(i + 1) % 3]), point(v[(i + 2) % 3]), p);
      if (o[i] < 0.0) neg[nneg++] = i;
      if (o[i] == 0.0) zero_mask |= 1 << i;
    }
    if (nneg == 0) {
      // Inside or on boundary of this triangle.
      const int nzero = (zero_mask & 1) + ((zero_mask >> 1) & 1) +
                        ((zero_mask >> 2) & 1);
      last_tri_ = t;
      res.tri = t;
      if (nzero == 0) {
        res.kind = LocateResult::Kind::kInside;
      } else if (nzero == 1) {
        res.kind = LocateResult::Kind::kOnEdge;
        res.edge = zero_mask == 1 ? 0 : (zero_mask == 2 ? 1 : 2);
      } else {
        // On the vertex shared by the two zero edges.
        int e0 = -1, e1 = -1;
        for (int i = 0; i < 3; ++i) {
          if (zero_mask & (1 << i)) (e0 < 0 ? e0 : e1) = i;
        }
        res.kind = LocateResult::Kind::kOnVertex;
        res.edge = 3 - e0 - e1;
      }
      return res;
    }
    // Cross a random violated edge (stochastic walk: terminates with exact
    // predicates).
    const int cross = neg[nneg == 1 ? 0 : static_cast<int>(next_rand() % static_cast<unsigned>(nneg))];
    const TriIndex nb = tn(t)[cross];
    if (tri_ghost(nb)) {
      last_tri_ = t;
      res.kind = LocateResult::Kind::kOutside;
      res.tri = nb;
      return res;
    }
    // Entering nb across the shared edge; find its slot in nb.
    came_from = -1;
    const auto& nbn = tn(nb);
    for (int i = 0; i < 3; ++i) {
      if (nbn[i] == t) {
        came_from = i;
        break;
      }
    }
    t = nb;
  }
  throw std::logic_error("locate: walk failed to terminate");
}

VertIndex DelaunayMesh::insert_into_cavity(Vec2 p, const TriIndex* seeds,
                                           std::size_t nseeds,
                                           bool respect_constraints) {
  find_cavity(p, seeds, nseeds, respect_constraints);
  return fill_cavity(p);
}

void DelaunayMesh::fit_cavity_marks() {
  if (in_cavity_mark_.size() < tri_v_.size()) {
    in_cavity_mark_.resize(tri_v_.size() + tri_v_.size() / 2 + 8, 0);
  }
}

void DelaunayMesh::drop_cavity() {
  for (const TriIndex t : cavity_) in_cavity_mark_[static_cast<size_t>(t)] = 0;
}

void DelaunayMesh::find_cavity(Vec2 p, const TriIndex* seeds,
                               std::size_t nseeds, bool respect_constraints) {
  fit_cavity_marks();
  cavity_.clear();
  cavity_stack_.clear();
  for (std::size_t s = 0; s < nseeds; ++s) {
    cavity_stack_.push_back(seeds[s]);
    in_cavity_mark_[static_cast<size_t>(seeds[s])] = 1;
  }

  while (!cavity_stack_.empty()) {
    const TriIndex t = cavity_stack_.back();
    cavity_stack_.pop_back();
    cavity_.push_back(t);
    const auto& n = tn(t);
    for (int i = 0; i < 3; ++i) {
      const TriIndex nb = n[i];
      if (nb == kNoTri || in_cavity_mark_[static_cast<size_t>(nb)]) continue;
      if (respect_constraints && tri_constrained(t, i)) continue;
      if (in_cavity(nb, p)) {
        in_cavity_mark_[static_cast<size_t>(nb)] = 1;
        cavity_stack_.push_back(nb);
      }
    }
  }
}

VertIndex DelaunayMesh::fill_cavity(Vec2 p) {
  const auto vi = static_cast<VertIndex>(points_.size());
  points_.push_back(p);
  vert_tri_.push_back(kNoTri);

  // Collect the directed boundary cycle of the cavity. Edge i of cavity
  // triangle t runs (v[i+1], v[i+2]) with the cavity on its left.
  boundary_.clear();
  for (const TriIndex t : cavity_) {
    const auto& v = tv(t);
    const auto& n = tn(t);
    for (int i = 0; i < 3; ++i) {
      const TriIndex nb = n[i];
      if (nb != kNoTri && in_cavity_mark_[static_cast<size_t>(nb)]) continue;
      int nb_edge = -1;
      const auto& nbn = tn(nb);
      for (int j = 0; j < 3; ++j) {
        if (nbn[j] == t) {
          nb_edge = j;
          break;
        }
      }
      // Region inheritance: a new triangle occupies the region of the
      // cavity triangle that owned its boundary edge. Ghost owners mean the
      // hull is being extended, which only happens during construction
      // (pre-carve), where everything is inside.
      boundary_.push_back({v[(i + 1) % 3], v[(i + 2) % 3], nb, nb_edge,
                           tri_constrained(t, i),
                           v[2] == kGhost ? true : tri_inside(t)});
    }
  }

  // Star retriangulation: one new triangle (vi, a, b) per boundary edge.
  // Rotate storage so a ghost vertex always lands in slot 2. `fan_start_`
  // maps a boundary edge's start vertex (slot a+1; kGhost lands at 0) to
  // its fresh triangle; first write wins, matching the map semantics the
  // pinched-cavity constrained case relies on.
  if (fan_start_.size() < points_.size() + 1) {
    fan_start_.resize(points_.size() + points_.size() / 2 + 2, kNoTri);
  }
  fresh_.clear();
  for (const CavityEdge& be : boundary_) {
    const TriIndex nt = new_tri();
    if (be.a == kGhost) {
      tv(nt) = {be.b, vi, kGhost};
      set_flag(nt, kInside, false);
    } else if (be.b == kGhost) {
      tv(nt) = {vi, be.a, kGhost};
      set_flag(nt, kInside, false);
    } else {
      tv(nt) = {vi, be.a, be.b};
      set_flag(nt, kInside, be.inside_region);
      ++live_finite_;
    }
    // Wire across the boundary edge (the slot opposite vi).
    const int s_ab = index_of(nt, vi);
    link(nt, s_ab, be.outside, be.outside_edge);
    set_constrained(nt, s_ab, be.constrained);
    set_constrained(be.outside, be.outside_edge, be.constrained);
    TriIndex& start = fan_start_[static_cast<size_t>(be.a + 1)];
    if (start == kNoTri) start = nt;
    fresh_.push_back(nt);
  }

  // Wire the fan: triangle for boundary edge (a, b) shares edge {vi, b} with
  // the triangle for the boundary edge starting at b.
  for (std::size_t idx = 0; idx < boundary_.size(); ++idx) {
    const CavityEdge& be = boundary_[idx];
    const TriIndex nt = fresh_[idx];
    const TriIndex mt2 = fan_start_[static_cast<size_t>(be.b + 1)];
    assert(mt2 != kNoTri);
    // In nt, the edge {vi, b} is the one excluding a.
    const int slot_nt = index_of(nt, be.a);
    // In mt2 (edge (b, c)), the edge {vi, b} is the one excluding c, i.e.
    // excluding the vertex that is neither vi nor b.
    const auto& v2 = tv(mt2);
    int slot_m2 = -1;
    for (int i = 0; i < 3; ++i) {
      if (v2[i] != vi && v2[i] != be.b) {
        slot_m2 = i;
        break;
      }
    }
    link(nt, slot_nt, mt2, slot_m2);
  }

  // Reset the touched arena entries (O(cavity), not O(mesh)).
  for (const CavityEdge& be : boundary_) {
    fan_start_[static_cast<size_t>(be.a + 1)] = kNoTri;
  }
  for (const TriIndex t : cavity_) {
    in_cavity_mark_[static_cast<size_t>(t)] = 0;
    kill_tri(t);
  }
  for (const TriIndex t : fresh_) set_vert_tri(t);
  if (!fresh_.empty()) {
    // Prefer a finite triangle as the next walk hint.
    last_tri_ = fresh_[0];
    for (const TriIndex t : fresh_) {
      if (!tri_ghost(t)) {
        last_tri_ = t;
        break;
      }
    }
  }
  return vi;
}

VertIndex DelaunayMesh::insert_point(Vec2 p, bool respect_constraints,
                                     TriIndex hint) {
  // Sampled: point insertion is the per-triangle hot path; recording every
  // call would swamp the trace buffer, a 1/256 sample still shows the
  // latency shape of the Bowyer-Watson cavity walk.
  AERO_TRACE_SPAN_SAMPLED("delaunay", "bw_insert", 256);
  const LocateResult loc = locate(p, hint);
  switch (loc.kind) {
    case LocateResult::Kind::kOnVertex:
      return tv(loc.tri)[loc.edge];
    case LocateResult::Kind::kOnEdge: {
      if (tri_constrained(loc.tri, loc.edge)) {
        return insert_point_on_edge(p, loc.tri, loc.edge);
      }
      const TriIndex seeds[2] = {loc.tri, tn(loc.tri)[loc.edge]};
      return insert_into_cavity(p, seeds, 2, respect_constraints);
    }
    case LocateResult::Kind::kInside:
    case LocateResult::Kind::kOutside: {
      const TriIndex seeds[1] = {loc.tri};
      return insert_into_cavity(p, seeds, 1, respect_constraints);
    }
  }
  return -1;  // unreachable
}

VertIndex DelaunayMesh::insert_point_on_edge(Vec2 p, TriIndex t, int edge) {
  const VertIndex u = tv(t)[(edge + 1) % 3];
  const VertIndex w = tv(t)[(edge + 2) % 3];
  const TriIndex s = tn(t)[edge];
  assert(s != kNoTri);
  int sedge = -1;
  {
    const auto& sn = tn(s);
    for (int i = 0; i < 3; ++i) {
      if (sn[i] == t) {
        sedge = i;
        break;
      }
    }
  }
  const bool was_constrained = tri_constrained(t, edge);
  // Temporarily unmark so the cavity can span both sides of the split edge.
  set_constrained(t, edge, false);
  set_constrained(s, sedge, false);

  const TriIndex seeds[2] = {t, s};
  const VertIndex vi = insert_into_cavity(p, seeds, 2,
                                          /*respect_constraints=*/true);
  if (was_constrained) {
    for (const VertIndex end : {u, w}) {
      const auto [et, eslot] = find_edge(vi, end);
      assert(et != kNoTri);
      set_constrained(et, eslot, true);
      const TriIndex other = tn(et)[eslot];
      const auto& on = tn(other);
      for (int i = 0; i < 3; ++i) {
        if (on[i] == et) set_constrained(other, i, true);
      }
    }
  }
  return vi;
}

std::pair<TriIndex, int> DelaunayMesh::find_edge(VertIndex u,
                                                 VertIndex w) const {
  const TriIndex start = vert_tri_[static_cast<size_t>(u)];
  if (start == kNoTri) return {kNoTri, -1};
  TriIndex t = start;
  // Rotate around u; the sphere topology guarantees the orbit closes.
  do {
    const int k = index_of(t, u);
    assert(k >= 0);
    if (tv(t)[(k + 1) % 3] == w) {
      // Directed edge (u, w) is edge (k+... ) — edge containing (u, w) is the
      // one excluding the third vertex, slot (k + 2) % 3.
      return {t, (k + 2) % 3};
    }
    // Advance: cross the edge (v[k+2], v[k]) to rotate around u.
    t = tn(t)[(k + 1) % 3];
  } while (t != start && t != kNoTri);
  return {kNoTri, -1};
}

void DelaunayMesh::insert_segment(VertIndex u, VertIndex w) {
  if (u == w) return;
  const auto mark_constrained = [this](TriIndex t, int slot) {
    set_constrained(t, slot, true);
    const TriIndex o = tn(t)[slot];
    const auto& on = tn(o);
    for (int i = 0; i < 3; ++i) {
      if (on[i] == t) set_constrained(o, i, true);
    }
  };
  {
    const auto [t, slot] = find_edge(u, w);
    if (t != kNoTri) {
      mark_constrained(t, slot);
      return;
    }
  }

  const Vec2 pu = point(u);
  const Vec2 pw = point(w);

  // Scan the wedge fan around u: either a vertex lies exactly on the open
  // segment (split and recurse), or we find the triangle whose far edge the
  // segment exits through. For the CCW triangle (u, a, b) whose wedge
  // contains the direction u->w, a lies right of the line and b lies left.
  const TriIndex start = vert_tri_[static_cast<size_t>(u)];
  TriIndex entry = kNoTri;
  VertIndex split_vertex = kGhost;
  {
    TriIndex t = start;
    do {
      const auto& v = tv(t);
      const int k = index_of(t, u);
      const VertIndex a = v[(k + 1) % 3];
      const VertIndex b = v[(k + 2) % 3];
      if (v[2] != kGhost && a != kGhost && b != kGhost) {
        const double oa = orient2d(pu, pw, point(a));
        const double ob = orient2d(pu, pw, point(b));
        if (oa == 0.0 && (point(a) - pu).dot(pw - pu) > 0.0 &&
            distance2(point(a), pu) < distance2(pw, pu)) {
          split_vertex = a;
          break;
        }
        if (ob == 0.0 && (point(b) - pu).dot(pw - pu) > 0.0 &&
            distance2(point(b), pu) < distance2(pw, pu)) {
          split_vertex = b;
          break;
        }
        if (oa < 0.0 && ob > 0.0) {
          entry = t;
          break;
        }
      }
      t = tn(t)[(k + 1) % 3];
    } while (t != start);
  }
  if (split_vertex != kGhost) {
    insert_segment(u, split_vertex);
    insert_segment(split_vertex, w);
    return;
  }
  if (entry == kNoTri) {
    throw std::logic_error("insert_segment: no crossing wedge found");
  }

  // Walk the channel from u to w once, collecting every crossing edge as a
  // vertex pair (stable across flips). A vertex exactly on the open segment
  // splits the insertion.
  std::deque<std::pair<VertIndex, VertIndex>> queue;
  {
    TriIndex cur = entry;
    int cure = index_of(entry, u);
    while (true) {
      const VertIndex a = tv(cur)[(cure + 1) % 3];
      const VertIndex b = tv(cur)[(cure + 2) % 3];
      if (tri_constrained(cur, cure)) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "insert_segment: segment (%.17g,%.17g)-(%.17g,%.17g) "
                      "crosses constrained edge (%.17g,%.17g)-(%.17g,%.17g)",
                      pu.x, pu.y, pw.x, pw.y, point(a).x, point(a).y,
                      point(b).x, point(b).y);
        throw std::logic_error(buf);
      }
      queue.emplace_back(a, b);

      const TriIndex nb = tn(cur)[cure];
      const auto& nn = tn(nb);
      int nbslot = -1;
      for (int i = 0; i < 3; ++i) {
        if (nn[i] == cur) nbslot = i;
      }
      const VertIndex q = tv(nb)[nbslot];
      if (q == w) break;  // reached the far endpoint
      if (q == kGhost) {
        throw std::logic_error("insert_segment: channel left the hull");
      }
      const double oq = orient2d(pu, pw, point(q));
      if (oq == 0.0) {
        insert_segment(u, q);
        insert_segment(q, w);
        return;
      }
      // The segment continues through (q, a) or (q, b), whichever straddles.
      const int qslot = nbslot;
      // In nb, q is at qslot; edges (q, a) and (q, b) are the two slots
      // other than qslot; pick by which far vertex lies across the line.
      cure = oq > 0.0 ? (qslot + 2) % 3   // continue through edge (b, q)?
                      : (qslot + 1) % 3;
      // Edge (cure) of nb excludes its vertex `cure`; verify it straddles:
      // its endpoints are q and one of a/b with opposite orientation signs.
      {
        const VertIndex e1 = tv(nb)[(cure + 1) % 3];
        const VertIndex e2 = tv(nb)[(cure + 2) % 3];
        const double o1 = orient2d(pu, pw, point(e1));
        const double o2 = orient2d(pu, pw, point(e2));
        if (!((o1 > 0.0 && o2 < 0.0) || (o1 < 0.0 && o2 > 0.0))) {
          // Picked the wrong side; take the other non-shared edge.
          cure = oq > 0.0 ? (qslot + 1) % 3 : (qslot + 2) % 3;
        }
      }
      cur = nb;
    }
  }

  // Sloan's forcing loop: pop a crossing edge; if its quad is strictly
  // convex, flip it (the new diagonal is re-queued if it still crosses);
  // otherwise re-queue it and let its neighbors be processed first.
  std::vector<std::pair<VertIndex, VertIndex>> new_edges;
  std::size_t stall = 0;
  const std::size_t stall_limit = 64 + 8 * queue.size() * queue.size();
  while (!queue.empty()) {
    const auto [a, b] = queue.front();
    queue.pop_front();
    const auto [t, slot] = find_edge(a, b);
    if (t == kNoTri) continue;  // removed by an earlier flip
    {
      // Still crossing (u, w)?
      const double oa = orient2d(pu, pw, point(a));
      const double ob = orient2d(pu, pw, point(b));
      if (!((oa > 0.0 && ob < 0.0) || (oa < 0.0 && ob > 0.0))) continue;
    }
    const int e = (slot + 0) % 3;  // edge slot containing (a, b) is `slot`
    const VertIndex p = tv(t)[e];
    const TriIndex s = tn(t)[e];
    int sedge = -1;
    {
      const auto& sn = tn(s);
      for (int i = 0; i < 3; ++i) {
        if (sn[i] == t) sedge = i;
      }
    }
    const VertIndex q = tv(s)[sedge];
    bool convex = false;
    if (q != kGhost && p != kGhost) {
      const double op1 = orient2d(point(p), point(q), point(a));
      const double op2 = orient2d(point(p), point(q), point(b));
      convex = (op1 > 0.0 && op2 < 0.0) || (op1 < 0.0 && op2 > 0.0);
    }
    if (!convex) {
      queue.emplace_back(a, b);
      if (++stall > stall_limit) {
        throw std::logic_error("insert_segment: flip forcing stalled");
      }
      continue;
    }
    stall = 0;
    flip_edge(t, e);
    new_edges.emplace_back(p, q);
    // Re-queue the new diagonal if it still crosses the segment.
    const double op = orient2d(pu, pw, point(p));
    const double oq = orient2d(pu, pw, point(q));
    if ((op > 0.0 && oq < 0.0) || (op < 0.0 && oq > 0.0)) {
      queue.emplace_back(p, q);
    }
  }

  {
    const auto [et, eslot] = find_edge(u, w);
    if (et == kNoTri) {
      throw std::logic_error("insert_segment: edge missing after forcing");
    }
    mark_constrained(et, eslot);
  }

  // Restore the constrained-Delaunay property around the edges the forcing
  // pass created.
  for (const auto& [a, b] : new_edges) {
    const auto [et, eslot] = find_edge(a, b);
    if (et != kNoTri) legalize_edge(et, eslot);
  }
}

void DelaunayMesh::carve(const std::vector<Vec2>& hole_seeds) {
  std::vector<TriIndex> stack;
  // Phase 1: everything reachable from the outer face without crossing a
  // constrained edge is outside.
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v_.size()); ++t) {
    if (tri_dead(t)) continue;
    if (tri_ghost(t)) {
      set_flag(t, kInside, false);
      stack.push_back(t);
    } else {
      set_flag(t, kInside, true);
    }
  }
  auto flood = [this, &stack]() {
    while (!stack.empty()) {
      const TriIndex t = stack.back();
      stack.pop_back();
      const auto& n = tn(t);
      for (int i = 0; i < 3; ++i) {
        if (tri_constrained(t, i)) continue;
        const TriIndex nb = n[i];
        if (nb == kNoTri) continue;
        if (tri_dead(nb) || !tri_inside(nb)) continue;
        set_flag(nb, kInside, false);
        stack.push_back(nb);
      }
    }
  };
  flood();

  // Phase 2: hole seeds.
  for (const Vec2 h : hole_seeds) {
    const LocateResult loc = locate(h);
    if (loc.kind == LocateResult::Kind::kOutside) continue;
    if (!tri_inside(loc.tri)) continue;
    set_flag(loc.tri, kInside, false);
    stack.push_back(loc.tri);
    flood();
  }
}

void DelaunayMesh::flip_edge(TriIndex t, int edge) {
  const TriIndex s = tn(t)[edge];
  assert(!tri_ghost(t) && !tri_ghost(s));
  int sedge = -1;
  {
    const auto& sn = tn(s);
    for (int i = 0; i < 3; ++i) {
      if (sn[i] == t) sedge = i;
    }
  }
  assert(sedge >= 0);

  const VertIndex p = tv(t)[edge];
  const VertIndex a = tv(t)[(edge + 1) % 3];
  const VertIndex b = tv(t)[(edge + 2) % 3];
  const VertIndex q = tv(s)[sedge];
  assert(tv(s)[(sedge + 1) % 3] == b && tv(s)[(sedge + 2) % 3] == a);

  const TriIndex t_bp = tn(t)[(edge + 1) % 3];
  const TriIndex t_pa = tn(t)[(edge + 2) % 3];
  const bool c_bp = tri_constrained(t, (edge + 1) % 3);
  const bool c_pa = tri_constrained(t, (edge + 2) % 3);
  const TriIndex s_aq = tn(s)[(sedge + 1) % 3];
  const TriIndex s_qb = tn(s)[(sedge + 2) % 3];
  const bool c_aq = tri_constrained(s, (sedge + 1) % 3);
  const bool c_qb = tri_constrained(s, (sedge + 2) % 3);

  // Reuse storage: t becomes (p, a, q), s becomes (q, b, p).
  tv(t) = {p, a, q};
  set_constrained(t, 0, c_aq);
  set_constrained(t, 1, false);
  set_constrained(t, 2, c_pa);
  tv(s) = {q, b, p};
  set_constrained(s, 0, c_bp);
  set_constrained(s, 1, false);
  set_constrained(s, 2, c_qb);
  tn(t) = {s_aq, s, t_pa};
  tn(s) = {t_bp, t, s_qb};

  // Fix the two backlinks that changed owners.
  {
    const auto& v_aq = tv(s_aq);
    auto& n_aq = tn(s_aq);
    for (int i = 0; i < 3; ++i) {
      if (n_aq[i] == s && v_aq[(i + 1) % 3] == q && v_aq[(i + 2) % 3] == a) {
        n_aq[i] = t;
      }
    }
  }
  {
    const auto& v_bp = tv(t_bp);
    auto& n_bp = tn(t_bp);
    for (int i = 0; i < 3; ++i) {
      if (n_bp[i] == t && v_bp[(i + 1) % 3] == p && v_bp[(i + 2) % 3] == b) {
        n_bp[i] = s;
      }
    }
  }

  vert_tri_[static_cast<size_t>(p)] = t;
  vert_tri_[static_cast<size_t>(a)] = t;
  vert_tri_[static_cast<size_t>(q)] = s;
  vert_tri_[static_cast<size_t>(b)] = s;
  last_tri_ = t;
}

void DelaunayMesh::legalize_edge(TriIndex t0, int e0) {
  legalize_stack_.clear();
  legalize_stack_.push_back({t0, e0});
  while (!legalize_stack_.empty()) {
    const auto [t, e] = legalize_stack_.back();
    legalize_stack_.pop_back();
    if (tri_dead(t) || tri_ghost(t) || tri_constrained(t, e)) continue;
    const TriIndex s = tn(t)[e];
    if (tri_ghost(s)) continue;
    int sedge = -1;
    {
      const auto& sn = tn(s);
      for (int i = 0; i < 3; ++i) {
        if (sn[i] == t) sedge = i;
      }
    }
    const VertIndex q = tv(s)[sedge];
    const auto& v = tv(t);
    if (incircle_fast(point(v[0]), point(v[1]), point(v[2]), point(q)) >
        0.0) {
      flip_edge(t, e);
      // After the flip t = (p, a, q) and s = (q, b, p); re-examine the four
      // outer edges (the re-check before each flip keeps this safe even if a
      // queued (tri, slot) pair has been reused by a later flip).
      legalize_stack_.push_back({t, 0});
      legalize_stack_.push_back({t, 2});
      legalize_stack_.push_back({s, 0});
      legalize_stack_.push_back({s, 2});
    }
  }
}

bool DelaunayMesh::check_topology() const {
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v_.size()); ++t) {
    if (tri_dead(t)) continue;
    const auto& v = tv(t);
    const auto& n = tn(t);
    if (!tri_ghost(t)) {
      if (orient2d(point(v[0]), point(v[1]), point(v[2])) <= 0.0) {
        return false;  // not CCW / degenerate
      }
    } else if (v[0] == kGhost || v[1] == kGhost) {
      return false;  // ghost vertex must be in slot 2
    }
    for (int i = 0; i < 3; ++i) {
      const TriIndex nb = n[i];
      if (nb == kNoTri) return false;  // sphere: every edge has two sides
      if (tri_dead(nb)) return false;
      const auto& nbn = tn(nb);
      int back = -1;
      for (int j = 0; j < 3; ++j) {
        if (nbn[j] == t) back = j;
      }
      if (back < 0) return false;  // adjacency not mutual
      // Shared edge must have the same vertex set, opposite direction.
      const VertIndex a = v[(i + 1) % 3];
      const VertIndex b = v[(i + 2) % 3];
      const VertIndex c = tv(nb)[(back + 1) % 3];
      const VertIndex d = tv(nb)[(back + 2) % 3];
      if (!(a == d && b == c)) return false;
      if (tri_constrained(t, i) != tri_constrained(nb, back)) return false;
    }
  }
  return true;
}

bool DelaunayMesh::check_delaunay() const {
  for (TriIndex t = 0; t < static_cast<TriIndex>(tri_v_.size()); ++t) {
    if (!is_live_finite(t)) continue;
    const auto& v = tv(t);
    for (int i = 0; i < 3; ++i) {
      if (tri_constrained(t, i)) continue;
      const TriIndex nb = tn(t)[i];
      if (tri_ghost(nb)) continue;
      int back = -1;
      const auto& nbn = tn(nb);
      for (int j = 0; j < 3; ++j) {
        if (nbn[j] == t) back = j;
      }
      const VertIndex apex = tv(nb)[back];
      if (incircle(point(v[0]), point(v[1]), point(v[2]), point(apex)) >
          0.0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace aero
