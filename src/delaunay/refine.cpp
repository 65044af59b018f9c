#include "delaunay/refine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <thread>

#include "geom/predicates.hpp"
#include "geom/predicates_fast.hpp"
#include "geom/triangle_quality.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aero {

namespace {

/// The refiner compacts only once this many triangle slots are dead (one
/// arena chunk): below that a pass frees at most one chunk per array.
constexpr std::size_t kCompactFloor = std::size_t{1} << 14;

}  // namespace

RuppertRefiner::RuppertRefiner(DelaunayMesh& mesh, RefineOptions options)
    : mesh_(mesh), opts_(std::move(options)) {}

bool RuppertRefiner::triangle_is_bad(TriIndex t) const {
  const auto& v = mesh_.tv(t);
  const Vec2 a = mesh_.point(v[0]);
  const Vec2 b = mesh_.point(v[1]);
  const Vec2 c = mesh_.point(v[2]);
  const double area = signed_area(a, b, c);
  if (area > opts_.max_area) return true;
  if (opts_.sizing) {
    const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
    if (area > opts_.sizing(centroid)) return true;
  }
  if (radius_edge_exceeds(a, b, c, opts_.radius_edge_bound)) {
    // Seditious-edge guard: if the shortest edge joins two shell points of
    // the same small-angle cluster, splitting would ping-pong forever; the
    // triangle's smallest angle is already bounded by the cluster geometry.
    const double lab = distance2(a, b), lbc = distance2(b, c),
                 lca = distance2(c, a);
    VertIndex e0, e1;
    if (lab <= lbc && lab <= lca) {
      e0 = v[0];
      e1 = v[1];
    } else if (lbc <= lca) {
      e0 = v[1];
      e1 = v[2];
    } else {
      e0 = v[2];
      e1 = v[0];
    }
    const VertIndex o0 = shell_origin_[static_cast<size_t>(e0)];
    const VertIndex o1 = shell_origin_[static_cast<size_t>(e1)];
    return o0 == kGhost || o0 != o1;  // same cluster: seditious, not bad
  }
  return false;
}

bool RuppertRefiner::edge_is_encroached(TriIndex t, int slot) const {
  const auto& v = mesh_.tv(t);
  const Vec2 a = mesh_.point(v[(slot + 1) % 3]);
  const Vec2 b = mesh_.point(v[(slot + 2) % 3]);
  // A vertex encroaches iff it lies strictly inside the diametral circle,
  // i.e. it sees the segment under an angle > 90 degrees.
  const auto apex_encroaches = [&](VertIndex apex) {
    if (apex == kGhost) return false;
    const Vec2 p = mesh_.point(apex);
    return (a - p).dot(b - p) < 0.0;
  };
  if (apex_encroaches(v[slot])) return true;
  const TriIndex s = mesh_.tn(t)[slot];
  const auto& sn = mesh_.tn(s);
  for (int i = 0; i < 3; ++i) {
    if (sn[i] == t) return apex_encroaches(mesh_.tv(s)[i]);
  }
  return false;
}

RuppertRefiner::Walk RuppertRefiner::walk_to(Vec2 c, TriIndex t) const {
  Walk w;
  int came_from = -1;
  const std::size_t guard = 4 * mesh_.triangle_slots() + 16;
  for (std::size_t step = 0; step < guard; ++step) {
    const auto& v = mesh_.tv(t);
    int cross = -1;
    int zeros = 0;
    for (int i = 0; i < 3; ++i) {
      if (i == came_from) continue;
      const double o = orient2d_fast(mesh_.point(v[(i + 1) % 3]),
                                     mesh_.point(v[(i + 2) % 3]), c);
      if (o < 0.0) {
        cross = i;
        break;
      }
      if (o == 0.0) ++zeros;
    }
    if (cross < 0) {
      w.tri = t;
      w.on_vertex = zeros >= 2;
      return w;
    }
    if (mesh_.tri_constrained(t, cross)) {
      w.blocked = true;
      w.tri = t;
      w.edge = cross;
      return w;
    }
    const TriIndex nb = mesh_.tn(t)[cross];
    if (mesh_.tri_ghost(nb)) {
      // Circumcenter beyond an unconstrained hull edge; treat like a
      // blocking edge so the caller skips this triangle.
      w.blocked = true;
      w.tri = t;
      w.edge = cross;
      return w;
    }
    came_from = -1;
    const auto& nn = mesh_.tn(nb);
    for (int i = 0; i < 3; ++i) {
      if (nn[i] == t) came_from = i;
    }
    t = nb;
  }
  w.blocked = true;  // should not happen; fail safe
  return w;
}

VertIndex RuppertRefiner::split_segment(VertIndex u, VertIndex w) {
  const auto [t, slot] = mesh_.find_edge(u, w);
  if (t == kNoTri || !mesh_.tri_constrained(t, slot)) return kGhost;

  const Vec2 pu = mesh_.point(u);
  const Vec2 pw = mesh_.point(w);
  if (opts_.splittable && !opts_.splittable(pu, pw)) return kGhost;
  const double len = distance(pu, pw);
  if (len == 0.0) return kGhost;

  // Concentric-shell split: measure a power-of-two distance from an input
  // endpoint so successive splits off the same small-angle vertex land on
  // common circles and stop encroaching each other.
  double frac = 0.5;
  VertIndex origin = kGhost;
  const bool u_input = mesh_.is_input_vertex(u);
  const bool w_input = mesh_.is_input_vertex(w);
  if (u_input || w_input) {
    const double d = std::exp2(std::round(std::log2(len * 0.5)));
    if (u_input) {
      frac = d / len;
      origin = u;
    } else {
      frac = 1.0 - d / len;
      origin = w;
    }
    frac = std::clamp(frac, 0.25, 0.75);
  } else {
    // Interior subsegment: inherit the cluster if both ends share one.
    const VertIndex ou = shell_origin_[static_cast<size_t>(u)];
    const VertIndex ow = shell_origin_[static_cast<size_t>(w)];
    if (ou != kGhost && ou == ow) origin = ou;
  }

  const Vec2 p = lerp(pu, pw, frac);
  if (p == pu || p == pw) return kGhost;  // segment shorter than one ulp

  const VertIndex vi = mesh_.insert_point_on_edge(p, t, slot);
  shell_origin_.resize(mesh_.point_count(), kGhost);
  shell_origin_[static_cast<size_t>(vi)] = origin;
  ++stats_.segment_splits;
  ++stats_.steiner_points;
  scan_star(vi);
  return vi;
}

void RuppertRefiner::scan_star(VertIndex v) {
  const TriIndex start = mesh_.incident_triangle(v);
  if (start == kNoTri) return;
  TriIndex t = start;
  do {
    const int k = mesh_.index_of(t, v);
    assert(k >= 0);
    if (!mesh_.tri_ghost(t) && mesh_.tri_inside(t)) {
      if (triangle_is_bad(t)) tri_queue_.push_back(t);
      const auto& tv = mesh_.tv(t);
      for (int i = 0; i < 3; ++i) {
        if (mesh_.tri_constrained(t, i) && edge_is_encroached(t, i)) {
          seg_queue_.emplace_back(tv[(i + 1) % 3], tv[(i + 2) % 3]);
        }
      }
    }
    t = mesh_.tn(t)[(k + 1) % 3];
  } while (t != start);
}

bool RuppertRefiner::cavity_encroaches(Vec2 c, TriIndex seed) {
  // The mesh's cavity arena, filled in discovery order: the star
  // retriangulation wants the reverse (see refine()).
  std::vector<TriIndex>& cavity = mesh_.cavity_;
  std::vector<TriIndex>& stack = mesh_.cavity_stack_;
  mesh_.fit_cavity_marks();
  std::vector<std::uint8_t>& mark = mesh_.in_cavity_mark_;
  cavity.assign(1, seed);
  stack.assign(1, seed);
  mark[static_cast<std::size_t>(seed)] = 1;
  encroached_.clear();
  while (!stack.empty()) {
    const TriIndex t = stack.back();
    stack.pop_back();
    const auto& v = mesh_.tv(t);
    const auto& n = mesh_.tn(t);
    for (int i = 0; i < 3; ++i) {
      if (mesh_.tri_constrained(t, i)) {
        const VertIndex a = v[(i + 1) % 3];
        const VertIndex b = v[(i + 2) % 3];
        if ((mesh_.point(a) - c).dot(mesh_.point(b) - c) < 0.0) {
          encroached_.emplace_back(a, b);
        }
        continue;
      }
      const TriIndex nb = n[i];
      if (nb == kNoTri || mark[static_cast<std::size_t>(nb)]) continue;
      ++stats_.cavity_tests;
      if (mesh_.in_cavity(nb, c)) {
        mark[static_cast<std::size_t>(nb)] = 1;
        cavity.push_back(nb);
        stack.push_back(nb);
      }
    }
  }
  return !encroached_.empty();
}

RefineStats RuppertRefiner::refine() {
  AERO_TRACE_SPAN("delaunay", "ruppert_refine");
  stats_ = RefineStats{};
  shell_origin_.assign(mesh_.point_count(), kGhost);
  seg_queue_.clear();
  tri_queue_.clear();

  // Initial scans. The scan visits live inside triangles in id order; the
  // threaded variant must reproduce that order exactly (the queues drive
  // the insertion sequence, and the refined mesh must not depend on the
  // thread count), so it splits the id space into a fixed chunk count,
  // scans chunks concurrently into per-chunk queues, and concatenates them
  // in chunk order — byte-identical queues, read-only scan.
  const auto scan_one = [this](TriIndex t, std::vector<TriIndex>& tris,
                               std::vector<std::pair<VertIndex, VertIndex>>&
                                   segs) {
    if (!mesh_.tri_inside(t)) return;
    if (triangle_is_bad(t)) tris.push_back(t);
    const auto& v = mesh_.tv(t);
    for (int i = 0; i < 3; ++i) {
      if (mesh_.tri_constrained(t, i) && edge_is_encroached(t, i)) {
        segs.emplace_back(v[(i + 1) % 3], v[(i + 2) % 3]);
      }
    }
  };
  const auto total = static_cast<TriIndex>(mesh_.triangle_slots());
  const int threads = std::max(1, opts_.threads);
  if (threads > 1 && total >= 16384) {
    constexpr std::size_t kChunks = 64;  // fixed: independent of `threads`
    const auto chunk_len =
        static_cast<TriIndex>((total + kChunks - 1) / kChunks);
    std::vector<std::vector<TriIndex>> chunk_tris(kChunks);
    std::vector<std::vector<std::pair<VertIndex, VertIndex>>> chunk_segs(
        kChunks);
    const auto scan_chunk = [&](std::size_t c) {
      const TriIndex lo = static_cast<TriIndex>(c) * chunk_len;
      const TriIndex hi = std::min<TriIndex>(total, lo + chunk_len);
      for (TriIndex t = lo; t < hi; ++t) {
        if (mesh_.is_live_finite(t)) {
          scan_one(t, chunk_tris[c], chunk_segs[c]);
        }
      }
    };
    std::vector<std::thread> team;
    team.reserve(static_cast<std::size_t>(threads - 1));
    for (int w = 1; w < threads; ++w) {
      team.emplace_back([&, w] {
        for (std::size_t c = static_cast<std::size_t>(w); c < kChunks;
             c += static_cast<std::size_t>(threads)) {
          scan_chunk(c);
        }
      });
    }
    for (std::size_t c = 0; c < kChunks;
         c += static_cast<std::size_t>(threads)) {
      scan_chunk(c);
    }
    for (std::thread& t : team) t.join();
    for (std::size_t c = 0; c < kChunks; ++c) {
      tri_queue_.insert(tri_queue_.end(), chunk_tris[c].begin(),
                        chunk_tris[c].end());
      seg_queue_.insert(seg_queue_.end(), chunk_segs[c].begin(),
                        chunk_segs[c].end());
    }
  } else {
    mesh_.for_each_triangle([&](TriIndex t) {
      scan_one(t, tri_queue_, seg_queue_);
    });
  }

  while (!seg_queue_.empty() || !tri_queue_.empty()) {
    if (stats_.steiner_points >= opts_.max_steiner) {
      stats_.hit_steiner_cap = true;
      break;
    }
    // Between iterations the queue is the only holder of triangle ids, so
    // the mesh may drop its dead slots here. Compacting only once they
    // outnumber the live ones keeps the passes amortised O(1) per insertion.
    const std::size_t dead = mesh_.dead_slots();
    if (dead >= kCompactFloor && dead > mesh_.triangle_slots() - dead) {
      mesh_.compact(tri_queue_);
      // The queue may have held only dead ids: check the loop again.
      if (seg_queue_.empty() && tri_queue_.empty()) continue;
    }

    // Encroached segments take priority (Ruppert's ordering).
    if (!seg_queue_.empty()) {
      const auto [u, w] = seg_queue_.back();
      seg_queue_.pop_back();
      const auto [t, slot] = mesh_.find_edge(u, w);
      if (t == kNoTri || !mesh_.tri_constrained(t, slot)) continue;
      if (!edge_is_encroached(t, slot)) continue;
      split_segment(u, w);
      continue;
    }

    const TriIndex t = tri_queue_.back();
    tri_queue_.pop_back();
    // Only live, inside, bad triangles are queued, and a live triangle
    // never changes: insertions append new slots and kill old ones, and a
    // compaction keeps the survivors as they were. Badness reads only the
    // corners, the sizing and shell origins fixed at each vertex's birth,
    // so the one thing to re-check is whether an insertion killed it.
    if (mesh_.tri_dead(t)) continue;

    const auto& v = mesh_.tv(t);
    const Vec2 cc = circumcenter(mesh_.point(v[0]), mesh_.point(v[1]),
                                 mesh_.point(v[2]));

    const Walk walk = walk_to(cc, t);
    if (walk.blocked) {
      // The circumcenter lies beyond a constrained edge: that edge is
      // (deemed) encroached; split it and revisit the triangle.
      if (mesh_.tri_constrained(walk.tri, walk.edge)) {
        const auto& bv = mesh_.tv(walk.tri);
        const VertIndex u = bv[(walk.edge + 1) % 3];
        const VertIndex w = bv[(walk.edge + 2) % 3];
        if (split_segment(u, w) != kGhost) tri_queue_.push_back(t);
      }
      continue;
    }
    if (walk.on_vertex) continue;  // circumcenter duplicates a vertex

    // Ruppert pre-check: would the circumcenter encroach any constrained
    // segment on its cavity boundary? If so, split those segments instead.
    // A circumcenter on a constrained edge of walk.tri encroaches it, so
    // past this point it lies inside walk.tri or on one of its
    // unconstrained edges, and the searched cavity is the one to fill.
    if (cavity_encroaches(cc, walk.tri)) {
      mesh_.drop_cavity();
      bool any = false;
      for (const auto& [u, w] : encroached_) {
        if (split_segment(u, w) != kGhost) any = true;
      }
      if (any) tri_queue_.push_back(t);
      continue;
    }

    // Born in the order a search from every cavity triangle as a seed
    // would pop them: the reverse of discovery.
    std::reverse(mesh_.cavity_.begin(), mesh_.cavity_.end());
    const VertIndex vi = mesh_.fill_cavity(cc);
    shell_origin_.resize(mesh_.point_count(), kGhost);
    ++stats_.circumcenters;
    ++stats_.steiner_points;
    scan_star(vi);
  }

  // Flush once per refinement run (not per point): registry lookups lock.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("delaunay.refine_calls").add(1);
  reg.counter("delaunay.steiner_points").add(stats_.steiner_points);
  reg.counter("delaunay.circumcenters").add(stats_.circumcenters);
  reg.counter("delaunay.cavity_tests").add(stats_.cavity_tests);
  if (stats_.hit_steiner_cap) reg.counter("delaunay.steiner_cap_hits").add(1);
  reg.histogram("delaunay.steiner_per_refine")
      .observe(static_cast<double>(stats_.steiner_points));
  return stats_;
}

}  // namespace aero
