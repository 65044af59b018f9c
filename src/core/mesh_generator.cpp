#include "core/mesh_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/pipeline_config.hpp"
#include "geom/predicates.hpp"
#include "geom/segment.hpp"
#include "obs/trace.hpp"
#include "spatial/adt.hpp"

namespace aero {

namespace {

/// Exact removal of every live triangle that crosses or lies inside the
/// airfoil element bounded by `surface`. Needed because concave surface
/// stretches (coves) are legitimately non-Delaunay -- their surface edges
/// can be absent from the cloud triangulation, letting the ring flood leak
/// into the body interior. ADT-accelerated: candidate surface segments per
/// triangle via extent-box query; deep-inside tests by crossing parity
/// along a rightward ray using the same tree.
void remove_body_overlaps(MergedMesh& mesh, const std::vector<Vec2>& surface) {
  BBox2 box;
  for (const Vec2 p : surface) box.expand(p);
  AlternatingDigitalTree adt(box.inflated(1e-9 + 1e-9 * box.width()));
  std::vector<Segment> segs(surface.size());
  for (std::size_t i = 0; i < surface.size(); ++i) {
    segs[i] = Segment{surface[i], surface[(i + 1) % surface.size()]};
    adt.insert(segs[i].bbox(), static_cast<std::uint32_t>(i));
  }

  // Crossing-parity point-in-element using only ADT candidates.
  const auto inside_element = [&](Vec2 p) {
    if (!box.contains(p)) return false;
    bool inside = false;
    const BBox2 ray_box{{p.x, p.y}, {box.hi.x, p.y}};
    adt.for_each_overlap(ray_box, [&](std::uint32_t i) {
      const Vec2 a = segs[i].a;
      const Vec2 b = segs[i].b;
      if ((a.y <= p.y) != (b.y <= p.y)) {
        const double o = orient2d(a, b, p);
        if (b.y > a.y ? o > 0.0 : o < 0.0) inside = !inside;
      }
    });
    return inside;
  };

  for (std::size_t t = 0; t < mesh.record_count(); ++t) {
    if (!mesh.alive(t)) continue;
    const std::array<std::uint32_t, 3>& tri = mesh.tri(t);
    const Vec2 a = mesh.point(tri[0]);
    const Vec2 b = mesh.point(tri[1]);
    const Vec2 c = mesh.point(tri[2]);
    BBox2 tb;
    tb.expand(a);
    tb.expand(b);
    tb.expand(c);
    if (!tb.intersects(box)) continue;

    bool overlap = false;
    adt.for_each_overlap(tb, [&](std::uint32_t i) {
      if (overlap) return;
      for (const Segment e : {Segment{a, b}, Segment{b, c}, Segment{c, a}}) {
        // Only PROPER crossings mean the triangle straddles the surface.
        // Shared or collinear edges are the normal surface-adjacent case;
        // the centroid test below decides which side they are on.
        const IntersectResult hit = intersect(e, segs[i]);
        if (hit && hit.kind == IntersectKind::kProper) {
          overlap = true;
          return;
        }
      }
    });
    if (!overlap) {
      const Vec2 centroid{(a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0};
      overlap = inside_element(centroid);
    }
    if (overlap) mesh.kill(t);
  }
}

/// Per element, whether the ring flood can reach into it: true if one of
/// its surface edges is not an edge of the mesh, or a ring seed lies in or
/// on it. Otherwise its surface is a closed loop of mesh edges, which no
/// triangle crosses and the flood, blocked there, cannot pass.
std::vector<std::uint8_t> leaky_elements(const MergedMesh& mesh,
                                         const BoundaryLayer& bl) {
  std::vector<std::pair<Vec2, Vec2>> edges;
  for (const auto& surface : bl.surfaces) {
    for (std::size_t i = 0; i < surface.size(); ++i) {
      edges.emplace_back(surface[i], surface[(i + 1) % surface.size()]);
    }
  }
  // missing_edges keeps candidate order, so one pass attributes each
  // missing edge to its element.
  const std::vector<std::pair<Vec2, Vec2>> missing = mesh.missing_edges(edges);
  std::vector<std::uint8_t> leaky(bl.surfaces.size(), 0);
  std::size_t k = 0;
  std::size_t m = 0;
  for (std::size_t e = 0; e < bl.surfaces.size(); ++e) {
    const std::vector<Vec2>& surface = bl.surfaces[e];
    for (std::size_t i = 0; i < surface.size(); ++i, ++k) {
      if (m < missing.size() && missing[m] == edges[k]) {
        leaky[e] = 1;
        ++m;
      }
    }
    BBox2 box;
    for (const Vec2 p : surface) box.expand(p);
    for (const Vec2 seed : bl.ring_seeds) {
      if (leaky[e]) break;
      if (box.contains(seed) && point_in_polygon(seed, surface)) leaky[e] = 1;
    }
  }
  return leaky;
}

/// All surface and outer-border edges of a boundary layer, as the barrier
/// set of the ring flood.
std::vector<std::pair<Vec2, Vec2>> ring_barrier(const BoundaryLayer& bl) {
  std::vector<std::pair<Vec2, Vec2>> barrier;
  for (const auto& surface : bl.surfaces) {
    for (std::size_t i = 0; i < surface.size(); ++i) {
      barrier.emplace_back(surface[i], surface[(i + 1) % surface.size()]);
    }
  }
  for (const auto& border : bl.outer_borders) {
    for (std::size_t i = 0; i < border.size(); ++i) {
      const Vec2 a = border[i];
      const Vec2 b = border[(i + 1) % border.size()];
      if (a != b) barrier.emplace_back(a, b);
    }
  }
  return barrier;
}

/// The boundary-layer phase's one root: the whole deduplicated cloud.
std::vector<WorkUnit> boundary_layer_roots(const BoundaryLayer& bl) {
  std::vector<WorkUnit> roots;
  roots.push_back(WorkUnit{WorkUnit::Kind::kBlDecompose,
                           make_root_subdomain(bl.points),
                           {}});
  return roots;
}

/// The inviscid phase's roots: the four quadrants, then the near-body box.
std::vector<WorkUnit> inviscid_roots(const InviscidDomain& domain) {
  std::vector<WorkUnit> roots;
  for (InviscidSubdomain& quad : initial_quadrants(domain)) {
    roots.push_back(
        WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
  }
  roots.push_back(WorkUnit{WorkUnit::Kind::kInviscidDecouple,
                           {},
                           near_body_subdomain(domain)});
  return roots;
}

}  // namespace

void triangulate_boundary_layer(const BoundaryLayer& bl,
                                const DecomposeOptions& opts,
                                MergedMesh& out, std::size_t* subdomains) {
  const std::size_t leaves = walk_inline(
      boundary_layer_roots(bl), GradedSizing{}, TreeRules{.bl_decompose = opts},
      out);
  if (subdomains) *subdomains = leaves;
  // The Delaunay triangulation of the cloud covers its convex hull; the
  // boundary-layer mesh is only the ring between each surface and its outer
  // border. Airfoil interiors, coves, inter-element gaps, and hull pockets
  // are dropped and meshed isotropically by the near-body refinement.
  restrict_to_ring(out, bl);
}

void restrict_to_ring(MergedMesh& mesh, const BoundaryLayer& bl) {
  const std::vector<std::uint8_t> leaky = leaky_elements(mesh, bl);
  mesh.keep_only(ring_barrier(bl), bl.ring_seeds);
  // Safety pass: concave (cove) surface edges can be legitimately absent
  // from the Delaunay triangulation, letting the flood leak into a body.
  // An element without such an edge keeps the flood out by itself.
  for (std::size_t e = 0; e < bl.surfaces.size(); ++e) {
    if (leaky[e]) remove_body_overlaps(mesh, bl.surfaces[e]);
  }
}

InviscidDomain make_inviscid_domain(const BoundaryLayer& bl,
                                    const Options& opts,
                                    const MergedMesh& bl_mesh) {
  InviscidDomain domain;

  // Sizing: the near-body edge length continues the isotropic transition
  // size of the boundary layer (mean outer-border segment length).
  double mean_border_len = 0.0;
  std::size_t nseg = 0;
  for (const auto& border : bl.outer_borders) {
    for (std::size_t i = 0; i + 1 < border.size(); ++i) {
      mean_border_len += distance(border[i], border[i + 1]);
      ++nseg;
    }
  }
  mean_border_len = nseg > 0 ? mean_border_len / static_cast<double>(nseg)
                             : 0.01 * opts.airfoil.chord;

  BBox2 cloud_box;
  for (const Vec2 p : bl.points) cloud_box.expand(p);
  domain.inner =
      cloud_box.inflated(opts.nearbody_margin * opts.airfoil.chord);
  const Vec2 center = cloud_box.center();
  const double half = opts.farfield_chords * opts.airfoil.chord;
  domain.outer = BBox2{{center.x - half, center.y - half},
                       {center.x + half, center.y + half}};
  domain.sizing =
      GradedSizing{domain.inner,
                   opts.surface_length_factor * mean_border_len,
                   opts.grade};

  // The exact interface: the *actual* boundary of the assembled
  // boundary-layer mesh (minus the airfoil surfaces) becomes the hole
  // border of the near-body subdomain. Deriving it from the mesh rather
  // than from the nominal ray tips makes the two meshes conform by
  // construction, even where a nominal outer-border edge was not a Delaunay
  // edge of the cloud (e.g. around trailing-edge fans).
  std::vector<std::pair<Vec2, Vec2>> surface_edges;
  for (const auto& surface : bl.surfaces) {
    for (std::size_t i = 0; i < surface.size(); ++i) {
      surface_edges.emplace_back(surface[i],
                                 surface[(i + 1) % surface.size()]);
    }
  }
  domain.bl_interface = bl_mesh.boundary_edges(surface_edges);
  // Surface edges with no fluid-side triangle (zero-layer stretches) are
  // exposed directly to the near-body region and bound it too.
  for (const auto& e : bl_mesh.missing_edges(surface_edges)) {
    domain.bl_interface.push_back(e);
  }
  // Canonicalize: boundary_edges reports in triangle-scan order and
  // missing_edges in candidate order; both are deterministic, but neither is
  // the canonical form. The interface feeds the near-body unit's serialized
  // content (and the CDT's constraint insertion order), so checkpoint keys
  // and resumed meshes are bit-stable only if this list is sorted here.
  for (auto& e : domain.bl_interface) {
    if (std::make_pair(e.second.x, e.second.y) <
        std::make_pair(e.first.x, e.first.y)) {
      std::swap(e.first, e.second);
    }
  }
  std::sort(domain.bl_interface.begin(), domain.bl_interface.end(),
            [](const std::pair<Vec2, Vec2>& a, const std::pair<Vec2, Vec2>& b) {
              return std::tie(a.first.x, a.first.y, a.second.x, a.second.y) <
                     std::tie(b.first.x, b.first.y, b.second.x, b.second.y);
            });
  domain.hole_seeds = bl.hole_seeds;
  return domain;
}

void run_stages(const Options& opts, const PhaseRunner& run_phase,
                StageResult& out) {
  const Timer total;
  // Run `fn` as the named stage: one trace span, one PhaseTimings entry.
  const auto stage = [&out](const char* name, auto&& fn) {
    const Timer t;
    {
      AERO_TRACE_SPAN("pipeline", name);
      fn();
    }
    out.timings.record(name, t.seconds());
  };
  const auto notify = [&](const char* hook, const MergedMesh* mesh) {
    if (opts.phase_hook) {
      opts.phase_hook(hook, PhaseArtifacts{&out.boundary_layer, mesh});
    }
  };
  // Run a tree phase as the named stage; false when it was drained.
  const auto phase = [&](const char* name, TreePhase which,
                         std::vector<WorkUnit> roots,
                         const GradedSizing& sizing) {
    RunStatus status = RunStatus::kOk;
    stage(name, [&] {
      status = run_phase(which, std::move(roots), sizing, out.mesh);
    });
    out.status = worse(out.status, status);
    return status != RunStatus::kStopped;
  };

  stage("boundary_layer_points", [&] {
    out.boundary_layer =
        build_boundary_layer(opts.airfoil, blayer_options(opts));
  });
  notify("boundary_layer", nullptr);

  // Boundary-layer units never read the sizing.
  if (!phase("boundary_layer_triangulation", TreePhase::kBoundaryLayer,
             boundary_layer_roots(out.boundary_layer), GradedSizing{})) {
    out.timings.record("total", total.seconds());
    return;
  }
  stage("ring_restriction",
        [&] { restrict_to_ring(out.mesh, out.boundary_layer); });
  notify("boundary_layer_mesh", &out.mesh);

  InviscidDomain domain;
  stage("inviscid_layout", [&] {
    domain = make_inviscid_domain(out.boundary_layer, opts, out.mesh);
  });
  out.sizing = domain.sizing;

  phase("inviscid_refinement", TreePhase::kInviscid, inviscid_roots(domain),
        domain.sizing);
  notify("final_mesh", &out.mesh);
  out.timings.record("total", total.seconds());
}

MeshGenerationResult generate_mesh(const Options& opts) {
  const std::vector<OptionIssue> issues = opts.validate();
  for (const OptionIssue& i : issues) {
    if (i.is_error()) {
      throw std::invalid_argument("invalid options:\n" + format_issues(issues));
    }
  }

  MeshGenerationResult result;
  obs::apply(trace_config(opts));
  AERO_TRACE_THREAD("pipeline", -1);
  AERO_TRACE_SPAN("pipeline", "generate_mesh");
  const TreeRules rules = tree_rules(opts);
  run_stages(
      opts,
      [&](TreePhase phase, std::vector<WorkUnit> roots,
          const GradedSizing& sizing, MergedMesh& out) {
        if (phase == TreePhase::kBoundaryLayer) {
          result.bl_subdomains =
              walk_inline(std::move(roots), sizing, rules, out);
          return RunStatus::kOk;
        }
        // The mesh holds exactly the ring-restricted boundary layer here.
        result.bl_triangles = out.triangle_count();
        result.inviscid_subdomains =
            walk_inline(std::move(roots), sizing, rules, out);
        result.inviscid_triangles = out.triangle_count() - result.bl_triangles;
        return RunStatus::kOk;
      },
      result);
  return result;
}

}  // namespace aero
