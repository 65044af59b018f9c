// Section IV's sequential-efficiency claim: "the sequential meshing time of
// Triangle was 192 seconds while the sequential meshing time of our
// application was 196 seconds, yielding an efficiency of approximately 98%".
//
// Reproduced as: triangulate the boundary-layer cloud directly (the role of
// Triangle) vs through the full decomposition machinery on one rank, and
// refine the inviscid region directly vs through the decoupling. The
// decomposition/decoupling overhead fraction is the measured quantity; the
// paper attributes its ~2% to the extra triangles the decoupling creates.

#include <cstdio>

#include "core/mesh_generator.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "delaunay/triangulator.hpp"
#include <unordered_map>

#include "core/timer.hpp"
#include "obs/bench_report.hpp"

int main() {
  using namespace aero;

  Options config;
  config.airfoil = make_three_element(400);
  config.growth_kind = GrowthKind::kGeometric;
  config.first_height = 2e-4;
  config.growth_ratio = 1.2;
  config.max_layers = 45;
  config.farfield_chords = 25.0;
  config.grade = 0.01;
  config.surface_length_factor = 2.0;
  config.inviscid_target_triangles = 100000.0;
  config.bl_min_points = 2000;
  config.bl_max_level = 12;

  const BoundaryLayer bl = build_boundary_layer(config.airfoil, blayer_options(config));
  std::printf("boundary-layer cloud: %zu points\n\n", bl.points.size());

  // --- Boundary layer: direct vs decomposed -------------------------------
  double t_direct, t_decomposed;
  std::size_t tris_direct, tris_decomposed;
  {
    std::vector<Vec2> pts = bl.points;
    std::sort(pts.begin(), pts.end(), LessXY{});
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    Timer t;
    const auto r = triangulate_points(pts, /*assume_sorted=*/true);
    t_direct = t.seconds();
    tris_direct = r.mesh.triangle_count();
  }
  {
    Timer t;
    MergedMesh mesh;
    std::size_t nsub;
    triangulate_boundary_layer(bl, bl_decompose_options(config), mesh, &nsub);
    t_decomposed = t.seconds();
    tris_decomposed = mesh.triangle_count();
    std::printf("decomposition produced %zu subdomains\n", nsub);
  }
  std::printf("boundary layer: direct %.3f s (%zu tris), decomposed+merged "
              "%.3f s (%zu tris kept)\n",
              t_direct, tris_direct, t_decomposed, tris_decomposed);

  // --- Full pipeline one-rank efficiency ----------------------------------
  Timer t_all;
  const MeshGenerationResult full = generate_mesh(config);
  const double t_pipeline = t_all.seconds();
  // Peak RSS sampled here covers the pipeline (plus the small direct BL
  // runs above), before the reference's quadedge mesh inflates the process
  // peak -- this is the number that measures the SoA mesh core.
  const long pipeline_rss_kb = obs::peak_rss_kb();
  std::printf("\npipeline stages:\n");
  for (const auto& [phase, sec] : full.timings.entries()) {
    std::printf("  %-32s %8.3f s\n", phase.c_str(), sec);
  }

  // The "sequential Triangle" reference: what the fastest sequential tool
  // does for the same job -- triangulate the boundary-layer cloud directly
  // and refine the whole inviscid domain as ONE PSLG (no decomposition, no
  // decoupling, no merging).
  Timer t_ref;
  std::size_t ref_tris = 0;
  {
    std::vector<Vec2> pts = bl.points;
    std::sort(pts.begin(), pts.end(), LessXY{});
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    const auto r_bl = triangulate_points(pts, /*assume_sorted=*/true);
    ref_tris += r_bl.mesh.triangle_count();

    // One global inviscid PSLG: interface + far-field box, one refinement.
    MergedMesh bl_mesh;
    bl_mesh.append(r_bl.mesh);
    restrict_to_ring(bl_mesh, bl);
    const InviscidDomain domain = make_inviscid_domain(bl, config, bl_mesh);
    Pslg pslg;
    std::unordered_map<Vec2, std::uint32_t, Vec2Hash> index_of;
    const auto intern = [&](Vec2 p) {
      const auto [it, fresh] = index_of.try_emplace(
          p, static_cast<std::uint32_t>(pslg.points.size()));
      if (fresh) pslg.points.push_back(p);
      return it->second;
    };
    const Vec2 c = domain.outer.center();
    const double h = domain.outer.width() / 2.0;
    const std::uint32_t b0 = intern({c.x - h, c.y - h});
    const std::uint32_t b1 = intern({c.x + h, c.y - h});
    const std::uint32_t b2 = intern({c.x + h, c.y + h});
    const std::uint32_t b3 = intern({c.x - h, c.y + h});
    pslg.segments = {{b0, b1}, {b1, b2}, {b2, b3}, {b3, b0}};
    for (const auto& [a, b] : domain.bl_interface) {
      const std::uint32_t ia = intern(a);
      const std::uint32_t ib = intern(b);
      if (ia != ib) pslg.segments.emplace_back(ia, ib);
    }
    pslg.holes = domain.hole_seeds;
    TriangulateOptions opts;
    opts.refine = true;
    opts.refine_options.radius_edge_bound = 1.4142135623730951;
    const GradedSizing sizing = domain.sizing;
    opts.refine_options.sizing = [sizing](Vec2 p) { return sizing.area_at(p); };
    const auto r_inv = triangulate(pslg, opts);
    ref_tris += r_inv.mesh.inside_triangle_count();
  }
  const double t_reference = t_ref.seconds();

  std::printf("\nsequential reference (direct triangulation + one global "
              "refinement): %.3f s (%zu tris)\n", t_reference, ref_tris);
  std::printf("full pipeline (1 rank, decomposition + decoupling + merge): "
              "%.3f s (%zu tris)\n", t_pipeline, full.mesh.triangle_count());
  std::printf("sequential efficiency (reference / pipeline): %.1f%%   "
              "[paper: ~98%% (192 s vs 196 s)]\n",
              100.0 * t_reference / t_pipeline);

  // Storage-compactness figure: process peak RSS amortized over the final
  // mesh, the number the SoA mesh core exists to lower.
  const double rss_per_tri =
      1024.0 * static_cast<double>(pipeline_rss_kb) /
      static_cast<double>(full.mesh.triangle_count());
  std::printf("peak RSS per final triangle: %.1f B/tri\n", rss_per_tri);
  return 0;
}
