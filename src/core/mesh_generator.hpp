#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "airfoil/geometry.hpp"
#include "blayer/boundary_layer.hpp"
#include "core/merged_mesh.hpp"
#include "core/options.hpp"
#include "core/phase_hook.hpp"
#include "core/run_status.hpp"
#include "core/subdomain_tree.hpp"
#include "core/timer.hpp"
#include "hull/subdomain.hpp"
#include "inviscid/decouple.hpp"

namespace aero {

/// What the pipeline's one stage sequence (run_stages) produces, whichever
/// runner executed its tree phases.
struct StageResult {
  MergedMesh mesh;
  BoundaryLayer boundary_layer;
  GradedSizing sizing;
  PhaseTimings timings;
  /// Worst outcome of the tree phases. The sequential pipeline either
  /// completes (kOk) or throws; the field exists so every pipeline entry
  /// point surfaces the same success contract as the fault-tolerant parallel
  /// driver instead of assuming success.
  RunStatus status = RunStatus::kOk;
};

/// Everything the sequential pipeline produces, including the per-stage
/// artifacts the benchmarks and figures are generated from.
struct MeshGenerationResult : StageResult {
  std::size_t bl_subdomains = 0;
  std::size_t inviscid_subdomains = 0;
  std::size_t bl_triangles = 0;
  std::size_t inviscid_triangles = 0;
};

/// The two phases of the subdomain tree, in pipeline order.
enum class TreePhase { kBoundaryLayer, kInviscid };

/// Executes one tree phase: expand `roots` and every unit they spawn through
/// expand_unit, append each leaf's piece to `out`, and report the phase's
/// outcome. kStopped (a drained pool) ends the stage sequence after the
/// phase.
using PhaseRunner =
    std::function<RunStatus(TreePhase phase, std::vector<WorkUnit> roots,
                            const GradedSizing& sizing, MergedMesh& out)>;

/// The pipeline's one stage sequence, shared by every driver:
///   1. boundary_layer_points         build_boundary_layer; hook
///                                    "boundary_layer"
///   2. boundary_layer_triangulation  the boundary-layer phase (run_phase)
///   3. ring_restriction              restrict_to_ring; hook
///                                    "boundary_layer_mesh"
///   4. inviscid_layout               make_inviscid_domain; sets out.sizing
///   5. inviscid_refinement           the inviscid phase (run_phase); hook
///                                    "final_mesh"
/// Each stage gets a trace span and a PhaseTimings entry under its name,
/// followed by "total". A phase that reports kStopped ends the sequence
/// right after it, keeping the raw partial mesh: ring restriction and the
/// interface both assume the whole cloud is meshed.
///
/// generate_mesh runs the phases with walk_inline, parallel_generate_mesh
/// with run_pool, and build_task_graph with a walker that times every
/// expand_unit call.
void run_stages(const Options& opts, const PhaseRunner& run_phase,
                StageResult& out);

/// The push-button sequential pipeline: run_stages with the inline walker.
/// Validates first: throws std::invalid_argument listing every issue when
/// validate() reports an error. `ranks`/transport/fault knobs are ignored
/// here (sequential) — use parallel_generate_mesh(Options) for a pool run.
MeshGenerationResult generate_mesh(const Options& opts);

/// Stage: triangulate the boundary-layer cloud by projection-based
/// decomposition (the inline walker over the boundary-layer root), merge
/// the owned triangles, and keep exactly the ring between the surfaces and
/// the outer borders. `subdomains` (optional) receives the leaf count.
/// Exposed for tests/benches.
void triangulate_boundary_layer(const BoundaryLayer& bl,
                                const DecomposeOptions& opts,
                                MergedMesh& out, std::size_t* subdomains);

/// Restrict an assembled boundary-layer triangulation to the ring between
/// the surfaces and the outer borders (flood from the ring seeds bounded by
/// the nominal barrier edges, then an exact purge of any triangle crossing
/// or inside a body -- concave surface edges may legitimately be absent from
/// the Delaunay triangulation, letting the flood leak). The ring_restriction
/// stage of run_stages.
void restrict_to_ring(MergedMesh& mesh, const BoundaryLayer& bl);

/// Stage: build the inviscid domain description around the assembled
/// boundary-layer mesh (whose actual boundary becomes the near-body hole).
InviscidDomain make_inviscid_domain(const BoundaryLayer& bl,
                                    const Options& opts,
                                    const MergedMesh& bl_mesh);

}  // namespace aero
