// Figures 11 & 12: strong scalability and efficiency up to 256 processes.
//
// Paper: fixed 172.7M-triangle mesh on a 32-node / 256-core FDR-Infiniband
// cluster; speedup ~102 at 128 ranks (80% efficiency), ~180 at 256 ranks
// (~70% efficiency).
//
// Here: the pipeline runs for real on this machine to measure every task's
// sequential cost and transfer size, then the discrete-event cluster model
// replays the task graph through the work-stealing protocol for each rank
// count. Granularity matches the paper's coarse partitioner: enough
// subdomains for good load balancing at 256 ranks (several per rank).
//
// Two sweeps are printed:
//   1. as measured -- honest strong scaling of the mesh this machine can
//      build in minutes (the curve bends earlier than the paper's because
//      the mesh is ~200x smaller: per-task costs shrink relative to the
//      fixed communication costs and the serial stages);
//   2. paper scale -- every task cost, payload, and serial stage multiplied
//      by the ratio of the paper's 172.7M triangles to this run's count, so
//      compute-to-communication ratios match the paper's testbed. This is
//      the curve to compare against Figures 11-12.

#include <algorithm>
#include <cstdio>
#include <vector>
#include <string_view>

#include "core/timer.hpp"
#include "runtime/cluster_model.hpp"
#include "runtime/parallel_driver.hpp"

int main(int argc, char** argv) {
  using namespace aero;

  // --big roughly quadruples the measured mesh (slower, sharper curves).
  const bool big = argc > 1 && std::string_view(argv[1]) == "--big";

  Options config;
  config.airfoil = make_three_element(big ? 600 : 400);
  config.growth_kind = GrowthKind::kGeometric;
  config.first_height = big ? 1.5e-4 : 2.5e-4;
  config.growth_ratio = 1.2;
  config.max_layers = 45;
  config.farfield_chords = 30.0;
  // Mild gradation, as in the paper's regime (172.7M triangles over a
  // 60-chord box is fine nearly everywhere): this is what makes the
  // monolithic near-body subdomain a sub-percent fraction of the work.
  config.grade = big ? 0.0012 : 0.002;
  config.surface_length_factor = 4.0;
  config.nearbody_margin = 0.01;
  // Coarse-partitioner granularity: several subdomains per rank at P = 256.
  config.inviscid_target_triangles = big ? 2500.0 : 1500.0;
  config.inviscid_max_level = 16;
  config.bl_min_points = big ? 600 : 400;
  config.bl_max_level = 16;

  std::printf("measuring task graph on this machine...\n");
  const TaskGraph graph = build_task_graph(config);

  std::size_t leaves = 0;
  double longest = 0.0;
  for (const TaskNode& n : graph.nodes) {
    if (n.children.empty()) ++leaves;
    longest = std::max(longest, n.seconds);
  }
  std::printf("tasks=%zu (leaves=%zu)  total work=%.2f s  longest task=%.3f s"
              "  distributable stages=%.3f s\n",
              graph.nodes.size(), leaves, graph.total_seconds(), longest,
              graph.distributable_before[0] + graph.distributable_before[1]);
  {
    std::vector<const TaskNode*> sorted;
    for (const TaskNode& n : graph.nodes) sorted.push_back(&n);
    std::sort(sorted.begin(), sorted.end(),
              [](const TaskNode* a, const TaskNode* b) {
                return a->seconds > b->seconds;
              });
    std::printf("top tasks:");
    for (std::size_t i = 0; i < 5 && i < sorted.size(); ++i) {
      std::printf(" %s=%.3fs", sorted[i]->label, sorted[i]->seconds);
    }
    std::printf("\n\n");
  }

  const std::vector<int> ranks{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const auto print_sweep = [&](const TaskGraph& g, const char* title) {
    std::printf("%s\n", title);
    std::printf("%8s %12s %10s %12s %8s  %s\n", "ranks", "makespan(s)",
                "speedup", "efficiency", "steals", "paper (speedup/eff)");
    const auto sweep = strong_scaling_sweep(g, ranks, ClusterOptions{});
    for (const SimResult& r : sweep) {
      const char* paper = "";
      if (r.ranks == 128) paper = "~102 / ~80%";
      if (r.ranks == 256) paper = "~180 / ~70%";
      std::printf("%8d %12.4f %10.2f %11.1f%% %8zu  %s\n", r.ranks,
                  r.makespan_seconds, r.speedup, 100.0 * r.efficiency,
                  r.steals, paper);
    }
    std::printf("\n");
  };

  print_sweep(graph, "Figure 11/12 (as measured, laptop-scale mesh):");

  // Paper-scale extrapolation: the paper's fixed mesh divided by ours.
  // Task costs scale with the triangles they produce; payloads scale with
  // the points they carry; the serial stages scale with the cloud size.
  // Communication latency/bandwidth stay at the measured-hardware values.
  double measured_triangles = 0.0;
  for (const TaskNode& n : graph.nodes) {
    if (n.children.empty()) measured_triangles += n.cost_estimate;
  }
  const double scale = 172'768'355.0 / measured_triangles;
  TaskGraph scaled = graph;
  for (TaskNode& n : scaled.nodes) {
    n.seconds *= scale;
    n.bytes = static_cast<std::size_t>(static_cast<double>(n.bytes) * scale);
  }
  for (double& s : scaled.serial_before) s *= scale;
  for (double& s : scaled.distributable_before) s *= scale;
  std::printf("paper-scale factor: x%.0f (measured ~%.0f estimated "
              "triangles -> 172.77M)\n\n", scale, measured_triangles);
  print_sweep(scaled, "Figure 11/12 (paper scale, 172.77M triangles):");

  // Window transport: the real in-process pool at 8 ranks. Every payload
  // moves by window handoff, so the mailboxes carry only control frames;
  // this run is also the checkpoint-overhead reference below.
  std::printf("Window transport (real pool, 8 ranks):\n");
  Options ab = config;
  ab.airfoil = make_naca0012(200);
  ab.growth_kind = GrowthKind::kGeometric;
  ab.first_height = 5e-4;
  ab.growth_ratio = 1.25;
  ab.max_layers = 30;
  ab.farfield_chords = 10.0;
  ab.grade = 0.05;
  ab.inviscid_target_triangles = 4000.0;
  ab.inviscid_max_level = 10;
  ab.bl_min_points = 400;
  ab.bl_max_level = 10;
  ab.ranks = 8;

  const auto pool_bytes = [](const ParallelMeshResult& r) {
    return r.bl_pool.comm_bytes + r.inviscid_pool.comm_bytes;
  };
  Timer t_rma;
  const ParallelMeshResult with_rma = parallel_generate_mesh(ab);
  const double wall_rma_ms = 1000.0 * t_rma.seconds();

  const double rma_bytes = static_cast<double>(pool_bytes(with_rma));
  const std::size_t zero_copy_hits = with_rma.bl_pool.zero_copy_hits +
                                     with_rma.inviscid_pool.zero_copy_hits;
  std::printf("  copied %.0f B  zero-copy %zu payloads (%.0f B)"
              "  wall %.0f ms  triangles %zu\n\n",
              rma_bytes, zero_copy_hits,
              static_cast<double>(with_rma.bl_pool.window_bytes +
                                  with_rma.inviscid_pool.window_bytes),
              wall_rma_ms, with_rma.mesh.triangle_count());

  // Ranks x threads grid: the real pool with intra-rank refinement threads
  // layered under the rank parallelism. Same config, same mesh at every
  // cell (threads_per_rank is performance-only); the grid shows how the two
  // axes compose on this machine's core budget.
  std::printf("Ranks x threads-per-rank grid (real pool):\n");
  struct GridCell { int ranks; int threads; double seconds; };
  std::vector<GridCell> grid{{2, 1, 0}, {2, 2, 0}, {4, 1, 0}, {4, 2, 0}};
  std::size_t grid_triangles = 0;
  bool grid_agrees = true;
  for (GridCell& cell : grid) {
    Options tuned = ab;
    tuned.ranks = cell.ranks;
    tuned.threads_per_rank = cell.threads;
    Timer t;
    const ParallelMeshResult r = parallel_generate_mesh(tuned);
    cell.seconds = t.seconds();
    if (grid_triangles == 0) grid_triangles = r.mesh.triangle_count();
    grid_agrees = grid_agrees && r.mesh.triangle_count() == grid_triangles;
    std::printf("  ranks=%d threads=%d  wall %7.0f ms  triangles %zu\n",
                cell.ranks, cell.threads, 1000.0 * cell.seconds,
                r.mesh.triangle_count());
  }
  std::printf("  meshes %s across the grid\n\n",
              grid_agrees ? "agree" : "DISAGREE");

  // Checkpoint overhead A/B: the identical 8-rank run with the journal sink
  // streaming every finalized leaf to disk. The sink frames each leaf's raw
  // triangle array with a chained CRC and appends+flushes. The overhead is
  // printed, not gated: on a run this short, host noise swamps a few percent.
  std::printf("Checkpoint overhead A/B (real pool, 8 ranks):\n");
  const char* journal_path = "bench_scaling_ckpt.aerojnl";
  std::remove(journal_path);
  Options journaled = ab;
  journaled.checkpoint_path = journal_path;
  // Min-of-5 interleaved pairs: on an oversubscribed box the scheduler's
  // noise on a ~100 ms run dwarfs the journal's real cost, and the minimum
  // is the run the scheduler interfered with least.
  double wall_off_ms = wall_rma_ms;
  double wall_ckpt_ms = 0.0;
  std::size_t ckpt_records = 0;
  std::size_t ckpt_triangles = 0;
  for (int i = 0; i < 5; ++i) {
    Timer t_off;
    const ParallelMeshResult off = parallel_generate_mesh(ab);
    wall_off_ms = std::min(wall_off_ms, 1000.0 * t_off.seconds());
    (void)off;
    Timer t_on;
    const ParallelMeshResult on = parallel_generate_mesh(journaled);
    const double ms = 1000.0 * t_on.seconds();
    if (i == 0 || ms < wall_ckpt_ms) wall_ckpt_ms = ms;
    ckpt_records = on.resilience.checkpointed_units;
    ckpt_triangles = on.mesh.triangle_count();
  }
  double journal_bytes = 0.0;
  if (std::FILE* jf = std::fopen(journal_path, "rb")) {
    std::fseek(jf, 0, SEEK_END);
    journal_bytes = static_cast<double>(std::ftell(jf));
    std::fclose(jf);
  }
  std::remove(journal_path);
  const double overhead_pct =
      wall_off_ms > 0.0 ? 100.0 * (wall_ckpt_ms / wall_off_ms - 1.0) : 0.0;
  std::printf("  ckpt=off wall %.0f ms  triangles %zu\n", wall_off_ms,
              with_rma.mesh.triangle_count());
  std::printf("  ckpt=on  wall %.0f ms  triangles %zu  records %zu"
              "  journal %.0f B\n",
              wall_ckpt_ms, ckpt_triangles, ckpt_records, journal_bytes);
  std::printf("  checkpoint overhead: %.1f%%  meshes %s\n\n",
              overhead_pct,
              ckpt_triangles == with_rma.mesh.triangle_count()
                  ? "agree"
                  : "DISAGREE");
  return 0;
}
