#pragma once

#include <cstddef>
#include <vector>

#include "core/mesh_generator.hpp"

namespace aero {

/// One node of the instrumented task graph: a decomposition split or a
/// subdomain meshing task, with its measured sequential cost and the size of
/// its serialized payload (what a steal would transfer over the wire).
struct TaskNode {
  double seconds = 0.0;          ///< measured single-core work time
  std::size_t bytes = 0;         ///< serialized transfer size
  double cost_estimate = 0.0;    ///< scheduler priority (estimated triangles)
  const char* label = "";        ///< task kind, for diagnostics
  std::vector<std::size_t> children;  ///< tasks spawned on completion
};

/// The full dynamic task graph of one mesh generation run, measured on the
/// real pipeline. The pipeline has two pool phases (boundary layer, then
/// inviscid) separated by the sequential interface extraction; each phase's
/// root tasks are handed to rank 0 when the phase starts.
struct TaskGraph {
  std::vector<TaskNode> nodes;
  /// Root task ids per phase.
  std::vector<std::vector<std::size_t>> phases;
  /// Truly sequential seconds before each phase (root-only work such as
  /// reading the input and the final gather bookkeeping).
  std::vector<double> serial_before;
  /// Distributable pre-phase seconds: work that is data-parallel in the
  /// paper's implementation (ray generation is done in parallel over surface
  /// chunks; the ring restriction and interface extraction are local
  /// per-triangle filters). The simulator charges `value / ranks`.
  std::vector<double> distributable_before;

  /// Total single-core time: all task work plus the serial stages. This is
  /// the simulated 1-rank makespan by construction.
  double total_seconds() const {
    double t = 0.0;
    for (const TaskNode& n : nodes) t += n.seconds;
    for (const double s : serial_before) t += s;
    for (const double s : distributable_before) t += s;
    return t;
  }
};

/// Build the measured task graph by running the pipeline's stage sequence
/// (run_stages) with a timing walker as its phase runner: every expand_unit
/// call -- boundary-layer splits and leaf triangulations, inviscid '+'
/// splits and refinements (near-body included) -- becomes one task node
/// with its measured single-core seconds.
TaskGraph build_task_graph(const Options& opts);

/// Interconnect and scheduling parameters of the simulated cluster
/// (defaults approximate the paper's 4X FDR Infiniband testbed).
struct ClusterOptions {
  double latency_seconds = 2e-6;        ///< per-message latency
  double bandwidth_bytes_per_s = 7e9;   ///< ~56 Gbit/s
  /// Staleness of the RMA load window: a stealing rank acts on information
  /// this old, adding to the idle time before the transfer starts.
  double window_staleness_seconds = 1e-4;
};

/// Result of simulating one rank count.
struct SimResult {
  int ranks = 0;
  double makespan_seconds = 0.0;
  double busy_seconds = 0.0;     ///< sum of task work
  double comm_seconds = 0.0;     ///< total transfer time paid by thieves
  std::size_t steals = 0;
  double speedup = 0.0;          ///< vs the graph's total sequential time
  double efficiency = 0.0;       ///< speedup / ranks
};

/// Discrete-event simulation of the paper's execution model on P ranks:
/// per-rank cost-ordered queues, spawned children stay local, idle ranks
/// steal the largest task from the most-loaded rank, paying latency +
/// bytes/bandwidth + window staleness before the stolen task starts.
SimResult simulate_cluster(const TaskGraph& graph, int ranks,
                           const ClusterOptions& opts);

/// Strong-scaling sweep (the paper's Figures 11 and 12): simulate each rank
/// count against the same measured task graph.
std::vector<SimResult> strong_scaling_sweep(const TaskGraph& graph,
                                            const std::vector<int>& rank_counts,
                                            const ClusterOptions& opts);

}  // namespace aero
