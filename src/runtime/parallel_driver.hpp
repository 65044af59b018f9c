#pragma once

#include <string>
#include <vector>

#include "core/mesh_generator.hpp"
#include "core/options.hpp"
#include "obs/export.hpp"
#include "runtime/pool.hpp"

namespace aero {

/// Completeness and checkpoint/resume accounting for one driver run,
/// aggregated over both pool passes. This is the data behind the CLI's
/// completeness report on a stopped run.
struct CheckpointSummary {
  bool resume_attempted = false;  ///< a resume_path was given
  bool resume_rejected = false;   ///< journal unusable; re-meshed from scratch
  std::string resume_error;       ///< why, when resume_rejected
  std::size_t resume_records = 0;    ///< intact records loaded
  std::size_t discarded_bytes = 0;   ///< corrupt/truncated tail dropped
  std::size_t resumed_units = 0;     ///< leaves replayed instead of meshed
  std::size_t checkpointed_units = 0;  ///< leaf records written this run
  std::size_t checkpoint_failures = 0; ///< journal appends that failed
  std::size_t units_total = 0;  ///< work units created across both passes
  std::size_t units_done = 0;   ///< units that produced their output
  StopCause stop_cause = StopCause::kNone;  ///< why a kStopped run drained
};

/// Result of a parallel (in-process rank pool) mesh generation run. Its
/// `status` is the worst outcome across the two pool passes: kOk when the
/// mesh is complete, kStopped when a budget/stop drained the run (valid
/// partial mesh, resumable journal), kPartial/kFailed when a pool lost
/// results or hit the watchdog bound.
struct ParallelMeshResult : StageResult {
  PoolStats bl_pool;
  PoolStats inviscid_pool;
  /// Completeness + checkpoint/resume accounting across both passes.
  CheckpointSummary resilience;
};

/// The push-button pipeline with the subdomain work distributed over an
/// in-process rank pool of `opts.ranks` ranks (the MPI-substitute runtime):
/// run_stages with run_pool as the phase runner, so boundary-layer
/// decomposition and triangulation run in one pool pass and inviscid
/// decoupling and refinement in a second (the interface between them is
/// extracted from the assembled boundary-layer mesh, which is the one global
/// synchronization point of the pipeline).
///
/// Validates first, throwing std::invalid_argument on any error (including
/// ranks < 1). `fault_rate` arms the chaos fabric (drop at the rate,
/// duplication/corruption/delay at half of it); the fault-*tolerance*
/// machinery (CRC framing, acked transfers, watchdog) is always on. A
/// non-null `trace` records both pool passes' protocol events for
/// audit_protocol(); `opts.phase_hook` fires at the same phase boundaries as
/// in the sequential pipeline. The budget, stop-flag, checkpoint and resume
/// knobs wire run-level resilience; journals carry mesh_config_hash(opts),
/// and a `resume_path` without a `checkpoint_path` appends to the resumed
/// journal, so an interrupted resume is itself resumable. A run stopped
/// mid-boundary-layer returns the raw partial BL mesh (no ring restriction,
/// no inviscid pass) -- valid, conformal, and resumable.
ParallelMeshResult parallel_generate_mesh(const Options& opts,
                                          ProtocolTrace* trace = nullptr);

/// Publish one pool pass's statistics into the global metrics registry under
/// `prefix` (e.g. "pool.bl." -> "pool.bl.steals"). Called by the driver for
/// both passes; exposed so benches can publish standalone run_pool calls.
void publish_pool_metrics(const PoolStats& stats, const std::string& prefix);

/// Per-rank load-balance rows aggregated over both pool passes (the
/// metrics.json load_balance table). Idle time is each rank's share of the
/// two passes' wall time not spent meshing or on protocol work.
std::vector<obs::RankLoad> rank_loads(const ParallelMeshResult& result);

}  // namespace aero
