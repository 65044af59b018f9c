#include "runtime/parallel_driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/pipeline_config.hpp"
#include "io/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"

namespace aero {

ParallelMeshResult parallel_generate_mesh(const Options& opts,
                                          ProtocolTrace* trace) {
  std::vector<OptionIssue> issues = opts.validate();
  if (opts.ranks < 1) {
    issues.push_back({OptionIssue::Severity::kError, "ranks",
                      "parallel run requires ranks >= 1"});
  }
  for (const OptionIssue& i : issues) {
    if (i.is_error()) {
      // Thrown on the caller's thread, before any pool thread exists.
      throw std::invalid_argument(  // aerolint: allow(runtime-throw)
          "invalid options:\n" + format_issues(issues));
    }
  }
  ParallelMeshResult result;
  obs::apply(trace_config(opts));
  AERO_TRACE_THREAD("driver", -1);
  AERO_TRACE_SPAN("pipeline", "parallel_generate_mesh");

  // -- Resume load + checkpoint sink ---------------------------------------
  // Nothing in this block is ever fatal: a missing, corrupt, or mismatched
  // journal degrades to re-meshing from scratch, and an unopenable sink
  // degrades to an unjournaled run.
  const std::uint64_t config_hash = mesh_config_hash(opts);
  CheckpointSummary& cs = result.resilience;
  JournalContents loaded;
  bool resume_active = false;
  if (!opts.resume_path.empty()) {
    cs.resume_attempted = true;
    loaded = read_journal(opts.resume_path, config_hash);
    if (!loaded.header_ok) {
      cs.resume_rejected = true;
      cs.resume_error =
          "journal missing or header corrupt; re-meshing from scratch";
    } else if (loaded.hash_mismatch) {
      cs.resume_rejected = true;
      cs.resume_error = "journal was written for different options/geometry; "
                        "re-meshing from scratch";
    } else {
      resume_active = true;
      cs.resume_records = loaded.records.size();
      cs.discarded_bytes = loaded.discarded_bytes;
    }
  }
  const ResumeState resume(loaded);
  // --resume without --checkpoint appends in place, so an interrupted
  // resume is itself resumable.
  const std::string& checkpoint_path =
      opts.checkpoint_path.empty() ? opts.resume_path : opts.checkpoint_path;
  CheckpointSink sink;
  if (!checkpoint_path.empty()) {
    // Append in place only when extending the very journal we resumed from
    // AND its tail was clean; a discarded tail means garbage bytes sit past
    // the last intact record, so the file is rewritten fresh instead (the
    // pool re-records every resumed leaf, repopulating it as the run goes).
    const bool append_in_place = resume_active &&
                                 checkpoint_path == opts.resume_path &&
                                 loaded.discarded_bytes == 0;
    if (sink.open(checkpoint_path, config_hash, append_in_place) &&
        append_in_place) {
      for (const JournalRecord& r : loaded.records) sink.seed(r.key);
    }
  }

  PoolOptions pool_opts;
  pool_opts.nranks = opts.ranks;
  pool_opts.rules = tree_rules(opts);
  pool_opts.faults.enabled = opts.fault_rate > 0.0;
  pool_opts.faults.seed = opts.fault_seed;
  pool_opts.faults.drop_rate = opts.fault_rate;
  pool_opts.faults.duplicate_rate = opts.fault_rate / 2.0;
  pool_opts.faults.corrupt_rate = opts.fault_rate / 2.0;
  pool_opts.faults.delay_rate = opts.fault_rate / 2.0;
  pool_opts.trace = trace;
  pool_opts.ack_timeout = std::chrono::milliseconds(opts.ack_timeout_ms);
  pool_opts.heartbeat_timeout =
      std::chrono::milliseconds(opts.heartbeat_timeout_ms);
  pool_opts.watchdog_timeout =
      std::chrono::seconds(scaled_watchdog_seconds(opts));
  pool_opts.budget.wall_ms = opts.budget_wall_ms;
  pool_opts.budget.peak_rss_mb = opts.budget_rss_mb;
  pool_opts.stop = opts.stop_flag;
  pool_opts.checkpoint = sink.is_open() ? &sink : nullptr;
  pool_opts.resume = resume_active ? &resume : nullptr;

  run_stages(
      opts,
      [&](TreePhase phase, std::vector<WorkUnit> roots,
          const GradedSizing& sizing, MergedMesh& out) {
        const bool bl = phase == TreePhase::kBoundaryLayer;
        PoolStats& stats = bl ? result.bl_pool : result.inviscid_pool;
        stats = run_pool(std::move(roots), sizing, pool_opts, out);
        publish_pool_metrics(stats, bl ? "pool.bl." : "pool.inviscid.");
        return stats.status;
      },
      result);

  // Aggregate both passes' resilience stats into the summary.
  const PoolStats& bl = result.bl_pool;
  const PoolStats& inv = result.inviscid_pool;
  cs.resumed_units = bl.resumed_units + inv.resumed_units;
  cs.checkpointed_units = bl.checkpointed_units + inv.checkpointed_units;
  cs.checkpoint_failures = bl.checkpoint_failures + inv.checkpoint_failures;
  cs.units_total = bl.units_total + inv.units_total;
  cs.units_done = bl.units_done + inv.units_done;
  cs.stop_cause =
      bl.stop_cause != StopCause::kNone ? bl.stop_cause : inv.stop_cause;
  // A failed flush leaves the journal short its tail records; the sink's
  // own failure counter already feeds cs.checkpoint_failures upstream, so
  // surface the event and carry on -- checkpointing never fails the run.
  if (sink.is_open() && !sink.flush()) {
    AERO_TRACE_INSTANT("pipeline", "checkpoint_flush_failed");
  }
  return result;
}

void publish_pool_metrics(const PoolStats& stats, const std::string& prefix) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const auto count = [&](const char* name, std::size_t v) {
    reg.counter(prefix + name).add(v);
  };
  count("steals", stats.steals);
  count("steal_denials", stats.steal_denials);
  count("transfer_bytes", stats.transfer_bytes);
  count("result_bytes", stats.result_bytes);
  count("unit_retries", stats.unit_retries);
  count("unit_failures", stats.unit_failures);
  count("fallback_units", stats.fallback_units);
  count("requeued_units", stats.requeued_units);
  count("dropped_messages", stats.dropped_messages);
  count("duplicated_messages", stats.duplicated_messages);
  count("corrupt_payloads", stats.corrupt_payloads);
  count("retransmits", stats.retransmits);
  count("dead_ranks", stats.dead_ranks);
  count("reclaimed_units", stats.reclaimed_units);
  count("missing_results", stats.missing_results);
  count("injected_corruptions", stats.injected_corruptions);
  count("delayed_messages", stats.delayed_messages);
  count("injected_unit_faults", stats.injected_unit_faults);
  count("comm_messages", stats.comm_messages);
  count("comm_bytes", stats.comm_bytes);
  count("zero_copy_hits", stats.zero_copy_hits);
  count("window_bytes", stats.window_bytes);
  std::size_t units = 0;
  for (const std::size_t t : stats.tasks_per_rank) units += t;
  count("units_processed", units);
  count("units_total", stats.units_total);
  count("units_done", stats.units_done);
  count("resumed_units", stats.resumed_units);
  count("checkpointed_units", stats.checkpointed_units);
  count("checkpoint_failures", stats.checkpoint_failures);
  count("injected_crashes", stats.injected_crashes);
  count("injected_mesher_kills", stats.injected_mesher_kills);
  reg.gauge(prefix + "wall_seconds").set(stats.wall_seconds);

  // Issue-mandated global names (aggregated across pool passes), alongside
  // the per-pass prefixed counters above.
  reg.counter("comm.bytes").add(stats.comm_bytes);
  reg.counter("comm.msgs").add(stats.comm_messages);
  reg.counter("comm.zero_copy_hits").add(stats.zero_copy_hits);
}

std::vector<obs::RankLoad> rank_loads(const ParallelMeshResult& result) {
  const std::size_t n = std::max(result.bl_pool.tasks_per_rank.size(),
                                 result.inviscid_pool.tasks_per_rank.size());
  const double wall =
      result.bl_pool.wall_seconds + result.inviscid_pool.wall_seconds;
  std::vector<obs::RankLoad> rows(n);
  const auto at = [](const std::vector<double>& v, std::size_t i) {
    return i < v.size() ? v[i] : 0.0;
  };
  const auto atz = [](const std::vector<std::size_t>& v, std::size_t i) {
    return i < v.size() ? v[i] : std::size_t{0};
  };
  for (std::size_t r = 0; r < n; ++r) {
    obs::RankLoad& row = rows[r];
    row.rank = static_cast<int>(r);
    row.busy_seconds = at(result.bl_pool.busy_seconds_per_rank, r) +
                       at(result.inviscid_pool.busy_seconds_per_rank, r);
    row.comm_seconds = at(result.bl_pool.comm_seconds_per_rank, r) +
                       at(result.inviscid_pool.comm_seconds_per_rank, r);
    row.idle_seconds =
        std::max(0.0, wall - row.busy_seconds - row.comm_seconds);
    row.units = atz(result.bl_pool.tasks_per_rank, r) +
                atz(result.inviscid_pool.tasks_per_rank, r);
    row.donated = atz(result.bl_pool.donated_per_rank, r) +
                  atz(result.inviscid_pool.donated_per_rank, r);
    row.received = atz(result.bl_pool.received_per_rank, r) +
                   atz(result.inviscid_pool.received_per_rank, r);
    row.retransmits = atz(result.bl_pool.retransmits_per_rank, r) +
                      atz(result.inviscid_pool.retransmits_per_rank, r);
  }
  return rows;
}

}  // namespace aero
