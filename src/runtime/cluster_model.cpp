#include "runtime/cluster_model.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "core/pipeline_config.hpp"
#include "core/timer.hpp"
#include "runtime/work.hpp"

namespace aero {

namespace {

/// The timing walker: expand `unit` and its descendants depth-first through
/// expand_unit (child 0's subtree first, so node ids are a pre-order),
/// timing each call as one task node. Leaf pieces are appended to `out`.
std::size_t instrument(WorkUnit unit, const GradedSizing& sizing,
                       const TreeRules& rules, TaskGraph& graph,
                       MergedMesh& out) {
  const std::size_t id = graph.nodes.size();
  graph.nodes.emplace_back();
  graph.nodes[id].bytes = serialized_size(unit);
  graph.nodes[id].cost_estimate = unit.cost(sizing);
  const bool bl = unit.kind == WorkUnit::Kind::kBlDecompose;
  const bool near_body = !bl && !unit.inv.hole_segments.empty();

  std::vector<WorkUnit> children;
  MeshView piece;
  const Timer timer;
  expand_unit(std::move(unit), sizing, rules, children, piece);
  graph.nodes[id].seconds = timer.seconds();
  if (bl) {
    graph.nodes[id].label = children.empty() ? "bl-leaf" : "bl-split";
  } else if (!children.empty()) {
    graph.nodes[id].label = "inviscid-split";
  } else {
    graph.nodes[id].label = near_body ? "near-body" : "inviscid-leaf";
  }
  out.append(piece);
  for (WorkUnit& c : children) {
    // The recursive call may reallocate graph.nodes: take the child id
    // first, then re-access the node.
    const std::size_t child =
        instrument(std::move(c), sizing, rules, graph, out);
    graph.nodes[id].children.push_back(child);
  }
  return id;
}

}  // namespace

TaskGraph build_task_graph(const Options& opts) {
  TaskGraph graph;
  TreeRules rules = tree_rules(opts);
  rules.refine_threads = 1;  // single-core task costs
  StageResult stages;
  run_stages(
      opts,
      [&](TreePhase, std::vector<WorkUnit> roots, const GradedSizing& sizing,
          MergedMesh& out) {
        std::vector<std::size_t> phase;
        for (WorkUnit& root : roots) {
          phase.push_back(
              instrument(std::move(root), sizing, rules, graph, out));
        }
        graph.phases.push_back(std::move(phase));
        return RunStatus::kOk;
      },
      stages);
  // Ray generation before the first phase, and the ring restriction plus
  // interface extraction between the phases, are data-parallel in the
  // paper's implementation.
  const PhaseTimings& t = stages.timings;
  graph.serial_before = {0.0, 0.0};
  graph.distributable_before = {
      t.seconds("boundary_layer_points"),
      t.seconds("ring_restriction") + t.seconds("inviscid_layout")};
  return graph;
}

SimResult simulate_cluster(const TaskGraph& graph, int ranks,
                           const ClusterOptions& opts) {
  SimResult result;
  result.ranks = ranks;

  struct RankSim {
    // Queued (not executing) tasks, cost-descending.
    std::multimap<double, std::size_t, std::greater<>> queue;
    double queued_cost = 0.0;
    bool busy = false;
  };
  struct Event {
    double time;
    int rank;
    std::size_t node;
    bool operator>(const Event& o) const { return time > o.time; }
  };

  std::vector<RankSim> sims(static_cast<std::size_t>(ranks));
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  double now = 0.0;

  const auto start_task = [&](int rank, std::size_t node, double at) {
    sims[static_cast<std::size_t>(rank)].busy = true;
    events.push(Event{at + graph.nodes[node].seconds, rank, node});
  };

  // Hand each idle rank work: its own largest queued task, else steal the
  // largest queued task from the most-loaded rank (paying the window
  // staleness, message latency, and payload transfer time).
  const auto dispatch = [&](double at) {
    for (int r = 0; r < ranks; ++r) {
      RankSim& rs = sims[static_cast<std::size_t>(r)];
      if (rs.busy) continue;
      if (!rs.queue.empty()) {
        auto it = rs.queue.begin();
        const std::size_t node = it->second;
        rs.queued_cost -= it->first;
        rs.queue.erase(it);
        start_task(r, node, at);
        continue;
      }
      // Steal.
      int victim = -1;
      double best = 0.0;
      for (int v = 0; v < ranks; ++v) {
        if (v == r) continue;
        const RankSim& vs = sims[static_cast<std::size_t>(v)];
        if (!vs.queue.empty() && vs.queued_cost > best) {
          best = vs.queued_cost;
          victim = v;
        }
      }
      if (victim < 0) continue;  // nothing anywhere; stay idle
      RankSim& vs = sims[static_cast<std::size_t>(victim)];
      auto it = vs.queue.begin();
      const std::size_t node = it->second;
      vs.queued_cost -= it->first;
      vs.queue.erase(it);
      const double delay =
          opts.window_staleness_seconds + 2.0 * opts.latency_seconds +
          static_cast<double>(graph.nodes[node].bytes) /
              opts.bandwidth_bytes_per_s;
      result.comm_seconds += delay;
      ++result.steals;
      start_task(r, node, at + delay);
    }
  };

  for (std::size_t phase = 0; phase < graph.phases.size(); ++phase) {
    now += phase < graph.serial_before.size() ? graph.serial_before[phase]
                                              : 0.0;
    if (phase < graph.distributable_before.size()) {
      now += graph.distributable_before[phase] / static_cast<double>(ranks);
    }
    RankSim& root = sims[0];
    for (const std::size_t n : graph.phases[phase]) {
      root.queue.emplace(graph.nodes[n].cost_estimate, n);
      root.queued_cost += graph.nodes[n].cost_estimate;
    }
    dispatch(now);
    while (!events.empty()) {
      const Event ev = events.top();
      events.pop();
      now = std::max(now, ev.time);
      RankSim& rs = sims[static_cast<std::size_t>(ev.rank)];
      rs.busy = false;
      for (const std::size_t child : graph.nodes[ev.node].children) {
        rs.queue.emplace(graph.nodes[child].cost_estimate, child);
        rs.queued_cost += graph.nodes[child].cost_estimate;
      }
      result.busy_seconds += graph.nodes[ev.node].seconds;
      dispatch(now);
    }
  }

  result.makespan_seconds = now;
  result.speedup = graph.total_seconds() / now;
  result.efficiency = result.speedup / static_cast<double>(ranks);
  return result;
}

std::vector<SimResult> strong_scaling_sweep(const TaskGraph& graph,
                                            const std::vector<int>& rank_counts,
                                            const ClusterOptions& opts) {
  std::vector<SimResult> out;
  out.reserve(rank_counts.size());
  for (const int p : rank_counts) {
    out.push_back(simulate_cluster(graph, p, opts));
  }
  return out;
}

}  // namespace aero
