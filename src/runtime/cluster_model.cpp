#include "runtime/cluster_model.hpp"

#include "core/pipeline_config.hpp"

#include <algorithm>
#include <map>
#include <queue>

#include "core/timer.hpp"
#include "runtime/work.hpp"

namespace aero {

namespace {

/// Expand `unit` and its descendants depth-first through the pool's
/// split/mesh rules (expand_unit), timing one expand_unit call per node.
/// Leaf triangles go to `mesh` when it is non-null (the interface
/// extraction needs the assembled boundary layer).
std::size_t instrument(const WorkUnit& unit, const GradedSizing& sizing,
                       const Options& opts, TaskGraph& graph,
                       MergedMesh* mesh) {
  const std::size_t id = graph.nodes.size();
  graph.nodes.emplace_back();
  graph.nodes[id].bytes = serialized_size(unit);
  graph.nodes[id].cost_estimate = unit.cost(sizing);

  std::vector<WorkUnit> children;
  std::vector<std::array<Vec2, 3>> triangles;
  const Timer timer;
  expand_unit(unit, sizing, bl_decompose_options(opts),
              opts.inviscid_target_triangles, opts.inviscid_max_level,
              /*refine_threads=*/1, children, triangles);
  graph.nodes[id].seconds = timer.seconds();
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    graph.nodes[id].label = children.empty() ? "bl-leaf" : "bl-split";
  } else if (!children.empty()) {
    graph.nodes[id].label = "inviscid-split";
  } else {
    graph.nodes[id].label =
        unit.inv.hole_segments.empty() ? "inviscid-leaf" : "near-body";
  }
  if (mesh != nullptr) {
    for (const auto& tri : triangles) {
      mesh->add_triangle(tri[0], tri[1], tri[2]);
    }
  }
  for (const WorkUnit& c : children) {
    // The recursive call may reallocate graph.nodes: take the child id
    // first, then re-access the node.
    const std::size_t child = instrument(c, sizing, opts, graph, mesh);
    graph.nodes[id].children.push_back(child);
  }
  return id;
}

}  // namespace

TaskGraph build_task_graph(const Options& opts) {
  TaskGraph graph;

  Timer serial0;
  BoundaryLayer bl = build_boundary_layer(opts.airfoil, blayer_options(opts));
  graph.serial_before.push_back(0.0);
  graph.distributable_before.push_back(serial0.seconds());

  // Boundary-layer units never read the sizing.
  MergedMesh mesh;
  GradedSizing placeholder;
  std::vector<std::size_t> phase0;
  phase0.push_back(instrument(
      WorkUnit{WorkUnit::Kind::kBlDecompose, make_root_subdomain(bl.points),
               {}},
      placeholder, opts, graph, &mesh));
  graph.phases.push_back(std::move(phase0));

  // Serial inter-phase work: ring restriction + interface extraction.
  Timer serial1;
  restrict_to_ring(mesh, bl);
  const InviscidDomain domain = make_inviscid_domain(bl, opts, mesh);
  graph.serial_before.push_back(0.0);
  graph.distributable_before.push_back(serial1.seconds());

  std::vector<WorkUnit> roots;
  for (InviscidSubdomain& quad : initial_quadrants(domain)) {
    roots.push_back(
        WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
  }
  roots.push_back(WorkUnit{WorkUnit::Kind::kInviscidDecouple,
                           {},
                           near_body_subdomain(domain)});
  std::vector<std::size_t> phase1;
  for (const WorkUnit& root : roots) {
    phase1.push_back(instrument(root, domain.sizing, opts, graph, nullptr));
  }
  graph.phases.push_back(std::move(phase1));
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
