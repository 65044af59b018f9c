// Cluster performance model: simulator invariants on synthetic task graphs
// plus sanity of the measured-graph path.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/mesh_generator.hpp"
#include "runtime/cluster_model.hpp"

namespace aero {
namespace {

/// Balanced binary decomposition: `levels` split levels, leaves of equal
/// cost. Mirrors the BL decomposition shape.
TaskGraph synthetic_tree(int levels, double split_cost, double leaf_cost,
                         std::size_t bytes) {
  TaskGraph g;
  g.serial_before = {0.0};
  std::vector<std::size_t> roots;

  // Build recursively.
  const std::function<std::size_t(int)> build = [&](int level) {
    const std::size_t id = g.nodes.size();
    g.nodes.emplace_back();
    g.nodes[id].bytes = bytes;
    g.nodes[id].cost_estimate = std::pow(2.0, levels - level);
    if (level == levels) {
      g.nodes[id].seconds = leaf_cost;
      return id;
    }
    g.nodes[id].seconds = split_cost;
    const std::size_t a = build(level + 1);
    const std::size_t b = build(level + 1);
    g.nodes[id].children = {a, b};
    return id;
  };
  roots.push_back(build(0));
  g.phases.push_back(roots);
  return g;
}

ClusterOptions fast_net() {
  ClusterOptions o;
  o.latency_seconds = 1e-7;
  o.bandwidth_bytes_per_s = 1e10;
  o.window_staleness_seconds = 1e-6;
  return o;
}

TEST(ClusterModel, OneRankMakespanIsTotalWork) {
  const TaskGraph g = synthetic_tree(6, 0.001, 0.1, 1000);
  const SimResult r = simulate_cluster(g, 1, fast_net());
  EXPECT_NEAR(r.makespan_seconds, g.total_seconds(), 1e-12);
  EXPECT_NEAR(r.speedup, 1.0, 1e-12);
  EXPECT_EQ(r.steals, 0u);
}

TEST(ClusterModel, SpeedupMonotoneAndBounded) {
  const TaskGraph g = synthetic_tree(8, 0.0005, 0.05, 10000);
  double prev = 0.0;
  for (const int p : {1, 2, 4, 8, 16, 32}) {
    const SimResult r = simulate_cluster(g, p, fast_net());
    EXPECT_GE(r.speedup, prev * 0.999) << p;  // monotone up to noise
    EXPECT_LE(r.speedup, static_cast<double>(p) * 1.0001) << p;
    EXPECT_LE(r.efficiency, 1.0001);
    prev = r.speedup;
  }
}

TEST(ClusterModel, NearLinearOnEmbarrassinglyParallelLeaves) {
  // Cheap splits, expensive leaves: efficiency at 16 ranks should be high.
  const TaskGraph g = synthetic_tree(8, 1e-5, 0.2, 1000);
  const SimResult r = simulate_cluster(g, 16, fast_net());
  EXPECT_GT(r.efficiency, 0.85);
}

TEST(ClusterModel, SerialPhaseLimitsSpeedup) {
  // Amdahl: huge serial stage caps speedup near 1.
  TaskGraph g = synthetic_tree(4, 0.001, 0.01, 1000);
  g.serial_before[0] = g.total_seconds() * 9.0;  // 90% serial
  const SimResult r = simulate_cluster(g, 64, fast_net());
  EXPECT_LT(r.speedup, 1.2);
}

TEST(ClusterModel, SlowNetworkHurtsScaling) {
  const TaskGraph g = synthetic_tree(8, 0.0005, 0.02, 4'000'000);
  ClusterOptions slow = fast_net();
  slow.bandwidth_bytes_per_s = 1e7;  // 10 MB/s
  const SimResult fast = simulate_cluster(g, 32, fast_net());
  const SimResult congested = simulate_cluster(g, 32, slow);
  EXPECT_GT(fast.speedup, congested.speedup);
  EXPECT_GT(congested.comm_seconds, fast.comm_seconds);
}

TEST(ClusterModel, SweepCoversAllRankCounts) {
  const TaskGraph g = synthetic_tree(6, 0.001, 0.05, 1000);
  const auto sweep = strong_scaling_sweep(g, {1, 2, 4, 8}, fast_net());
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(sweep[i].ranks, 1 << i);
  }
}

TEST(ClusterModel, MeasuredGraphFromRealPipeline) {
  Options cfg;
  cfg.airfoil = make_naca0012(120);
  cfg.growth_kind = GrowthKind::kGeometric;
  cfg.first_height = 8e-4;
  cfg.growth_ratio = 1.3;
  cfg.max_layers = 25;
  cfg.farfield_chords = 12.0;
  cfg.inviscid_target_triangles = 4000.0;
  cfg.bl_min_points = 500;
  cfg.bl_max_level = 8;

  const TaskGraph g = build_task_graph(cfg);
  EXPECT_EQ(g.phases.size(), 2u);
  EXPECT_EQ(g.serial_before.size(), 2u);
  EXPECT_GT(g.nodes.size(), 10u);
  EXPECT_GT(g.total_seconds(), 0.0);
  for (const TaskNode& n : g.nodes) {
    EXPECT_GE(n.seconds, 0.0);
    EXPECT_GT(n.bytes, 0u);
    for (const std::size_t c : n.children) EXPECT_LT(c, g.nodes.size());
  }
  // The model must show real speedup on the measured graph.
  const SimResult r8 = simulate_cluster(g, 8, ClusterOptions{});
  EXPECT_GT(r8.speedup, 1.5);

  // The graph's shape is the pool's split/mesh tree for this configuration,
  // pinned exactly: node count, kinds, depth-first child lists and payload
  // bytes. Only the measured seconds may vary from run to run.
  std::map<std::string, int> labels;
  std::size_t bytes = 0;
  std::vector<std::vector<std::size_t>> children;
  for (const TaskNode& n : g.nodes) {
    ++labels[n.label];
    bytes += n.bytes;
    children.push_back(n.children);
  }
  EXPECT_EQ(g.nodes.size(), 20u);
  EXPECT_EQ(labels, (std::map<std::string, int>{{"bl-leaf", 8},
                                                {"bl-split", 7},
                                                {"inviscid-leaf", 4},
                                                {"near-body", 1}}));
  EXPECT_EQ(bytes, 362215u);
  const std::vector<std::vector<std::size_t>> expected_children = {
      {1, 8}, {2, 5}, {3, 4}, {}, {}, {6, 7}, {}, {}, {9, 12}, {10, 11},
      {}, {}, {13, 14}, {}, {}, {}, {}, {}, {}, {}};
  EXPECT_EQ(children, expected_children);
  EXPECT_EQ(g.phases,
            (std::vector<std::vector<std::size_t>>{{0}, {15, 16, 17, 18, 19}}));
}

}  // namespace
}  // namespace aero
