#pragma once

#include "blayer/boundary_layer.hpp"
#include "core/options.hpp"
#include "core/subdomain_tree.hpp"
#include "hull/subdomain.hpp"
#include "obs/trace.hpp"

namespace aero {

/// The one narrow lowering from the public aero::Options to the internal
/// stage structs. Used only by the pipeline drivers (sequential pipeline,
/// parallel driver, cluster-model builder) and the fixtures that mirror
/// them; everything else consumes Options directly.

inline BoundaryLayerOptions blayer_options(const Options& opts) {
  BoundaryLayerOptions bl;
  bl.growth = {opts.growth_kind, opts.first_height, opts.growth_ratio};
  bl.max_layers = opts.max_layers;
  return bl;
}

inline DecomposeOptions bl_decompose_options(const Options& opts) {
  return DecomposeOptions{.min_points = opts.bl_min_points,
                          .max_level = opts.bl_max_level};
}

inline TreeRules tree_rules(const Options& opts) {
  return TreeRules{.bl_decompose = bl_decompose_options(opts),
                   .inviscid_target_triangles = opts.inviscid_target_triangles,
                   .inviscid_max_level = opts.inviscid_max_level,
                   .refine_threads = opts.threads_per_rank};
}

inline obs::TraceConfig trace_config(const Options& opts) {
  obs::TraceConfig tc;
  tc.enabled = opts.trace;
  tc.events_per_thread = opts.trace_events;
  return tc;
}

}  // namespace aero
