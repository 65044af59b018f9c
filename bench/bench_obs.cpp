// Tracing overhead: the observability subsystem promises < 2% end-to-end
// cost when enabled and zero measurable cost when the macros compile out.
//
// Measured two ways:
//   1. per-event micro cost -- nanoseconds per span / instant emit into the
//      ring buffer, and per disabled-site check (one relaxed atomic load);
//   2. pipeline cost -- the full mesh pipeline run alternately with tracing
//      off and on (interleaved, after a warm-up run, so drift and cache
//      effects hit both sides equally), reported as a percent delta.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/mesh_generator.hpp"
#include "core/timer.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace aero;
  obs::TraceRecorder& rec = obs::TraceRecorder::global();

  // --- Per-event micro cost ------------------------------------------------
  constexpr std::size_t kEvents = 1u << 20;
  rec.reset();
  rec.set_capacity(kEvents + 16);
  rec.set_enabled(true);
  double span_ns, instant_ns, disabled_ns;
  {
    Timer t;
    for (std::size_t k = 0; k < kEvents; ++k) {
      AERO_TRACE_SPAN("bench", "emit");
    }
    span_ns = 1e9 * t.seconds() / kEvents;
  }
  rec.reset();
  rec.set_capacity(kEvents + 16);
  {
    Timer t;
    for (std::size_t k = 0; k < kEvents; ++k) {
      AERO_TRACE_INSTANT_ARG("bench", "emit", k);
    }
    instant_ns = 1e9 * t.seconds() / kEvents;
  }
  rec.set_enabled(false);
  rec.reset();
  {
    Timer t;
    for (std::size_t k = 0; k < kEvents; ++k) {
      AERO_TRACE_SPAN("bench", "emit");
    }
    disabled_ns = 1e9 * t.seconds() / kEvents;
  }
  std::printf("per-event cost: span %.1f ns, instant %.1f ns, "
              "disabled site %.2f ns\n\n",
              span_ns, instant_ns, disabled_ns);

  // --- Pipeline cost -------------------------------------------------------
  Options config;
  config.airfoil = make_three_element(400);
  config.growth_kind = GrowthKind::kGeometric;
  config.first_height = 4e-4;
  config.growth_ratio = 1.2;
  config.max_layers = 40;
  config.farfield_chords = 10.0;
  config.inviscid_target_triangles = 200000.0;
  config.bl_min_points = 800;
  config.bl_max_level = 12;

  generate_mesh(config);  // warm-up: fault caches and the allocator

  // Alternate which side goes first each rep so cache warmth and clock drift
  // cancel instead of biasing one side.
  constexpr int kReps = 6;
  std::vector<double> off_s, on_s;
  const auto run_once = [&](bool traced, std::vector<double>& out) {
    config.trace = traced;
    rec.set_enabled(false);
    rec.reset();
    Timer t;
    generate_mesh(config);
    out.push_back(t.seconds());
    rec.set_enabled(false);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    if (rep % 2 == 0) {
      run_once(false, off_s);
      run_once(true, on_s);
    } else {
      run_once(true, on_s);
      run_once(false, off_s);
    }
  }
  const auto median = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double off = median(off_s), on = median(on_s);
  const double overhead_pct = 100.0 * (on - off) / off;
  std::printf("pipeline (median of %d): untraced %.3f s, traced %.3f s, "
              "overhead %+.2f%%   [budget: < 2%%]\n",
              kReps, off, on, overhead_pct);

  return overhead_pct < 2.0 ? 0 : 1;
}
