// aeromesh: the push-button command-line mesh generator.
//
// "The user only needs to specify the input geometry and boundary layer
// parameters to start the program, then momentarily wait for the resulting
// mesh without having to further interact with the application."
//
// Usage: aeromesh [options]; run `aeromesh --help` for the full flag table.
//
// Application-level options (geometry selection, output, observers) are the
// short table below; every library knob (boundary layer, sizing, pool,
// faults, trace buffers) is parsed from aero::option_specs(), the metadata
// table generated from `aero::Options` — so --help, the benches, and the CLI
// can never drift from the library defaults documented in core/options.hpp.
//
// Long options also accept --name=value syntax (e.g. --trace=run.json).
//
// Exit codes: 0 success; 1 non-manifold mesh; 2 usage error (including a
// --poly file that cannot be read or whose segments are not all on simple
// closed loops); 3 partial or failed parallel run
// (watchdog/lost results); 4 pipeline exception; 5 an --audit pass reported
// defects; 6 run stopped by a budget or signal (valid partial mesh written;
// resumable with --resume when checkpointing); 7 mesh exceeded 32-bit index
// capacity (checked kMeshTooLarge, never a silent index truncation).
//
// Signals (parallel runs): the first SIGINT/SIGTERM requests a graceful
// drain -- in-flight subdomains finish, the checkpoint journal, partial
// mesh, trace, and metrics are all written, and the process exits 6. A
// second signal force-exits immediately (130).

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "aero.hpp"
#include "airfoil/naca.hpp"
#include "check/audit.hpp"
#include "io/mesh_io.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "runtime/parallel_driver.hpp"

namespace {

using namespace aero;

/// Application options: everything that is about this program (inputs,
/// outputs, observers) rather than about the mesher. Library knobs are NOT
/// listed here — they come from aero::option_specs().
struct AppFlag {
  const char* flag;
  const char* value_name;  ///< nullptr for boolean switches
  const char* help;
};

/// Signal-driven graceful stop. The handler only touches lock-free atomics
/// and _Exit, all async-signal-safe; the pool's monitor thread polls g_stop.
std::atomic<bool> g_stop AERO_ATOMIC_ROLE(flag){false};
std::atomic<int> g_signals AERO_ATOMIC_ROLE(counter){0};

void handle_stop_signal(int) {
  if (g_signals.fetch_add(1) >= 1) std::_Exit(130);  // second signal: now
  g_stop.store(true);
}

constexpr AppFlag kAppFlags[] = {
    {"--geometry", "NAME",
     "naca0012 | naca<code> | three-element (default naca0012)"},
    {"--poly", "FILE", "custom PSLG geometry (closed CCW loop(s))"},
    {"--surface-points", "N",
     "points per side for generated sections (default 300)"},
    {"--audit", nullptr,
     "run the invariant auditors at every phase boundary (read-only)"},
    {"--trace", "FILE",
     "record a timeline as Chrome trace_event JSON (observation-only)"},
    {"--metrics", "FILE",
     "write metrics.json (counters, gauges, per-rank load balance)"},
    {"--output", "BASE", "output basename (default \"mesh\")"},
    {"--format", "KIND", "vtk | node-ele | binary | all (default vtk)"},
    {"--help", nullptr, "print this table and exit"},
};

[[noreturn]] void usage(const char* argv0, bool requested) {
  FILE* out = requested ? stdout : stderr;
  std::fprintf(out, "usage: %s [options]\n\napplication options:\n", argv0);
  for (const AppFlag& f : kAppFlags) {
    char head[64];
    std::snprintf(head, sizeof(head), "%s %s", f.flag,
                  f.value_name != nullptr ? f.value_name : "");
    std::fprintf(out, "  %-28s %s\n", head, f.help);
  }
  std::fprintf(out, "\nlibrary options (defaults from aero::Options):\n");
  for (const OptionSpec& s : option_specs()) {
    char head[64];
    std::snprintf(head, sizeof(head), "%s %s", s.flag, s.value_name);
    std::fprintf(out, "  %-28s %s (default %s)\n", head, s.help,
                 s.default_str.c_str());
  }
  std::exit(requested ? 0 : 2);
}

AirfoilConfig load_poly_geometry(const std::string& path) {
  // A .poly whose segments form simple closed loops, each loop an element.
  // Anything else -- a vertex on other than two segments (a branch, an
  // open end, a stray vertex), a loop of fewer than three vertices, a
  // self-intersecting loop -- is an input error, never a silently dropped
  // segment.
  const Pslg pslg = read_poly(path);
  const auto reject = [&path](const std::string& what) {
    throw std::runtime_error(path + ": " + what);
  };
  std::vector<std::vector<std::uint32_t>> adjacency(pslg.points.size());
  for (const auto& [a, b] : pslg.segments) {
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  for (std::uint32_t v = 0; v < adjacency.size(); ++v) {
    if (adjacency[v].size() != 2) {
      reject("vertex " + std::to_string(v) + " is on " +
             std::to_string(adjacency[v].size()) +
             " segment(s); every vertex must be on exactly one closed loop");
    }
  }
  // Every vertex has two segments, so the walks below trace disjoint
  // cycles; a cycle of fewer than three vertices (a repeated or
  // zero-length segment) leaves its segments uncovered.
  AirfoilConfig config;
  std::vector<bool> used(pslg.points.size(), false);
  std::size_t covered = 0;
  for (std::uint32_t start = 0; start < pslg.points.size(); ++start) {
    if (used[start]) continue;
    std::vector<Vec2> loop;
    std::uint32_t prev = start, cur = start;
    do {
      used[cur] = true;
      loop.push_back(pslg.points[cur]);
      const auto& nb = adjacency[cur];
      const std::uint32_t next = nb[0] == prev ? nb[1] : nb[0];
      prev = cur;
      cur = next;
    } while (cur != start && !used[cur]);
    if (loop.size() < 3) continue;
    covered += loop.size();
    // Ensure CCW orientation.
    double area2 = 0.0;
    for (std::size_t i = 0; i < loop.size(); ++i) {
      area2 += loop[i].cross(loop[(i + 1) % loop.size()]);
    }
    if (area2 < 0.0) std::reverse(loop.begin(), loop.end());
    AirfoilElement e;
    e.name = "element" + std::to_string(config.elements.size());
    e.surface = std::move(loop);
    if (!polygon_is_simple(e.surface)) {
      reject("loop " + std::to_string(config.elements.size()) +
             " self-intersects");
    }
    config.elements.push_back(std::move(e));
  }
  if (covered != pslg.segments.size()) {
    reject(std::to_string(pslg.segments.size() - covered) +
           " segment(s) not on a closed loop of three or more vertices");
  }
  if (config.elements.empty()) reject("no closed loops");
  const BBox2 box = config.bbox();
  config.chord = std::max(box.width(), box.height());
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  std::string geometry = "naca0012";
  std::string poly_path;
  std::string output = "mesh";
  std::string format = "vtk";
  std::size_t surface_points = 300;
  Options opts;
  bool audit = false;
  std::string trace_path;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--audit") == 0) {
      audit = true;
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], /*requested=*/true);
    }
    // Value-taking option, in "--name value" or "--name=value" form.
    const auto arg = [&](const char* name) -> const char* {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        return argv[i] + len + 1;
      }
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) usage(argv[0], false);
      return argv[++i];
    };
    if (const char* v = arg("--geometry")) {
      geometry = v;
    } else if (const char* v = arg("--poly")) {
      poly_path = v;
    } else if (const char* v = arg("--surface-points")) {
      surface_points = std::strtoul(v, nullptr, 10);
    } else if (const char* v = arg("--trace")) {
      trace_path = v;
    } else if (const char* v = arg("--metrics")) {
      metrics_path = v;
    } else if (const char* v = arg("--output")) {
      output = v;
    } else if (const char* v = arg("--format")) {
      format = v;
    } else {
      // Library knobs: every remaining flag is looked up in the Options
      // metadata table, so the CLI needs no per-knob code at all.
      bool matched = false;
      for (const OptionSpec& spec : option_specs()) {
        if (const char* v = arg(spec.flag)) {
          if (!spec.apply(opts, v)) {
            std::fprintf(stderr, "error: bad value for %s: '%s'\n", spec.flag,
                         v);
            return 2;
          }
          matched = true;
          break;
        }
      }
      if (!matched) usage(argv[0], false);
    }
  }
  opts.trace = !trace_path.empty();

  if (!poly_path.empty()) {
    try {
      opts.airfoil = load_poly_geometry(poly_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else if (geometry == "three-element") {
    opts.airfoil = make_three_element(surface_points);
  } else if (geometry.rfind("naca", 0) == 0 && geometry.size() == 8) {
    AirfoilElement e;
    e.name = geometry;
    e.surface = naca4_polyline(Naca4::from_code(geometry.substr(4)),
                               surface_points);
    opts.airfoil.elements.push_back(std::move(e));
  } else if (geometry == "naca0012") {
    opts.airfoil = make_naca0012(surface_points);
  } else {
    usage(argv[0], false);
  }

  // Typed validation of the whole option set: print every issue, stop on
  // errors (warnings are advisory).
  {
    const std::vector<OptionIssue> issues = opts.validate();
    bool fatal = false;
    for (const OptionIssue& issue : issues) {
      std::fprintf(stderr, "%s: %s: %s\n",
                   issue.is_error() ? "error" : "warning", issue.field.c_str(),
                   issue.message.c_str());
      fatal = fatal || issue.is_error();
    }
    if (fatal) return 2;
  }

  const int ranks = opts.ranks;
  std::printf("aeromesh: %zu element(s), %zu surface points, farfield %g "
              "chords%s\n",
              opts.airfoil.elements.size(),
              opts.airfoil.surface_point_count(), opts.farfield_chords,
              ranks > 0 ? " (parallel pool)" : "");

  MergedMesh mesh;
  PhaseTimings timings;
  RunStatus status = RunStatus::kOk;
  ProtocolTrace trace;
  std::vector<obs::RankLoad> load_rows;
  std::size_t audit_defects = 0;
  if (audit) {
    // Deep invariant audits at every phase boundary. Read-only: the mesh of
    // an audited run is bit-identical to an unaudited one.
    opts.phase_hook = [&audit_defects](const char* phase,
                                       const PhaseArtifacts& a) {
      AuditReport report;
      if (std::strcmp(phase, "boundary_layer") == 0 &&
          a.boundary_layer != nullptr) {
        report.merge(audit_blayer(*a.boundary_layer));
      }
      if (a.mesh != nullptr) report.merge(audit_merged(*a.mesh));
      std::printf("audit[%s]: %s\n", phase, report.summary().c_str());
      audit_defects += report.defect_count;
    };
  }
  CheckpointSummary resilience;
  try {
    if (ranks > 0) {
      // Graceful signal handling only makes sense with the pool (the
      // sequential pipeline has no drain point); leave the default
      // immediate-kill behavior for sequential runs.
      // aerolint: allow(atomic-mixed: hands the atomic object itself to the pool's stop-flag observer, which loads it atomically)
      opts.stop_flag = &g_stop;
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
      ParallelMeshResult r =
          parallel_generate_mesh(opts, audit ? &trace : nullptr);
      mesh = std::move(r.mesh);
      timings = r.timings;
      status = r.status;
      resilience = r.resilience;
      load_rows = rank_loads(r);
      if (resilience.resume_attempted) {
        if (resilience.resume_rejected) {
          std::fprintf(stderr, "warning: resume rejected: %s\n",
                       resilience.resume_error.c_str());
        } else {
          std::printf("resume: %zu journal record(s) loaded, %zu subdomain(s) "
                      "replayed instead of re-meshed",
                      resilience.resume_records, resilience.resumed_units);
          if (resilience.discarded_bytes > 0) {
            std::printf(" (%zu corrupt tail byte(s) discarded)",
                        resilience.discarded_bytes);
          }
          std::printf("\n");
        }
      }
      std::printf("pool steals: %zu (bl) + %zu (inviscid)\n", r.bl_pool.steals,
                  r.inviscid_pool.steals);
      if (opts.fault_rate > 0.0) {
        const PoolStats& b = r.bl_pool;
        const PoolStats& i = r.inviscid_pool;
        std::printf("faults: dropped %zu, corrupt %zu, retries %zu, "
                    "requeued %zu, fallback %zu, retransmits %zu, "
                    "dead ranks %zu\n",
                    b.dropped_messages + i.dropped_messages,
                    b.corrupt_payloads + i.corrupt_payloads,
                    b.unit_retries + i.unit_retries,
                    b.requeued_units + i.requeued_units,
                    b.fallback_units + i.fallback_units,
                    b.retransmits + i.retransmits,
                    b.dead_ranks + i.dead_ranks);
      }
      if (status == RunStatus::kStopped) {
        // Completeness report: what a drained run finished and how to get
        // the rest.
        std::printf("run stopped (%s): %zu of %zu subdomain(s) complete; "
                    "partial mesh is valid\n",
                    to_string(resilience.stop_cause), resilience.units_done,
                    resilience.units_total);
        if (resilience.checkpointed_units > 0 ||
            !opts.checkpoint_path.empty() || !opts.resume_path.empty()) {
          const std::string& journal = !opts.checkpoint_path.empty()
                                           ? opts.checkpoint_path
                                           : opts.resume_path;
          std::printf("re-run with --resume %s to mesh the remainder\n",
                      journal.c_str());
        } else {
          std::printf("re-run with --checkpoint FILE to make stopped runs "
                      "resumable\n");
        }
      } else if (status != RunStatus::kOk) {
        std::fprintf(stderr, "warning: parallel run status: %s\n",
                     to_string(status));
      }
      if (audit) {
        // Replay the recorded pool protocol. A watchdog-aborted or drained
        // run legitimately leaves work unfinished; only the exactly-once
        // and ordering invariants are enforced then.
        const AuditReport report = audit_protocol(
            trace, status == RunStatus::kFailed ||
                       status == RunStatus::kStopped);
        std::printf("audit[protocol]: %s\n", report.summary().c_str());
        audit_defects += report.defect_count;
      }
    } else {
      MeshGenerationResult r = generate_mesh(opts);
      mesh = std::move(r.mesh);
      timings = r.timings;
      status = r.status;
    }
  } catch (const MeshTooLargeError& e) {
    status = RunStatus::kMeshTooLarge;
    std::fprintf(stderr, "error: %s: %s\n", to_string(status), e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: mesh generation failed: %s\n", e.what());
    return 4;
  }

  const MergedStats stats = compute_stats(mesh);
  const auto conf = mesh.check_conformity();
  std::printf("mesh: %zu triangles, %zu vertices, min angle %.2f deg, "
              "manifold=%s\n",
              stats.triangles, stats.vertices, stats.min_angle_deg,
              conf.manifold ? "yes" : "NO");
  for (const auto& [phase, sec] : timings.entries()) {
    std::printf("  %-32s %8.3f s\n", phase.c_str(), sec);
  }

  {
    // Mesh- and phase-level metrics, published whether or not they are
    // exported (recording is cheap; the registry is process-global).
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.gauge("mesh.triangles").set(static_cast<double>(stats.triangles));
    reg.gauge("mesh.vertices").set(static_cast<double>(stats.vertices));
    reg.gauge("mesh.min_angle_deg").set(stats.min_angle_deg);
    for (const auto& [phase, sec] : timings.entries()) {
      reg.gauge("phase." + phase + "_seconds").set(sec);
    }
  }
  if (!trace_path.empty()) {
    if (obs::write_chrome_trace(obs::TraceRecorder::global(), trace_path)) {
      std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write trace to %s\n",
                   trace_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    if (obs::write_metrics_json(obs::MetricsRegistry::global(), load_rows,
                                metrics_path)) {
      std::printf("wrote %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write metrics to %s\n",
                   metrics_path.c_str());
    }
  }

  if (format == "vtk" || format == "all") {
    write_vtk(mesh, output + ".vtk");
    std::printf("wrote %s.vtk\n", output.c_str());
  }
  if (format == "node-ele" || format == "all") {
    write_node_ele(mesh, output);
    std::printf("wrote %s.node/.ele\n", output.c_str());
  }
  if (format == "binary" || format == "all") {
    write_binary(mesh, output + ".bin");
    std::printf("wrote %s.bin\n", output.c_str());
  }
  if (audit_defects > 0) {
    std::fprintf(stderr, "error: --audit reported %zu defect(s)\n",
                 audit_defects);
    return 5;
  }
  if (status == RunStatus::kStopped) return 6;
  if (status == RunStatus::kPartial || status == RunStatus::kFailed) return 3;
  return conf.manifold ? 0 : 1;
}
