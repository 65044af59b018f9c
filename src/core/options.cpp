#include "core/options.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace aero {

namespace {

// Strict scalar parsers for option_specs(): the whole token must consume,
// so "--ranks 4x" is a usage error instead of silently meaning 4.
bool parse_double(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_long(const char* text, long* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const char* growth_name(GrowthKind k) {
  switch (k) {
    case GrowthKind::kGeometric: return "geometric";
    case GrowthKind::kPolynomial: return "polynomial";
    case GrowthKind::kAdaptive: return "adaptive";
  }
  return "geometric";
}

/// Twice the signed area of a closed loop, positive when counter-clockwise.
/// Summed as a fan about the first point, so a body far from the origin
/// loses nothing to cancellation.
double twice_signed_area(const std::vector<Vec2>& loop) {
  double a2 = 0.0;
  for (std::size_t i = 1; i + 1 < loop.size(); ++i) {
    a2 += (loop[i] - loop[0]).cross(loop[i + 1] - loop[0]);
  }
  return a2;
}

void err(std::vector<OptionIssue>& out, const char* field, std::string msg) {
  out.push_back({OptionIssue::Severity::kError, field, std::move(msg)});
}

void warn(std::vector<OptionIssue>& out, const char* field, std::string msg) {
  out.push_back({OptionIssue::Severity::kWarning, field, std::move(msg)});
}

}  // namespace

std::string format_issues(const std::vector<OptionIssue>& issues) {
  std::string out;
  for (const OptionIssue& i : issues) {
    out += i.is_error() ? "error: " : "warning: ";
    out += i.field;
    out += ": ";
    out += i.message;
    out += '\n';
  }
  return out;
}

std::vector<OptionIssue> Options::validate() const {
  std::vector<OptionIssue> issues;
  if (airfoil.elements.empty()) {
    err(issues, "geometry", "no input surfaces (set Options::airfoil)");
  }
  bool all_finite = true;
  for (std::size_t e = 0; e < airfoil.elements.size(); ++e) {
    const std::vector<Vec2>& surface = airfoil.elements[e].surface;
    if (surface.size() < 3) {
      err(issues, "geometry",
          "element " + std::to_string(e) + " has fewer than 3 surface points");
    }
    // A NaN escapes the Delaunay kernel as an untyped exception and an
    // infinity keeps the mesher from ever finishing: reject both here.
    const auto bad = std::find_if(surface.begin(), surface.end(), [](Vec2 p) {
      return !std::isfinite(p.x) || !std::isfinite(p.y);
    });
    if (bad != surface.end()) {
      all_finite = false;
      err(issues, "geometry",
          "element " + std::to_string(e) + " point " +
              std::to_string(bad - surface.begin()) +
              " has a non-finite coordinate");
    } else if (surface.size() >= 3 && !(twice_signed_area(surface) > 0.0)) {
      // The mesher meshes a clockwise loop inside out and a flat one as
      // nothing, and reports kOk for both. Reject, never reorder: the CLI's
      // --poly loader reverses clockwise loops before it validates.
      err(issues, "geometry",
          "element " + std::to_string(e) +
              " is clockwise or has zero area (surfaces are closed "
              "counter-clockwise loops)");
    }
  }
  // The chord scales the far field and crosses the aeromeshd wire; a NaN
  // or infinite one never lets the mesher finish.
  const bool chord_ok = std::isfinite(airfoil.chord) && airfoil.chord > 0.0;
  if (!chord_ok) err(issues, "geometry", "chord must be finite and > 0");
  // make_inviscid_domain centres a far-field square of half-extent
  // farfield_chords x chord on the boundary layer. A body as wide or as tall
  // as that square cannot be meshed, and the mesher does not stop on one by
  // itself. Non-finite coordinates and a bad chord are reported above.
  const BBox2 body = airfoil.bbox();
  const double farfield_side = 2.0 * farfield_chords * airfoil.chord;
  if (all_finite && chord_ok && !body.empty() &&
      (body.width() >= farfield_side || body.height() >= farfield_side)) {
    err(issues, "geometry",
        "surfaces span " + fmt_double(body.width()) + " x " +
            fmt_double(body.height()) + ", which does not fit inside the " +
            fmt_double(farfield_side) +
            "-wide far field (2 x farfield_chords x chord)");
  }
  if (!(first_height > 0.0)) {
    err(issues, "first_height", "first cell height must be > 0");
  }
  if (growth_kind != GrowthKind::kPolynomial && !(growth_ratio >= 1.0)) {
    err(issues, "growth_ratio", "geometric/adaptive growth ratio must be >= 1");
  }
  if (growth_kind == GrowthKind::kPolynomial && !(growth_ratio >= 0.0)) {
    err(issues, "growth_ratio", "polynomial growth exponent must be >= 0");
  }
  if (max_layers < 1) err(issues, "max_layers", "need at least one layer");
  if (!(farfield_chords > 1.0)) {
    err(issues, "farfield_chords", "far field must exceed one chord");
  } else if (farfield_chords < 10.0) {
    warn(issues, "farfield_chords",
         "far field below 10 chords; the paper uses 30-50");
  }
  if (!(nearbody_margin > 0.0)) {
    err(issues, "nearbody_margin", "near-body margin must be > 0");
  }
  if (!(grade > 0.0)) err(issues, "grade", "sizing grade must be > 0");
  if (!(surface_length_factor > 0.0)) {
    err(issues, "surface_length_factor", "transition factor must be > 0");
  }
  if (bl_min_points < 3) {
    err(issues, "bl_min_points", "subdomains need at least 3 points");
  }
  if (bl_max_level < 0) err(issues, "bl_max_level", "depth cap must be >= 0");
  if (!(inviscid_target_triangles > 0.0)) {
    err(issues, "inviscid_target_triangles", "target must be > 0");
  }
  if (inviscid_max_level < 0) {
    err(issues, "inviscid_max_level", "depth cap must be >= 0");
  }
  if (ranks < 0) err(issues, "ranks", "rank count must be >= 0");
  if (threads_per_rank < 1) {
    err(issues, "threads_per_rank", "thread count must be >= 1");
  }
  if (ack_timeout_ms < 1) {
    err(issues, "ack_timeout_ms", "ack timeout must be >= 1 ms");
  }
  if (heartbeat_timeout_ms < 1) {
    err(issues, "heartbeat_timeout_ms", "heartbeat timeout must be >= 1 ms");
  } else if (heartbeat_timeout_ms <= ack_timeout_ms) {
    warn(issues, "heartbeat_timeout_ms",
         "heartbeat timeout at or below the ack timeout: one retransmit "
         "window can get a live rank declared dead");
  }
  if (watchdog_timeout_s < 0) {
    err(issues, "watchdog_timeout_s", "watchdog bound must be >= 0 (0 = auto)");
  }
  if (budget_wall_ms < 0) {
    err(issues, "budget_wall_ms", "wall budget must be >= 0 (0 = unlimited)");
  }
  if (budget_rss_mb < 0) {
    err(issues, "budget_rss_mb", "RSS budget must be >= 0 (0 = unlimited)");
  }
  if ((budget_wall_ms > 0 || budget_rss_mb > 0) && ranks <= 0) {
    warn(issues, budget_wall_ms > 0 ? "budget_wall_ms" : "budget_rss_mb",
         "run budgets are enforced by the parallel pool; the sequential "
         "pipeline ignores them");
  }
  if (!checkpoint_path.empty() && ranks <= 0) {
    err(issues, "checkpoint_path", "checkpointing requires ranks > 0");
  }
  if (!resume_path.empty() && ranks <= 0) {
    err(issues, "resume_path", "resume requires ranks > 0");
  }
  if (fault_rate < 0.0 || fault_rate >= 1.0) {
    err(issues, "fault_rate", "injection rate must be in [0, 1)");
  } else if (fault_rate > 0.0 && ranks <= 0) {
    err(issues, "fault_rate", "fault injection requires ranks > 0");
  }
  if (trace_events == 0) {
    err(issues, "trace_events", "trace buffer capacity must be > 0");
  }
  return issues;
}

const std::vector<OptionSpec>& option_specs() {
  // Defaults are rendered from a default-constructed Options, so this table
  // can never disagree with the initializers in options.hpp.
  static const std::vector<OptionSpec> specs = [] {
    const Options d;
    std::vector<OptionSpec> s;
    s.push_back({"--first-height", "H",
                 "first boundary-layer cell height (chords)",
                 fmt_double(d.first_height),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.first_height);
                 }});
    s.push_back({"--growth-ratio", "R",
                 "growth ratio (geometric/adaptive) or exponent (polynomial)",
                 fmt_double(d.growth_ratio),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.growth_ratio);
                 }});
    s.push_back({"--growth", "KIND", "growth law: geometric|polynomial|adaptive",
                 growth_name(d.growth_kind),
                 [](Options& o, const char* t) {
                   const std::string g = t;
                   if (g == "geometric") {
                     o.growth_kind = GrowthKind::kGeometric;
                   } else if (g == "polynomial") {
                     o.growth_kind = GrowthKind::kPolynomial;
                   } else if (g == "adaptive") {
                     o.growth_kind = GrowthKind::kAdaptive;
                   } else {
                     return false;
                   }
                   return true;
                 }});
    s.push_back({"--max-layers", "N", "cap on boundary-layer layers",
                 std::to_string(d.max_layers),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v)) return false;
                   o.max_layers = static_cast<int>(v);
                   return true;
                 }});
    s.push_back({"--farfield", "C", "far-field half-extent in chords",
                 fmt_double(d.farfield_chords),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.farfield_chords);
                 }});
    s.push_back({"--nearbody-margin", "M",
                 "near-body box margin beyond the layer cloud (chords)",
                 fmt_double(d.nearbody_margin),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.nearbody_margin);
                 }});
    s.push_back({"--grade", "G",
                 "inviscid edge-length growth per unit distance",
                 fmt_double(d.grade),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.grade);
                 }});
    s.push_back({"--surface-length-factor", "F",
                 "inviscid sizing at the near-body box (x mean border spacing)",
                 fmt_double(d.surface_length_factor),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.surface_length_factor);
                 }});
    s.push_back({"--bl-min-points", "N",
                 "stop splitting boundary-layer subdomains below N points",
                 std::to_string(d.bl_min_points),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v) || v < 0) return false;
                   o.bl_min_points = static_cast<std::size_t>(v);
                   return true;
                 }});
    s.push_back({"--bl-max-level", "N",
                 "boundary-layer decomposition depth cap",
                 std::to_string(d.bl_max_level),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v)) return false;
                   o.bl_max_level = static_cast<int>(v);
                   return true;
                 }});
    s.push_back({"--inviscid-target", "T",
                 "inviscid decoupling target triangles per subdomain",
                 fmt_double(d.inviscid_target_triangles),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.inviscid_target_triangles);
                 }});
    s.push_back({"--inviscid-max-level", "N",
                 "inviscid decoupling depth cap",
                 std::to_string(d.inviscid_max_level),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v)) return false;
                   o.inviscid_max_level = static_cast<int>(v);
                   return true;
                 }});
    s.push_back({"--ranks", "P",
                 "mesh on a P-rank in-process pool (0 = sequential)",
                 std::to_string(d.ranks),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v)) return false;
                   o.ranks = static_cast<int>(v);
                   return true;
                 }});
    s.push_back({"--threads-per-rank", "T",
                 "threads inside each rank's subdomain refinement "
                 "(performance-only; the mesh is identical at every T)",
                 std::to_string(d.threads_per_rank),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v)) return false;
                   o.threads_per_rank = static_cast<int>(v);
                   return true;
                 }});
    s.push_back({"--ack-timeout-ms", "N",
                 "retransmit unacked pool transfers after N ms",
                 std::to_string(d.ack_timeout_ms),
                 [](Options& o, const char* t) {
                   return parse_long(t, &o.ack_timeout_ms);
                 }});
    s.push_back({"--heartbeat-timeout-ms", "N",
                 "declare a silent rank dead after N ms without a heartbeat",
                 std::to_string(d.heartbeat_timeout_ms),
                 [](Options& o, const char* t) {
                   return parse_long(t, &o.heartbeat_timeout_ms);
                 }});
    s.push_back({"--watchdog-timeout-s", "N",
                 "hard watchdog bound per pool pass (0 = auto-scale with "
                 "problem size)",
                 std::to_string(d.watchdog_timeout_s),
                 [](Options& o, const char* t) {
                   return parse_long(t, &o.watchdog_timeout_s);
                 }});
    s.push_back({"--budget-wall-ms", "N",
                 "wall budget per pool pass; on exhaustion drain gracefully "
                 "to a resumable partial mesh (0 = unlimited)",
                 std::to_string(d.budget_wall_ms),
                 [](Options& o, const char* t) {
                   return parse_long(t, &o.budget_wall_ms);
                 }});
    s.push_back({"--budget-rss-mb", "N",
                 "peak-RSS budget in MiB; same graceful drain (0 = unlimited)",
                 std::to_string(d.budget_rss_mb),
                 [](Options& o, const char* t) {
                   return parse_long(t, &o.budget_rss_mb);
                 }});
    s.push_back({"--checkpoint", "FILE",
                 "append finalized subdomains to this journal",
                 "none",
                 [](Options& o, const char* t) {
                   o.checkpoint_path = t;
                   return !o.checkpoint_path.empty();
                 }});
    s.push_back({"--resume", "FILE",
                 "resume from a journal: replay completed subdomains, mesh "
                 "only the remainder (appends in place unless --checkpoint)",
                 "none",
                 [](Options& o, const char* t) {
                   o.resume_path = t;
                   return !o.resume_path.empty();
                 }});
    s.push_back({"--fault-rate", "R",
                 "chaos run: inject message drops at rate R (dup/corrupt/"
                 "delay at R/2); requires --ranks",
                 fmt_double(d.fault_rate),
                 [](Options& o, const char* t) {
                   return parse_double(t, &o.fault_rate);
                 }});
    s.push_back({"--fault-seed", "S",
                 "deterministic seed for fault injection",
                 std::to_string(d.fault_seed),
                 [](Options& o, const char* t) {
                   return parse_u64(t, &o.fault_seed);
                 }});
    s.push_back({"--trace-events", "N",
                 "per-thread trace buffer capacity in events",
                 std::to_string(d.trace_events),
                 [](Options& o, const char* t) {
                   long v;
                   if (!parse_long(t, &v) || v <= 0) return false;
                   o.trace_events = static_cast<std::size_t>(v);
                   return true;
                 }});
    return s;
  }();
  return specs;
}

long scaled_watchdog_seconds(const Options& opts) {
  if (opts.watchdog_timeout_s > 0) return opts.watchdog_timeout_s;
  // Work scales roughly with the boundary-layer point count (surface points
  // x layers); 2500 point-layers per second is far below what even an
  // oversubscribed CI box manages, so the bound only catches real hangs.
  const std::size_t points = opts.airfoil.surface_point_count();
  const long layers = static_cast<long>(opts.max_layers) + 1;
  const long scaled =
      120 + static_cast<long>(points) * layers / 2500;
  return scaled < 120 ? 120 : (scaled > 7200 ? 7200 : scaled);
}

}  // namespace aero
