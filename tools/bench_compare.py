#!/usr/bin/env python3
"""Compare BENCH_*.json benchmark reports against committed baselines.

Every perf-trajectory bench writes a ``BENCH_<name>.json`` (schema in
src/obs/bench_report.hpp) into its working directory. The repo root carries
committed baselines of the headline benches; this tool diffs a fresh run
against them and fails on a wall-clock regression beyond the tolerance, so a
perf-sensitive PR can't silently lose what an earlier PR measured.

Wall times on a loaded or oversubscribed box are noisy, hence the generous
default tolerance (10%) and the counter report: counters (bytes moved,
speedups, triangle counts) are deterministic and are compared exactly in the
summary. Two fields gate: ``wall_ms`` and ``peak_rss_kb``. The RSS gate has
its own tolerance plus an absolute slack so small benches (where a few
freshly-touched allocator pages are a large fraction) don't flap; a report
with ``peak_rss_kb`` of 0 (platform unsupported) is not gated.

Service throughput: reports carrying ``requests_per_s`` and/or ``p99_ms``
counters (BENCH_service.json) are additionally gated on those -- a
throughput drop beyond the tolerance (default 10%) fails with the same
noise tolerance as wall_ms; the p99 ceiling uses its own ``--p99-tolerance``
(default 3x the wall tolerance) because a queue-tail latency is dominated by
scheduling jitter and legitimately swings far more than a mean under load.
Reports without the counters (every other bench) are unaffected.

Per-counter gates: a ``<report>.tolerances.json`` sidecar next to the
*baseline* report opts individual counters into gating with their own
tolerance, replacing the old one-global-flag-fits-all scheme. Schema::

  { "requests_per_s":          {"tolerance": 0.50, "higher_is_better": true},
    "peak_rss_per_triangle_b": {"tolerance": 0.15},
    "pipeline_triangles":      {"tolerance": 0.0} }

``higher_is_better`` flips the regression direction (a speedup falling below
``baseline * (1 - tolerance)`` fails; the default direction fails when the
counter rises above ``baseline * (1 + tolerance)``). ``tolerance: 0`` pins a
deterministic counter exactly, in both directions. Counters absent from the
sidecar keep the old behavior: printed with a ``(changed)`` marker, never
gated. Entries whose value is not an object are ignored (room for
``_comment`` keys).

Exit codes: 0 ok, 1 regression or malformed input, 77 soft-skip (either side
has no reports -- e.g. the benches were never run in this build tree; the
ctest entry maps 77 to SKIPPED so a test-only checkout stays green).

Usage:
  bench_compare.py --baseline <dir-or-file> --current <dir-or-file>
                   [--tolerance 0.10] [--rss-tolerance 0.25]
                   [--rss-slack-kb 16384] [--p99-tolerance 0.30]
"""

import argparse
import glob
import json
import os
import sys

SKIP = 77


def collect(path):
    """Map report basename -> (parsed JSON, file path) for a file or dir."""
    if os.path.isfile(path):
        files = [path]
    else:
        files = sorted(f for f in glob.glob(os.path.join(path, "BENCH_*.json"))
                       if not f.endswith(".tolerances.json"))
    reports = {}
    for f in files:
        try:
            with open(f, encoding="utf-8") as fh:
                reports[os.path.basename(f)] = (json.load(fh), f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_compare: cannot read {f}: {e}", file=sys.stderr)
            sys.exit(1)
    return reports


def load_tolerances(baseline_file):
    """Per-counter gate spec from the baseline's .tolerances.json sidecar.

    Returns {counter: {"tolerance": float, "higher_is_better": bool}}; empty
    when there is no sidecar. A malformed sidecar is an error (exit 1): a
    typo silently ungating every counter is exactly what the sidecar is
    meant to prevent.
    """
    sidecar = baseline_file + ".tolerances.json"
    if not os.path.isfile(sidecar):
        return {}
    try:
        with open(sidecar, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {sidecar}: {e}", file=sys.stderr)
        sys.exit(1)
    spec = {}
    for key, entry in raw.items():
        if not isinstance(entry, dict):
            continue  # room for "_comment" keys
        try:
            tol = float(entry["tolerance"])
        except (KeyError, TypeError, ValueError):
            print(f"bench_compare: {sidecar}: entry {key!r} needs a numeric "
                  f"'tolerance'", file=sys.stderr)
            sys.exit(1)
        if tol < 0:
            print(f"bench_compare: {sidecar}: entry {key!r} has a negative "
                  f"tolerance", file=sys.stderr)
            sys.exit(1)
        spec[key] = {"tolerance": tol,
                     "higher_is_better": bool(entry.get("higher_is_better",
                                                        False))}
    return spec


def throughput_counter(report, key):
    """Fetch a numeric gate counter (requests_per_s, p99_ms) or None."""
    value = report.get("counters", {}).get(key)
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True,
                    help="committed baseline: a BENCH_*.json or a directory")
    ap.add_argument("--current", required=True,
                    help="fresh run: a BENCH_*.json or a directory")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional wall_ms increase (default 0.10)")
    ap.add_argument("--rss-tolerance", type=float, default=0.25,
                    help="allowed fractional peak_rss_kb increase "
                         "(default 0.25)")
    ap.add_argument("--rss-slack-kb", type=float, default=16384,
                    help="absolute peak_rss_kb headroom added on top of the "
                         "fractional tolerance (default 16384 = 16 MB)")
    ap.add_argument("--p99-tolerance", type=float, default=None,
                    help="allowed fractional p99_ms increase (default: "
                         "3x --tolerance; queue-tail latency is far noisier "
                         "than a mean)")
    args = ap.parse_args()
    if args.p99_tolerance is None:
        args.p99_tolerance = 3.0 * args.tolerance

    base = collect(args.baseline)
    cur = collect(args.current)
    if not base:
        print(f"bench_compare: no baselines under {args.baseline}; skipping")
        return SKIP
    if not cur:
        print(f"bench_compare: no current reports under {args.current} "
              "(run the benches first); skipping")
        return SKIP

    shared = sorted(set(base) & set(cur))
    if not shared:
        print("bench_compare: no report names in common; skipping")
        return SKIP

    failed = []
    for name in shared:
        (b, b_file), (c, _) = base[name], cur[name]
        gated = load_tolerances(b_file)
        try:
            b_wall, c_wall = float(b["wall_ms"]), float(c["wall_ms"])
        except (KeyError, TypeError, ValueError):
            print(f"{name}: malformed report (missing wall_ms)")
            return 1
        ratio = c_wall / b_wall if b_wall > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failed.append(name)
        print(f"{name}: wall_ms {b_wall:.1f} -> {c_wall:.1f} "
              f"({100.0 * (ratio - 1.0):+.1f}%, tolerance "
              f"{100.0 * args.tolerance:.0f}%) {verdict}")

        # Peak-RSS gate: memory is far less noisy than wall time, but the
        # absolute slack keeps one-page-granularity jitter out of the gate.
        b_rss = float(b.get("peak_rss_kb", 0) or 0)
        c_rss = float(c.get("peak_rss_kb", 0) or 0)
        if b_rss > 0 and c_rss > 0:
            bound = b_rss * (1.0 + args.rss_tolerance) + args.rss_slack_kb
            rss_verdict = "ok"
            if c_rss > bound:
                rss_verdict = "REGRESSION"
                failed.append(name)
            print(f"  peak_rss_kb {b_rss:.0f} -> {c_rss:.0f} "
                  f"(bound {bound:.0f}) {rss_verdict}")

        # Service throughput gates: lower requests/s is the regression
        # direction, higher p99 is. Both sides must carry the counter --
        # a baseline without it (pre-service repo states, non-service
        # benches) is simply not gated.
        b_rps, c_rps = (throughput_counter(r, "requests_per_s")
                        for r in (b, c))
        if b_rps is not None and c_rps is not None and b_rps > 0:
            floor = b_rps * (1.0 - args.tolerance)
            rps_verdict = "ok"
            if c_rps < floor:
                rps_verdict = "REGRESSION"
                failed.append(name)
            print(f"  requests_per_s {b_rps:.1f} -> {c_rps:.1f} "
                  f"(floor {floor:.1f}) {rps_verdict}")
        b_p99, c_p99 = (throughput_counter(r, "p99_ms") for r in (b, c))
        if b_p99 is not None and c_p99 is not None and b_p99 > 0:
            ceiling = b_p99 * (1.0 + args.p99_tolerance)
            p99_verdict = "ok"
            if c_p99 > ceiling:
                p99_verdict = "REGRESSION"
                failed.append(name)
            print(f"  p99_ms {b_p99:.2f} -> {c_p99:.2f} "
                  f"(ceiling {ceiling:.2f}) {p99_verdict}")

        b_counters = b.get("counters", {})
        c_counters = c.get("counters", {})
        for key in sorted(set(b_counters) & set(c_counters)):
            bv, cv = b_counters[key], c_counters[key]
            if key in gated:
                spec = gated[key]
                try:
                    bf, cf = float(bv), float(cv)
                except (TypeError, ValueError):
                    print(f"{name}: counter {key} is gated but not numeric")
                    return 1
                tol = spec["tolerance"]
                if tol == 0.0:
                    bound = bf
                    bad = cf != bf
                    bound_name = "pinned"
                elif spec["higher_is_better"]:
                    bound = bf * (1.0 - tol)
                    bad = cf < bound
                    bound_name = "floor"
                else:
                    bound = bf * (1.0 + tol)
                    bad = cf > bound
                    bound_name = "ceiling"
                verdict = "ok"
                if bad:
                    verdict = "REGRESSION"
                    failed.append(name)
                print(f"  {key}: {bv} -> {cv} ({bound_name} {bound:g}) "
                      f"{verdict}")
            else:
                marker = "" if bv == cv else "  (changed)"
                print(f"  {key}: {bv} -> {cv}{marker}")
        for key in sorted(set(gated) - (set(b_counters) & set(c_counters))):
            print(f"  {key}: gated by sidecar but missing from a report; "
                  f"not compared")

    skipped = sorted(set(base) ^ set(cur))
    for name in skipped:
        side = "baseline" if name in base else "current"
        print(f"{name}: only in {side}; not compared")

    if failed:
        uniq = sorted(set(failed))
        print(f"bench_compare: wall-clock or peak-RSS regression in "
              f"{', '.join(uniq)}")
        return 1
    print(f"bench_compare: {len(shared)} report(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
