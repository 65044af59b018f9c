"""Line rules: the aerolint v1 heritage set, unchanged in semantics.

Each rule is (name, check(relpath, code, raw) -> message | None) applied
per line, where `code` is the comment/string-stripped view produced by
lexer.stripped_lines and `raw` is the original line. The PR 2-6 seeded
self-test corpus in selftest.py pins this behavior.
"""

import os
import re

# ---------------------------------------------------------------------------
# Module dependency DAG: src/<module> -> modules it may #include from.
# Every module may include itself; anything absent here (or an edge not
# listed) is a layering violation. Keep this in sync with DESIGN.md.
# io -> obs is new in PR 7: the journal/checkpoint mutexes joined the
# annotated lock vocabulary (obs/annotations.hpp).
ALLOWED_DEPS = {
    "obs": set(),
    "geom": set(),
    "spatial": {"geom"},
    "airfoil": {"geom"},
    "delaunay": {"geom", "obs"},
    "hull": {"delaunay", "geom"},
    "inviscid": {"delaunay", "geom"},
    "blayer": {"airfoil", "geom", "obs", "spatial"},
    "core": {"airfoil", "blayer", "delaunay", "geom", "hull", "inviscid",
             "obs", "spatial"},
    "io": {"core", "delaunay", "obs"},
    "check": {"blayer", "core", "delaunay", "geom", "obs"},
    "runtime": {"check", "core", "hull", "inviscid", "io", "obs"},
    "solver": {"airfoil", "core", "geom"},
    # The meshing service sits at the top of the layering: it drives both
    # pipeline entry points and nothing may include from it -- no other
    # module lists "service" here, so any src/ include of service/ headers
    # outside the module fails this rule (only the daemon app file, tests,
    # and examples consume it).
    "service": {"core", "io", "obs", "runtime"},
}

# Files exempt from per-rule checks. cli_main.cpp and daemon_main.cpp are
# the application layer: they wire every module together and own the
# terminal, so layering and stdout rules do not apply to them.
APP_FILES = {os.path.join("src", "core", "cli_main.cpp"),
             os.path.join("src", "service", "daemon_main.cpp")}

# Throws permitted in src/runtime/: (file basename, regex over the line).
# Everything here is thrown on the mesher thread or before threads start,
# inside an established catch scope (see pool.cpp process_unit / run_pool).
RUNTIME_THROW_ALLOW = [
    ("comm.cpp", r"std::invalid_argument"),
    ("work.cpp", r'std::runtime_error\("work unit payload'),
    ("pool.cpp", r'std::runtime_error\("injected unit fault"\)'),
]

CROSS_SIGN_RE = re.compile(r"\.cross\([^;]*\)\s*(==|!=|<=|>=|<|>)\s*")
INLINE_DET_RE = re.compile(
    r"\)\s*\*\s*\([^)]*\.y\b[^)]*\)\s*-\s*\([^)]*\.y\b[^)]*\)\s*\*\s*\(")
DETERMINISM_RE = re.compile(
    r"\b(rand|srand)\s*\(|std::random_device|system_clock::now"
    r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)")
STDOUT_RE = re.compile(r"std::cout\b|(?<![\w.>])printf\s*\(")
NEW_RE = re.compile(r"(?<!\boperator )\bnew\s+[A-Za-z_(]")
DELETE_RE = re.compile(r"(?<![=\w] )\bdelete(\[\])?\s+[A-Za-z_*(]")
THROW_RE = re.compile(r"\bthrow\s+[A-Za-z_:]")


def in_module(relpath, module):
    return relpath.startswith(os.path.join("src", module) + os.sep)


def check_geom_predicates(relpath, code, raw):
    if in_module(relpath, "geom"):
        return None
    if CROSS_SIGN_RE.search(code):
        return ("sign test of a floating-point cross product; use the exact "
                "predicates in geom/predicates.hpp")
    if INLINE_DET_RE.search(code):
        return ("inline 2x2 determinant; orientation arithmetic belongs in "
                "src/geom/ behind exact predicates")
    return None


def check_determinism(relpath, code, raw):
    m = DETERMINISM_RE.search(code)
    if m:
        return ("non-deterministic source '%s'; meshes must be reproducible "
                "(use a seeded engine)" % m.group(0).strip())
    return None


RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)::now\s*\(")

# The two places allowed to read the clock directly: the observability
# recorder (epoch + timestamps) and the Timer/mono_now() wrappers everything
# else times through.
CLOCK_EXEMPT_FILES = {os.path.join("src", "core", "timer.hpp")}


def check_no_raw_clock(relpath, code, raw):
    if in_module(relpath, "obs") or relpath in CLOCK_EXEMPT_FILES:
        return None
    if RAW_CLOCK_RE.search(code):
        return ("direct clock read; time through core/timer.hpp (Timer, "
                "mono_now) or the obs trace API")
    return None


def check_no_stdout(relpath, code, raw):
    if relpath in APP_FILES:
        return None
    if STDOUT_RE.search(code):
        return "library code must not print to stdout (std::cout/printf)"
    return None


def check_naked_new(relpath, code, raw):
    if NEW_RE.search(code):
        return "naked 'new'; use containers or std::make_unique"
    if DELETE_RE.search(code):
        return "naked 'delete'; use containers or smart pointers"
    return None


def check_runtime_throw(relpath, code, raw):
    if not in_module(relpath, "runtime"):
        return None
    if not THROW_RE.search(code):
        return None
    # The allowlist patterns name the thrown message, so match the raw line
    # (string literals are blanked out of `code`).
    base = os.path.basename(relpath)
    for allowed_base, pattern in RUNTIME_THROW_ALLOW:
        if base == allowed_base and re.search(pattern, raw):
            return None
    return ("throw in src/runtime/ outside the allowlist; an exception that "
            "crosses the communicator thread boundary calls std::terminate")


MEMCPY_RE = re.compile(r"\b(?:std::)?mem(?:cpy|move)\s*\(")
PAYLOAD_COPY_RE = re.compile(r"=\s*[\w.\[\]()>-]*(?:\.|->)payload\s*;")

# The serializers: the only runtime files allowed to memcpy, because turning
# structured work into wire bytes (and back) is the one legitimate byte-level
# copy. Everything downstream of them hands the resulting buffer off by move.
PAYLOAD_COPY_SERIALIZERS = {"work.cpp", "rma.cpp"}


def check_payload_copy(relpath, code, raw):
    if not in_module(relpath, "runtime"):
        return None
    base = os.path.basename(relpath)
    if base not in PAYLOAD_COPY_SERIALIZERS and MEMCPY_RE.search(code):
        return ("memcpy/memmove in src/runtime/ outside the serializers (%s);"
                " payloads transfer by ownership handoff, not deep copy"
                % ", ".join(sorted(PAYLOAD_COPY_SERIALIZERS)))
    if PAYLOAD_COPY_RE.search(code):
        return ("by-value copy of a message payload; std::move it or publish "
                "it through the payload window")
    return None


# unchecked-io: files whose writes ARE the durability story. A call in
# statement position discards its result; every one of these returns a
# value that must decide success.
UNCHECKED_IO_FILES = {"journal.cpp", "journal.hpp",
                      "checkpoint.cpp", "checkpoint.hpp"}
# Only a call that IS the whole statement (`...);` ends the line) discards
# its result; a wrapped line continuing into `== n && ...` is a checked use.
UNCHECKED_C_IO_RE = re.compile(
    r"^\s*(?:std::)?(?:fwrite|fflush|fclose|fputc|fputs)\s*\([^;]*\)\s*;\s*$")
# Member spellings (stream or wrapper objects). `close()` is deliberately
# absent: void close() wrappers that internally count failures are fine.
UNCHECKED_STREAM_IO_RE = re.compile(
    r"^\s*\w+(?:\.|->)(?:write|flush|put)\s*\([^;]*\)\s*;\s*$")


def check_unchecked_io(relpath, code, raw):
    if os.path.basename(relpath) not in UNCHECKED_IO_FILES:
        return None
    if UNCHECKED_C_IO_RE.search(code) or UNCHECKED_STREAM_IO_RE.search(code):
        return ("discarded I/O return value in checkpoint persistence code; "
                "a silent short write here loses the journal -- branch on "
                "the result")
    return None


INCLUDE_RE = re.compile(r'#\s*include\s+"([A-Za-z0-9_]+)/')


def check_layering(relpath, code, raw):
    if relpath in APP_FILES:
        return None
    parts = relpath.split(os.sep)
    if len(parts) < 3 or parts[0] != "src":
        return None
    module = parts[1]
    # Include targets live inside string literals, so scan the raw line (but
    # only when the stripped line shows a real preprocessor directive, so a
    # quoted example inside a comment cannot fire).
    if not code.lstrip().startswith("#"):
        return None
    m = INCLUDE_RE.search(raw)
    if not m:
        return None
    target = m.group(1)
    if target == module or target not in ALLOWED_DEPS:
        return None
    if target not in ALLOWED_DEPS.get(module, set()):
        return ("module '%s' may not include from '%s' (allowed: %s)"
                % (module, target,
                   ", ".join(sorted(ALLOWED_DEPS.get(module, set()))) or
                   "nothing"))
    return None


# ---------------------------------------------------------------------------
# public-api: the headers external code (tests/, examples/, downstream users)
# may include directly. Everything else under src/ is internal; reaching for
# it from tests/examples is a white-box dependency that must be declared with
# an inline escape. Keep in sync with the table in src/aero.hpp.
PUBLIC_HEADERS = {
    "aero.hpp",
    "core/options.hpp",
    "core/mesh_generator.hpp",
    "core/run_status.hpp",
    "core/merged_mesh.hpp",
    "core/mesh_view.hpp",
    "io/mesh_io.hpp",
    "runtime/parallel_driver.hpp",
    "runtime/cluster_model.hpp",
    "solver/panel.hpp",
    "solver/fem.hpp",
    "airfoil/naca.hpp",
    "airfoil/geometry.hpp",
    "delaunay/triangulator.hpp",
    "service/server.hpp",
    "service/wire.hpp",
    "service/client.hpp",
}

QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')


def check_public_api(relpath, code, raw):
    top = relpath.split(os.sep)[0]
    if top not in ("tests", "examples"):
        return None
    if not code.lstrip().startswith("#"):
        return None
    m = QUOTED_INCLUDE_RE.search(raw)
    if m is None:
        return None
    target = m.group(1).replace("\\", "/")
    if target in PUBLIC_HEADERS:
        return None
    return ("non-public header \"%s\"; %s/ may include only src/aero.hpp and "
            "the public headers (white-box tests opt out per line)"
            % (target, top))


# ---------------------------------------------------------------------------
# mesh-internal-access: the SoA mesh storage (chunked arenas + the flat
# interner) is private to the mesh core. Everything else reads through the
# MergedMesh accessors or the aero::MeshView facade, which is what lets the
# storage layout change (32-bit ids, chunk size, interner scheme) without a
# ripple. The mesh core = src/delaunay/ plus the two core files that own the
# merged-mesh arenas. White-box tests opt out per line with
# allow(mesh-internal-access).
MESH_CORE_FILES = {
    os.path.join("src", "core", "merged_mesh.hpp"),
    os.path.join("src", "core", "merged_mesh.cpp"),
    os.path.join("src", "core", "mesh_view.hpp"),
    os.path.join("src", "core", "mesh_view.cpp"),
}
CHUNKED_INCLUDE_RE = re.compile(r'#\s*include\s+"delaunay/chunked\.hpp"')
MESH_INTERNAL_RE = re.compile(
    r"\bChunkedArray\b|(?:\.|->)\s*(?:points_|tris_|dead_|slots_)\b")


def check_mesh_internal_access(relpath, code, raw):
    if in_module(relpath, "delaunay") or relpath in MESH_CORE_FILES:
        return None
    if code.lstrip().startswith("#"):
        if CHUNKED_INCLUDE_RE.search(raw):
            return ("the chunked arena header is mesh-core internal; consume "
                    "the mesh through MergedMesh accessors or aero::MeshView")
        return None
    if MESH_INTERNAL_RE.search(code):
        return ("direct access to the SoA mesh storage outside the mesh "
                "core; read through MergedMesh accessors or aero::MeshView")
    return None


RULES = [
    ("geom-predicates", check_geom_predicates),
    ("determinism", check_determinism),
    ("no-raw-clock", check_no_raw_clock),
    ("no-stdout", check_no_stdout),
    ("naked-new", check_naked_new),
    ("runtime-throw", check_runtime_throw),
    ("payload-copy", check_payload_copy),
    ("unchecked-io", check_unchecked_io),
    ("layering", check_layering),
    ("public-api", check_public_api),
    ("mesh-internal-access", check_mesh_internal_access),
]

# tests/ and examples/ are not library code: only the include-surface rules
# apply there (they may print, use raw clocks, throw, ...) -- the public
# header surface and the mesh-core storage boundary.
EXTERNAL_RULES = [("public-api", check_public_api),
                  ("mesh-internal-access", check_mesh_internal_access)]

# Rule descriptions for --help / SARIF rule metadata.
RULE_HELP = {
    "geom-predicates": "orientation arithmetic belongs behind exact "
                       "predicates in src/geom/",
    "determinism": "no unseeded randomness or wall-clock reads in library "
                   "code",
    "no-raw-clock": "clock reads go through core/timer.hpp or the obs API",
    "no-stdout": "library code never prints to stdout",
    "naked-new": "no naked new/delete",
    "runtime-throw": "src/runtime/ throws only at allowlisted sites",
    "payload-copy": "message payloads move by ownership handoff",
    "unchecked-io": "journal/checkpoint I/O results must be checked",
    "layering": "module includes follow the dependency DAG",
    "public-api": "tests/examples include the public surface only",
    "mesh-internal-access": "the SoA mesh arenas are read through MergedMesh "
                            "accessors or aero::MeshView only",
    "lock-table": "every runtime/obs/io mutex is named and ranked "
                  "(AERO_LOCK_NAME)",
    "lock-order": "nested lock acquisitions follow the rank order",
    "lock-blocking": "no blocking call while holding a non-blocking-rank "
                     "lock",
    "det-unordered-iter": "no unordered-container iteration in "
                          "mesh-affecting code",
    "det-pointer-key": "no pointer-keyed ordering or hashing in "
                       "mesh-affecting code",
    "det-clock": "no clock/PRNG reads inside the mesh kernels",
    "atomic-role": "every std::atomic member declares a role "
                   "(AERO_ATOMIC_ROLE)",
    "atomic-order": "memory orders match the atomic's declared role",
    "atomic-implicit": "atomics are accessed via explicit load()/store()",
    "atomic-mixed": "no byte-level access to atomic-bearing memory",
    "unchecked-status": "[[nodiscard]] results (RunStatus, journal I/O, "
                        "validate()) must be used",
    "kernel-shared-state": "mutable members, non-const globals, and "
                           "function-local statics on the Delaunay kernel "
                           "path declare their threading discipline "
                           "(AERO_SHARED_STATE)",
}
