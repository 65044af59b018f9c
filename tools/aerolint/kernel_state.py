"""Kernel shared-state audit: mutable state reachable from the Delaunay
insert path must declare its threading discipline.

The refiner's threaded initial scan (RuppertRefiner in delaunay/refine.cpp,
RefineOptions::threads) runs worker threads over a DelaunayMesh that only
the main thread writes; its race-freedom argument is that every byte the
workers can reach is either immutable for the duration of the scan or owned
by exactly one thread. That argument only holds if no one quietly adds
shared mutable state to the kernel later.
This audit enforces the paper trail: within the kernel's reach
(src/delaunay and src/geom), every

  * `mutable` class member,
  * namespace-scope variable that is not const/constexpr, and
  * function-local `static` that is not const/constexpr

must carry an AERO_SHARED_STATE(why) annotation stating who may touch it
and when (e.g. "main thread only", "worker-disjoint slots"). The macro is a
textual no-op (obs/annotations.hpp); the reason is the contract reviewers
and this audit hold the code to.

Exemptions -- state whose thread discipline is established elsewhere:

  * `thread_local` storage (per-thread by construction;
    geom/predicates.cpp's stage counters are the canonical case),
  * std::atomic members/globals (the atomics audit owns those: this audit
    extends that seed set to the non-atomic shared state the kernel adds),
  * const/constexpr declarations (immutable after initialization; a
    function-local `static const` is made safe by C++ magic-statics).

Rule:
  kernel-shared-state   unannotated mutable member, non-const global, or
                        non-const function-local static in kernel scope.

Waivers require a reason: // aerolint: allow(kernel-shared-state: why).
"""

SCOPE = ("src/delaunay", "src/geom")

_IMMUTABLE_WORDS = ("const", "constexpr", "constinit", "thread_local")


def _raw_decl_line(sf, line):
    """Comment-stripped source of the declaration's first line (specifier
    detection: model.py strips mutable/static/constexpr/thread_local from
    Member.type_str, so the audit reads the code line instead)."""
    if 1 <= line <= len(sf.code_lines):
        return sf.code_lines[line - 1]
    return ""


def _has_word(text, word):
    import re
    return re.search(r"\b%s\b" % word, text) is not None


def _is_exempt_decl(sf, decl):
    if "std::atomic<" in decl.type_str:
        return True  # the atomics audit owns the role annotation
    if _has_word(decl.type_str, "const"):
        return True
    raw = _raw_decl_line(sf, decl.line)
    return any(_has_word(raw, w) for w in _IMMUTABLE_WORDS)


def _check_members(eng, sf):
    for cls in sf.model.classes.values():
        for m in cls.members.values():
            raw = _raw_decl_line(sf, m.line)
            if not _has_word(raw, "mutable"):
                continue
            if _is_exempt_decl(sf, m):
                continue
            if m.ann("AERO_SHARED_STATE") is not None:
                continue
            eng.report(
                "kernel-shared-state", sf.relpath, m.line,
                "mutable member %s is reachable from the parallel kernel's "
                "const path; annotate with AERO_SHARED_STATE(why) stating "
                "which thread may touch it and when" % m.qual())


def _check_globals(eng, sf):
    for g in sf.model.globals:
        if _is_exempt_decl(sf, g):
            continue
        if g.ann("AERO_SHARED_STATE") is not None:
            continue
        eng.report(
            "kernel-shared-state", sf.relpath, g.line,
            "namespace-scope variable %s in kernel scope is shared mutable "
            "state; make it const/constexpr/thread_local or annotate with "
            "AERO_SHARED_STATE(why)" % g.name)


def _check_local_statics(eng, sf):
    for fn in sf.model.functions:
        if fn.body is None:
            continue
        toks = fn.tokens
        lo, hi = fn.body
        i = lo
        while i < hi:
            if toks[i].text != "static":
                i += 1
                continue
            # The declaration statement: everything to the terminating ';'
            # (or the '=' initializer, which is enough to see specifiers).
            j = i + 1
            stmt = ["static"]
            while j < hi and toks[j].text not in (";", "=", "{"):
                stmt.append(toks[j].text)
                j += 1
            text = " ".join(stmt)
            exempt = (any(_has_word(text, w) for w in _IMMUTABLE_WORDS)
                      or "atomic" in text
                      or "AERO_SHARED_STATE" in text)
            if not exempt:
                eng.report(
                    "kernel-shared-state", sf.relpath, toks[i].line,
                    "function-local static in %s is shared mutable state "
                    "on the kernel path; make it const/constexpr/"
                    "thread_local or annotate with AERO_SHARED_STATE(why)"
                    % (fn.name + "()"))
            i = j + 1


def analyze(eng):
    for sf in eng.src_files():
        if not eng.in_scope(sf.relpath, *SCOPE):
            continue
        _check_members(eng, sf)
        _check_globals(eng, sf)
        _check_local_statics(eng, sf)
