"""Lock-order analysis: the lock table, the acquisition graph, and
blocking-while-locked enforcement.

Scope: src/runtime, src/obs, src/io (and any tree that mirrors that
layout, e.g. the fixture corpus).

The lock table is annotation-driven. Every mutex member in scope must
carry

    Mutex m_ AERO_LOCK_NAME("domain.name", rank);            // or
    Mutex m_ AERO_LOCK_NAME("domain.name", rank, may_block);

where a lower rank is acquired first and `may_block` marks a lock whose
entire purpose is to serialize a blocking operation (the journal's fwrite
mutex). Declared ordering intent is added with

    Mutex m_ AERO_LOCK_NAME(...) AERO_ACQUIRED_BEFORE("other.name");

Rules:
  lock-table     unnamed mutex in scope; duplicate name with a different
                 rank; ACQUIRED_BEFORE naming an unknown lock or
                 contradicting the ranks; unresolvable lock expression.
  lock-order     observed nested acquisition violating rank order (incl.
                 re-acquiring the same named lock); any cycle in the
                 declared+observed acquisition graph.
  lock-blocking  blocking call (comm send/recv, CV wait/wait_for/
                 wait_until, sleep, journal append/flush, raw fwrite/
                 fflush) while holding a lock not marked may_block. A CV
                 wait through a held RAII object is fine for that lock
                 (it releases during the wait) but still flags every
                 *other* lock held across it.
"""

SCOPE_DIRS = ("src/runtime", "src/obs", "src/io", "src/service")

# RAII lock spellings: `Type[<...>] var(expr, ...);`
RAII_TYPES = {"MutexLock", "UniqueLock", "lock_guard", "unique_lock",
              "scoped_lock", "shared_lock"}

# Calls that block by name alone, wherever they appear.
BLOCKING_NAMES = {"send", "recv", "wait_for", "wait_until", "sleep_for",
                  "sleep_until", "fwrite", "fflush"}
# Calls that block only on specific receiver classes (these names are too
# generic to flag unresolved).
BLOCKING_MEMBERS = {
    "append": {"JournalWriter"},
    "flush": {"JournalWriter"},
    "record": {"CheckpointSink"},
}


class LockDecl(object):
    __slots__ = ("name", "rank", "may_block", "member", "relpath", "line",
                 "before")

    def __init__(self, name, rank, may_block, member, relpath, line):
        self.name = name
        self.rank = rank
        self.may_block = may_block
        self.member = member
        self.relpath = relpath
        self.line = line
        self.before = []


def _unquote(s):
    s = s.strip()
    if len(s) >= 2 and s[0] == '"' and s[-1] == '"':
        return s[1:-1]
    return s


def _collect_table(eng):
    """Scan in-scope classes for mutex members; build name -> LockDecl and
    (class, member) -> lock name."""
    table = {}
    member_lock = {}
    for sf in eng.src_files():
        if not eng.in_scope(sf.relpath, *SCOPE_DIRS):
            continue
        for cls in sf.model.classes.values():
            if cls.name == "Mutex":
                continue  # the capability wrapper IS the lock primitive
            for m in cls.members.values():
                if not m.is_mutex():
                    continue
                ann = m.ann("AERO_LOCK_NAME")
                if ann is None or len(ann.args) < 2:
                    eng.report(
                        "lock-table", sf.relpath, m.line,
                        "mutex member %s has no AERO_LOCK_NAME(\"name\", "
                        "rank) annotation; every runtime/obs/io lock must "
                        "be named and ranked" % m.qual())
                    continue
                name = _unquote(ann.args[0])
                try:
                    rank = int(ann.args[1])
                except ValueError:
                    eng.report("lock-table", sf.relpath, m.line,
                               "AERO_LOCK_NAME rank '%s' is not an integer"
                               % ann.args[1])
                    continue
                may_block = any(a.strip() == "may_block"
                                for a in ann.args[2:])
                if name in table and table[name].rank != rank:
                    eng.report(
                        "lock-table", sf.relpath, m.line,
                        "lock name \"%s\" redeclared with rank %d "
                        "(previously %d at %s:%d)"
                        % (name, rank, table[name].rank,
                           table[name].relpath, table[name].line))
                else:
                    table.setdefault(
                        name, LockDecl(name, rank, may_block, m,
                                       sf.relpath, m.line))
                member_lock[(cls.name, m.name)] = name
                ab = m.ann("AERO_ACQUIRED_BEFORE")
                if ab is not None:
                    table[name].before.extend(_unquote(a) for a in ab.args)
    # validate declared ordering against the ranks
    for name, decl in sorted(table.items()):
        for other in decl.before:
            if other not in table:
                eng.report("lock-table", decl.relpath, decl.line,
                           "AERO_ACQUIRED_BEFORE(\"%s\") names an unknown "
                           "lock" % other)
            elif decl.rank >= table[other].rank:
                eng.report(
                    "lock-table", decl.relpath, decl.line,
                    "AERO_ACQUIRED_BEFORE(\"%s\") contradicts the ranks "
                    "(%s=%d must be below %s=%d)"
                    % (other, name, decl.rank, other, table[other].rank))
    return table, member_lock


def _lock_expr_name(eng, fn, arg_toks, member_lock):
    """Resolve a lock-argument token chain ('m_', 'box.m', 's->m', 'this->
    m_') to a declared lock name, or None."""
    ids = [t.text for t in arg_toks
           if t.kind == "id" or t.text in (".", "->")]
    ids = [x for x in ids if x not in (".", "->")]
    if not ids:
        return None
    member = ids[-1]
    if len(ids) == 1:
        cls = fn.cls
        if cls and (cls, member) in member_lock:
            return member_lock[(cls, member)]
    else:
        recv = ids[-2]
        cls = fn.cls if recv == "this" else \
            eng.program.resolve_receiver(fn, recv)
        if cls and (cls, member) in member_lock:
            return member_lock[(cls, member)]
    # fallback: the member name is unique across the lock table
    cands = {v for (c, n), v in member_lock.items() if n == member}
    if len(cands) == 1:
        return cands.pop()
    return None


class _Held(object):
    __slots__ = ("name", "var", "depth", "line", "may_block")

    def __init__(self, name, var, depth, line, may_block):
        self.name = name
        self.var = var
        self.depth = depth
        self.line = line
        self.may_block = may_block


def _scan_function(eng, sf, fn, table, member_lock, edges):
    toks = fn.tokens
    lo, hi = fn.body
    held = []
    depth = 0
    i = lo
    while i < hi:
        t = toks[i]
        txt = t.text
        if txt == "{":
            depth += 1
            i += 1
            continue
        if txt == "}":
            depth -= 1
            held = [h for h in held if h.depth <= depth]
            i += 1
            continue
        # RAII acquisition: Type[<...>] var ( expr[, expr...] ) ;
        if t.kind == "id" and txt in RAII_TYPES:
            prev = toks[i - 1].text if i > lo else ""
            j = i + 1
            if j < hi and toks[j].text == "<":
                from model import _skip_angles
                j = _skip_angles(toks, j)
            if j < hi and toks[j].kind == "id" and prev != "." \
                    and prev != "->":
                var = toks[j].text
                if j + 1 < hi and toks[j + 1].text == "(":
                    from model import _match
                    end = _match(toks, j + 1, "(", ")")
                    args = _split_args(toks[j + 2:end - 1])
                    for arg in args:
                        _acquire(eng, sf, fn, t, var, arg, depth, held,
                                 table, member_lock, edges)
                    i = end
                    continue
        # release / CV wait through a held RAII object
        if t.kind == "id" and held and i + 2 < hi \
                and toks[i + 1].text in (".", "->"):
            var_entry = next((h for h in held if h.var == txt), None)
            meth = toks[i + 2].text
            if var_entry is not None and meth == "unlock":
                held.remove(var_entry)
                i += 3
                continue
            if var_entry is not None and meth in ("wait", "wait_until",
                                                  "wait_for"):
                _flag_foreign(eng, sf, fn, toks[i + 2], held,
                              own=var_entry,
                              what="condition-variable wait on \"%s\""
                              % var_entry.name)
                i += 3
                continue
            if meth == "wait" and var_entry is None:
                # std-style cv.wait(lk): own lock is the RAII arg, if any
                own = None
                if i + 3 < hi and toks[i + 3].text == "(":
                    from model import _match
                    end = _match(toks, i + 3, "(", ")")
                    arg_ids = {x.text for x in toks[i + 4:end - 1]
                               if x.kind == "id"}
                    own = next((h for h in held if h.var in arg_ids), None)
                if held and (own is None or len(held) > 1):
                    _flag_foreign(eng, sf, fn, toks[i + 2], held, own=own,
                                  what="condition-variable wait")
                i += 3
                continue
        # blocking calls while holding a non-may_block lock
        if t.kind == "id" and held and i + 1 < hi \
                and toks[i + 1].text == "(" and not _is_decl_like(toks, i):
            blocking = txt in BLOCKING_NAMES
            if not blocking and txt in BLOCKING_MEMBERS:
                recv_cls = _receiver_class(eng, fn, toks, lo, i)
                blocking = recv_cls in BLOCKING_MEMBERS[txt]
            if blocking:
                offenders = [h for h in held if not h.may_block]
                if offenders:
                    eng.report(
                        "lock-blocking", sf.relpath, t.line,
                        "blocking call %s() while holding %s; release the "
                        "lock first or mark it may_block in its "
                        "AERO_LOCK_NAME" % (txt, _held_names(offenders)))
        i += 1


def _is_decl_like(toks, i):
    """True when toks[i] looks like a declarator name, not a call (the
    previous token is a type-ish id or '>', e.g. `Message recv(...)`)."""
    prev = toks[i - 1]
    return prev.kind == "id" or prev.text in (">", "*", "&")


def _receiver_class(eng, fn, toks, lo, i):
    if i - 2 < lo or toks[i - 1].text not in (".", "->"):
        return None
    recv = toks[i - 2]
    if recv.kind != "id":
        return None
    if recv.text == "this":
        return fn.cls
    return eng.program.resolve_receiver(fn, recv.text)


def _held_names(held):
    return ", ".join("\"%s\" (line %d)" % (h.name, h.line) for h in held)


def _flag_foreign(eng, sf, fn, tok, held, own, what):
    foreign = [h for h in held if h is not own]
    if foreign:
        eng.report(
            "lock-blocking", sf.relpath, tok.line,
            "%s while also holding %s; a wait releases only its own lock"
            % (what, _held_names(foreign)))


def _split_args(toks):
    args, cur, depth = [], [], 0
    for t in toks:
        if t.text in ("(", "[", "{", "<"):
            depth += 1
        elif t.text in (")", "]", "}", ">"):
            depth -= 1
        if t.text == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        args.append(cur)
    return args


def _acquire(eng, sf, fn, tok, var, arg_toks, depth, held, table,
             member_lock, edges):
    # std::adopt_lock / std::defer_lock tags are not lock expressions
    if any(t.text in ("adopt_lock", "defer_lock", "try_to_lock")
           for t in arg_toks):
        return
    name = _lock_expr_name(eng, fn, arg_toks, member_lock)
    if name is None:
        expr = "".join(t.text for t in arg_toks)
        eng.report(
            "lock-table", sf.relpath, tok.line,
            "cannot resolve lock expression '%s' to a named lock; the "
            "lock-order analysis needs every acquisition attributable"
            % expr)
        return
    decl = table.get(name)
    rank = decl.rank if decl else None
    may_block = decl.may_block if decl else False
    for h in held:
        key = (h.name, name)
        edges.setdefault(key, ("observed", sf.relpath, tok.line))
        h_rank = table[h.name].rank if h.name in table else None
        if h.name == name:
            eng.report("lock-order", sf.relpath, tok.line,
                       "re-acquiring lock \"%s\" already held since line %d"
                       % (name, h.line))
        elif h_rank is not None and rank is not None and h_rank >= rank:
            eng.report(
                "lock-order", sf.relpath, tok.line,
                "lock \"%s\" (rank %d) acquired while holding \"%s\" "
                "(rank %d); acquisition order must follow ascending rank"
                % (name, rank, h.name, h_rank))
    held.append(_Held(name, var, depth, tok.line, may_block))


def _find_cycles(nodes, adj):
    """Return one representative cycle (as a name list) per cycle found by
    DFS back-edge detection."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    stack = []
    cycles = []

    def dfs(u):
        color[u] = GREY
        stack.append(u)
        for v in sorted(adj.get(u, ())):
            if v not in color:
                continue
            if color[v] == GREY:
                k = stack.index(v)
                cycles.append(stack[k:] + [v])
            elif color[v] == WHITE:
                dfs(v)
        stack.pop()
        color[u] = BLACK

    for n in sorted(nodes):
        if color[n] == WHITE:
            dfs(n)
    return cycles


def analyze(eng):
    """Run the lock analyses; returns the exportable lock graph dict."""
    table, member_lock = _collect_table(eng)
    edges = {}  # (from, to) -> (kind, relpath, line)
    for decl in table.values():
        for other in decl.before:
            if other in table:
                edges.setdefault((decl.name, other),
                                 ("declared", decl.relpath, decl.line))
    for sf, fn in eng.functions():
        if not eng.in_scope(sf.relpath, *SCOPE_DIRS):
            continue
        if fn.body is None:
            continue
        _scan_function(eng, sf, fn, table, member_lock, edges)
    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
    cycles = _find_cycles(set(table), adj)
    for cyc in cycles:
        decl = table[cyc[0]]
        eng.report("lock-order", decl.relpath, decl.line,
                   "lock acquisition cycle: %s" % " -> ".join(cyc))
    return {
        "locks": [
            {"name": d.name, "rank": d.rank, "may_block": d.may_block,
             "member": d.member.qual(), "file": d.relpath.replace("\\", "/"),
             "line": d.line}
            for d in sorted(table.values(), key=lambda d: (d.rank, d.name))
        ],
        "edges": [
            {"from": a, "to": b, "kind": kind,
             "file": rel.replace("\\", "/"), "line": line}
            for (a, b), (kind, rel, line) in sorted(edges.items())
        ],
        "cycles": cycles,
    }
