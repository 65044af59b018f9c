"""aerolint v2 self-test: every rule -- the heritage line rules and the
four whole-program analyses -- must fire on a seeded violation of its
class, stay quiet on the clean counterpart, and honor the escape
protocol (bare allow() for heritage rules; allow(rule: reason) with a
mandatory reason for the analyses).

Run with `python3 tools/aerolint --self-test`, or via the
`aerolint_selftest` ctest entry, which is the single consolidated
invocation covering all 22 rules.
"""

import os
import sys

from engine import Engine

# ---------------------------------------------------------------------------
# Heritage (v1) line rules: one-line seeds, checked file-by-file.

V1_SEEDED = [
    # (rule, relpath it is checked under, violating line, clean counterpart)
    ("geom-predicates", os.path.join("src", "hull", "x.cpp"),
     "if (ab.cross(ac) > 0) {",
     "const double w = ab.cross(ac);"),
    ("geom-predicates", os.path.join("src", "blayer", "x.cpp"),
     "double d = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);",
     "double d = orient2d(a, b, c);"),
    ("determinism", os.path.join("src", "core", "x.cpp"),
     "int r = rand() % 7;",
     "int r = engine() % 7;"),
    ("determinism", os.path.join("src", "runtime", "x.cpp"),
     "std::random_device rd;",
     "std::mt19937_64 rd(seed);"),
    ("determinism", os.path.join("src", "io", "x.cpp"),
     "auto t = std::chrono::system_clock::now();",
     "auto t = mono_now();"),
    ("no-raw-clock", os.path.join("src", "runtime", "x.cpp"),
     "auto t0 = std::chrono::steady_clock::now();",
     "auto t0 = mono_now();"),
    ("no-stdout", os.path.join("src", "delaunay", "x.cpp"),
     'std::cout << "tris: " << n;',
     'std::snprintf(buf, sizeof(buf), "tris: %zu", n);'),
    ("no-stdout", os.path.join("src", "io", "x.cpp"),
     'printf("done\\n");',
     'std::fprintf(stderr, "done\\n");'),
    ("naked-new", os.path.join("src", "spatial", "x.cpp"),
     "Node* n = new Node(k);",
     "auto n = std::make_unique<Node>(k);"),
    ("naked-new", os.path.join("src", "spatial", "x.cpp"),
     "delete node;",
     "Tree(const Tree&) = delete;"),
    ("runtime-throw", os.path.join("src", "runtime", "x.cpp"),
     'throw std::logic_error("bad state");',
     'throw_flag = true;'),
    ("payload-copy", os.path.join("src", "runtime", "x.cpp"),
     "std::memcpy(dst, msg.payload.data(), msg.payload.size());",
     "auto bytes = std::move(msg.payload);"),
    ("payload-copy", os.path.join("src", "runtime", "x.cpp"),
     "std::vector<std::uint8_t> staged = msg->payload;",
     "comm.send(rank, dest, tag, std::move(msg->payload));"),
    ("unchecked-io", os.path.join("src", "io", "journal.cpp"),
     "std::fwrite(frame.data(), 1, frame.size(), file_);",
     "ok = std::fwrite(frame.data(), 1, frame.size(), file_) == frame.size();"),
    ("unchecked-io", os.path.join("src", "io", "journal.cpp"),
     "fflush(file_);",
     "if (std::fflush(file_) != 0) ++failures_;"),
    ("unchecked-io", os.path.join("src", "runtime", "checkpoint.cpp"),
     "writer_->flush();",
     "return writer_.flush();"),
    ("layering", os.path.join("src", "geom", "x.hpp"),
     '#include "delaunay/mesh.hpp"',
     '#include "geom/vec2.hpp"'),
    ("layering", os.path.join("src", "core", "x.cpp"),
     '#include "runtime/pool.hpp"',
     '#include "hull/subdomain.hpp"'),
    ("public-api", os.path.join("tests", "x.cpp"),
     '#include "delaunay/mesh.hpp"',
     '#include "aero.hpp"'),
    ("public-api", os.path.join("examples", "x.cpp"),
     '#include "runtime/pool.hpp"',
     '#include "aero.hpp"'),
    # Service layering: the service may reach down into the runtime but not
    # sideways into mesh internals, and nothing in src/ may reach into the
    # service (it has no entry in any ALLOWED_DEPS value set).
    ("layering", os.path.join("src", "service", "x.cpp"),
     '#include "blayer/growth.hpp"',
     '#include "runtime/pool.hpp"'),
    ("layering", os.path.join("src", "runtime", "x.cpp"),
     '#include "service/server.hpp"',
     '#include "io/journal.hpp"'),
    ("layering", os.path.join("src", "core", "x.cpp"),
     '#include "service/cache.hpp"',
     '#include "obs/metrics.hpp"'),
    # Tests/examples consume the service through its public surface only.
    ("public-api", os.path.join("examples", "x.cpp"),
     '#include "service/cache.hpp"',
     '#include "service/client.hpp"'),
    ("public-api", os.path.join("tests", "x.cpp"),
     '#include "service/channel.hpp"',
     '#include "service/wire.hpp"'),
    # The SoA mesh storage stays behind the MergedMesh/MeshView read surface:
    # nothing outside the mesh core names the chunked arenas or the interner.
    ("mesh-internal-access", os.path.join("src", "io", "x.cpp"),
     '#include "delaunay/chunked.hpp"',
     '#include "core/merged_mesh.hpp"'),
    ("mesh-internal-access", os.path.join("src", "solver", "x.cpp"),
     "ChunkedArray<Vec2> scratch;",
     "std::vector<Vec2> scratch;"),
    ("mesh-internal-access", os.path.join("src", "check", "x.cpp"),
     "const auto& t = mesh.tris_[i];",
     "const auto& t = mesh.tri(i);"),
    ("mesh-internal-access", os.path.join("tests", "x.cpp"),
     "auto p = m.points_[0];",
     "auto p = m.point(0);"),
]

# Comment/string stripping: keywords inside comments and literals are not
# code and must never fire any rule.
V1_QUIET = [
    "// spawns new units dynamically",
    "/* delete the old ring */",
    'log("rand() is banned");',
]

# ---------------------------------------------------------------------------
# Whole-program analyses: each seed is a miniature source tree. `bad` must
# produce the rule; `good` (when given) must produce zero findings of it.

RT = os.path.join("src", "runtime", "st.hpp")
DL = os.path.join("src", "delaunay", "st.hpp")
GM = os.path.join("src", "geom", "st.hpp")
HL = os.path.join("src", "hull", "st.cpp")
CR = os.path.join("src", "core", "st.hpp")

V2_SEEDED = [
    # ---- locks -----------------------------------------------------------
    dict(
        name="lock-table: unnamed mutex in scope",
        rule="lock-table",
        bad={RT: """
namespace aero {
class StBox {
 public:
  void poke();
 private:
  Mutex m_;
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StBox {
 public:
  void poke();
 private:
  Mutex m_ AERO_LOCK_NAME("st.box", 10);
};
}  // namespace aero
"""}),
    dict(
        name="lock-table: duplicate name with a different rank",
        rule="lock-table",
        bad={RT: """
namespace aero {
class StA { Mutex m_ AERO_LOCK_NAME("st.dup", 10); };
class StB { Mutex m_ AERO_LOCK_NAME("st.dup", 20); };
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StA { Mutex m_ AERO_LOCK_NAME("st.one", 10); };
class StB { Mutex m_ AERO_LOCK_NAME("st.two", 20); };
}  // namespace aero
"""}),
    dict(
        name="lock-table: ACQUIRED_BEFORE contradicting the ranks",
        rule="lock-table",
        bad={RT: """
namespace aero {
class StUp { Mutex m_ AERO_LOCK_NAME("st.up", 50) AERO_ACQUIRED_BEFORE("st.down"); };
class StDown { Mutex m_ AERO_LOCK_NAME("st.down", 40); };
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StUp { Mutex m_ AERO_LOCK_NAME("st.up", 50) AERO_ACQUIRED_BEFORE("st.down"); };
class StDown { Mutex m_ AERO_LOCK_NAME("st.down", 60); };
}  // namespace aero
"""}),
    dict(
        name="lock-order: nested acquisition against rank order",
        rule="lock-order",
        bad={RT: """
namespace aero {
class StPair {
 public:
  void both() {
    MutexLock a(hi_);
    MutexLock b(lo_);
  }
 private:
  Mutex lo_ AERO_LOCK_NAME("st.lo", 10);
  Mutex hi_ AERO_LOCK_NAME("st.hi", 20);
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StPair {
 public:
  void both() {
    MutexLock a(lo_);
    MutexLock b(hi_);
  }
 private:
  Mutex lo_ AERO_LOCK_NAME("st.lo", 10);
  Mutex hi_ AERO_LOCK_NAME("st.hi", 20);
};
}  // namespace aero
"""}),
    dict(
        name="lock-order: re-acquiring a held lock",
        rule="lock-order",
        bad={RT: """
namespace aero {
class StTwice {
 public:
  void twice() {
    MutexLock a(m_);
    MutexLock b(m_);
  }
 private:
  Mutex m_ AERO_LOCK_NAME("st.twice", 10);
};
}  // namespace aero
"""}),
    dict(
        name="lock-order: cycle in the observed acquisition graph",
        rule="lock-order",
        bad={RT: """
namespace aero {
class StCycle {
 public:
  void forward() {
    MutexLock x(a_);
    MutexLock y(b_);
  }
  void backward() {
    MutexLock x(b_);
    MutexLock y(a_);
  }
 private:
  Mutex a_ AERO_LOCK_NAME("st.a", 10);
  Mutex b_ AERO_LOCK_NAME("st.b", 20);
};
}  // namespace aero
""" }),
    dict(
        name="lock-blocking: sleep while holding a lock",
        rule="lock-blocking",
        bad={RT: """
namespace aero {
class StSleepy {
 public:
  void nap() {
    MutexLock lock(m_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
 private:
  Mutex m_ AERO_LOCK_NAME("st.sleepy", 30);
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StSleepy {
 public:
  void nap() {
    {
      MutexLock lock(m_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
 private:
  Mutex m_ AERO_LOCK_NAME("st.sleepy", 30);
};
}  // namespace aero
"""}),
    # ---- determinism -----------------------------------------------------
    dict(
        name="det-unordered-iter: member unordered_map range-for",
        rule="det-unordered-iter",
        bad={DL: """
namespace aero {
class StCache {
 public:
  double walk() {
    double s = 0.0;
    for (const auto& kv : map_) {
      s += kv.second;
    }
    return s;
  }
 private:
  std::unordered_map<int, double> map_;
};
}  // namespace aero
"""},
        good={DL: """
namespace aero {
class StCache {
 public:
  double walk() {
    double s = 0.0;
    for (const auto& kv : map_) {
      s += kv.second;
    }
    return s;
  }
 private:
  std::map<int, double> map_;
};
}  // namespace aero
"""}),
    dict(
        name="det-unordered-iter: local unordered_set range-for",
        rule="det-unordered-iter",
        bad={HL: """
namespace aero {
int st_count() {
  std::unordered_set<int> seen;
  int n = 0;
  for (int v : seen) {
    n += v;
  }
  return n;
}
}  // namespace aero
"""}),
    dict(
        name="det-pointer-key: pointer-keyed ordered container",
        rule="det-pointer-key",
        bad={GM: """
namespace aero {
class StIndex {
 private:
  std::map<StNode*, int> by_node_;
};
}  // namespace aero
"""},
        good={GM: """
namespace aero {
class StIndex {
 private:
  std::map<int, int> by_node_;
};
}  // namespace aero
"""}),
    dict(
        name="det-clock: steady_clock read in kernel code",
        rule="det-clock",
        bad={DL: """
namespace aero {
double st_now() {
  const auto t = std::chrono::steady_clock::now();
  return 0.0;
}
}  // namespace aero
"""},
        good={DL: """
namespace aero {
double st_now(double t) {
  return t;
}
}  // namespace aero
"""}),
    dict(
        name="det-clock: rand() in kernel code",
        rule="det-clock",
        bad={HL: """
namespace aero {
int st_pick() {
  return rand() % 3;
}
}  // namespace aero
"""}),
    # ---- atomics ---------------------------------------------------------
    dict(
        name="atomic-role: member without a declared role",
        rule="atomic-role",
        bad={RT: """
namespace aero {
class StCount {
 private:
  std::atomic<int> n_{0};
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StCount {
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""}),
    dict(
        name="atomic-role: op the role does not admit",
        rule="atomic-role",
        bad={RT: """
namespace aero {
class StFlag {
 public:
  void bump() { f_.fetch_add(1); }
 private:
  std::atomic<int> f_ AERO_ATOMIC_ROLE(flag){0};
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StFlag {
 public:
  void raise() { f_.store(1); }
 private:
  std::atomic<int> f_ AERO_ATOMIC_ROLE(flag){0};
};
}  // namespace aero
"""}),
    dict(
        name="atomic-order: relaxed store on a published atomic",
        rule="atomic-order",
        bad={RT: """
namespace aero {
class StPub {
 public:
  void push() { head_.store(1, std::memory_order_relaxed); }
 private:
  std::atomic<int> head_ AERO_ATOMIC_ROLE(published){0};
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StPub {
 public:
  void push() { head_.store(1, std::memory_order_release); }
 private:
  std::atomic<int> head_ AERO_ATOMIC_ROLE(published){0};
};
}  // namespace aero
"""}),
    dict(
        name="atomic-implicit: plain '=' store",
        rule="atomic-implicit",
        bad={RT: """
namespace aero {
class StSet {
 public:
  void set() { n_ = 4; }
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""},
        good={RT: """
namespace aero {
class StSet {
 public:
  void set() { n_.store(4, std::memory_order_relaxed); }
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""}),
    dict(
        name="atomic-implicit: bare read",
        rule="atomic-implicit",
        bad={RT: """
namespace aero {
class StGet {
 public:
  int get() { return n_ + 1; }
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""}),
    dict(
        name="atomic-mixed: memcpy over an atomic member",
        rule="atomic-mixed",
        bad={RT: """
namespace aero {
class StWipe {
 public:
  void wipe(const void* src) { std::memcpy(&n_, src, sizeof(n_)); }
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""}),
    # ---- status ----------------------------------------------------------
    dict(
        name="unchecked-status: discard through a resolved receiver",
        rule="unchecked-status",
        bad={CR: """
namespace aero {
class StWriter {
 public:
  [[nodiscard]] bool persist(int x);
};
inline void st_use(StWriter& w) {
  w.persist(1);
}
}  // namespace aero
"""},
        good={CR: """
namespace aero {
class StWriter {
 public:
  [[nodiscard]] bool persist(int x);
};
inline bool st_use(StWriter& w) {
  return w.persist(1);
}
}  // namespace aero
"""}),
    dict(
        name="unchecked-status: discarded [[nodiscard]] enum return",
        rule="unchecked-status",
        bad={CR: """
namespace aero {
enum class [[nodiscard]] StStatus { kOk, kBad };
StStatus st_stage();
inline void st_drive() {
  st_stage();
}
}  // namespace aero
"""},
        good={CR: """
namespace aero {
enum class [[nodiscard]] StStatus { kOk, kBad };
StStatus st_stage();
inline StStatus st_drive() {
  return st_stage();
}
}  // namespace aero
"""}),
    dict(
        name="unchecked-status: discard of an own nodiscard method",
        rule="unchecked-status",
        bad={CR: """
namespace aero {
class StPipeline {
 public:
  [[nodiscard]] bool step();
  void all() {
    step();
  }
};
}  // namespace aero
"""},
        good={CR: """
namespace aero {
class StPipeline {
 public:
  [[nodiscard]] bool step();
  void all() {
    if (!step()) {
      return;
    }
  }
};
}  // namespace aero
"""}),
    dict(
        name="unchecked-status: discard through a member receiver",
        rule="unchecked-status",
        bad={CR: """
namespace aero {
class StSink {
 public:
  [[nodiscard]] bool commit(int k);
};
class StHolder {
 public:
  void go() {
    sink.commit(3);
  }
 private:
  StSink sink;
};
}  // namespace aero
"""}),
    # ---- kernel shared state ---------------------------------------------
    dict(
        name="kernel-shared-state: unannotated mutable member in scope",
        rule="kernel-shared-state",
        bad={DL: """
namespace aero {
class StCache {
 public:
  int probe() const;
 private:
  mutable int last_hit_ = 0;
};
}  // namespace aero
"""},
        good={DL: """
namespace aero {
class StCache {
 public:
  int probe() const;
 private:
  mutable int last_hit_ AERO_SHARED_STATE("main thread only") = 0;
};
}  // namespace aero
"""}),
    dict(
        name="kernel-shared-state: non-const namespace-scope global",
        rule="kernel-shared-state",
        bad={GM: """
namespace aero {
int st_filter_failures = 0;
}  // namespace aero
"""},
        good={GM: """
namespace aero {
constexpr int st_filter_limit = 8;
thread_local int st_filter_failures = 0;
}  // namespace aero
"""}),
    dict(
        name="kernel-shared-state: non-const function-local static",
        rule="kernel-shared-state",
        bad={DL: """
namespace aero {
inline int st_next_id() {
  static int counter = 0;
  return ++counter;
}
}  // namespace aero
"""},
        good={DL: """
namespace aero {
inline int st_limit() {
  static const int limit = 64;
  return limit;
}
}  // namespace aero
"""}),
    dict(
        name="kernel-shared-state: out of scope (src/core) stays quiet",
        rule="kernel-shared-state",
        bad={DL: """
namespace aero {
class StDirty {
 public:
  int get() const;
 private:
  mutable int seen_ = 0;
};
}  // namespace aero
"""},
        good={CR: """
namespace aero {
class StDirty {
 public:
  int get() const;
 private:
  mutable int seen_ = 0;
};
}  // namespace aero
"""}),
]


def _lint(files):
    eng = Engine(files)
    eng.run()
    return eng.findings


def _fails_v1(failures):
    for rule, relpath, bad, good in V1_SEEDED:
        hits = {f.rule for f in _lint({relpath: bad + "\n"})}
        if rule not in hits:
            failures.append("rule %s did not fire on: %s" % (rule, bad))
        hits = {f.rule for f in _lint({relpath: good + "\n"})}
        if rule in hits:
            failures.append("rule %s false-positived on: %s" % (rule, good))
        escaped = bad + "  // aerolint: allow(%s)" % rule
        hits = {f.rule for f in _lint({relpath: escaped + "\n"})}
        if rule in hits:
            failures.append("escape comment did not suppress %s" % rule)
    quiet_path = os.path.join("src", "core", "x.cpp")
    for line in V1_QUIET:
        got = _lint({quiet_path: line + "\n"})
        if got:
            failures.append("fired %s inside comment/string: %s"
                            % (sorted({f.rule for f in got}), line))


def _fails_v2(failures):
    for case in V2_SEEDED:
        rule = case["rule"]
        name = case["name"]
        findings = _lint(case["bad"])
        mine = [f for f in findings if f.rule == rule]
        if not mine:
            failures.append("[%s] %s did not fire; got: %s"
                            % (name, rule,
                               [f.render() for f in findings] or "nothing"))
        if "good" in case:
            findings = _lint(case["good"])
            mine = [f for f in findings if f.rule == rule]
            if mine:
                failures.append("[%s] %s false-positived on the clean "
                                "variant: %s"
                                % (name, rule, mine[0].render()))


def _fails_escapes(failures):
    """The v2 waiver protocol: allow(rule: reason) suppresses, a bare
    allow(rule) does not, and a waiver on a comment-only line above the
    finding attaches to it."""
    base = """
namespace aero {
class StEsc {
 public:
  void set() { n_ = 4; %s}
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""
    reasoned = base % "// aerolint: allow(atomic-implicit: seeded waiver)\n"
    got = [f for f in _lint({RT: reasoned}) if f.rule == "atomic-implicit"]
    if got:
        failures.append("reasoned allow() did not suppress atomic-implicit: "
                        + got[0].render())
    bare = base % "// aerolint: allow(atomic-implicit)\n"
    got = [f for f in _lint({RT: bare}) if f.rule == "atomic-implicit"]
    if not got:
        failures.append("bare allow() suppressed a reason-required rule")
    elif "waiver ignored" not in got[0].message:
        failures.append("bare allow() finding does not explain the ignored "
                        "waiver: " + got[0].render())
    above = """
namespace aero {
class StEsc {
 public:
  void set() {
    // aerolint: allow(atomic-implicit: seeded waiver on the line above)
    n_ = 4;
  }
 private:
  std::atomic<int> n_ AERO_ATOMIC_ROLE(counter){0};
};
}  // namespace aero
"""
    got = [f for f in _lint({RT: above}) if f.rule == "atomic-implicit"]
    if got:
        failures.append("comment-line allow() above the finding did not "
                        "attach: " + got[0].render())


def run():
    failures = []
    _fails_v1(failures)
    _fails_v2(failures)
    _fails_escapes(failures)
    if failures:
        for f in failures:
            sys.stderr.write("aerolint self-test FAIL: %s\n" % f)
        return 1
    sys.stderr.write(
        "aerolint self-test: %d heritage + %d analysis seeds, all rules "
        "fire, clean variants stay quiet, and the waiver protocol holds\n"
        % (len(V1_SEEDED), len(V2_SEEDED)))
    return 0
