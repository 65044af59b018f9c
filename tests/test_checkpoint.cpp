// Run-level resilience: the checkpoint journal's CRC framing and tail
// discard, the deterministic subdomain content key and config hash, pool
// checkpoint/resume equivalence, budget-driven graceful drains, process
// chaos (rank crashes, mesher kills) -> resume -> bit-identical meshes,
// and the driver-level end-to-end paths.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/crc32.hpp"  // aerolint: allow(public-api)
#include "core/mesh_generator.hpp"
#include "core/mesh_view.hpp"
#include "core/pipeline_config.hpp"  // aerolint: allow(public-api)
#include "io/journal.hpp"  // aerolint: allow(public-api)
#include "runtime/checkpoint.hpp"  // aerolint: allow(public-api)
#include "runtime/parallel_driver.hpp"  // aerolint: allow(public-api)
#include "runtime/pool.hpp"  // aerolint: allow(public-api)

namespace aero {
namespace {

// ---------------------------------------------------------------------------
// Helpers.

/// A journal path in the test working directory, removed on scope exit.
/// The pid keeps concurrent instances of the same test apart: ctest runs
/// the soak both as a discovered test and as the named checkpoint_soak
/// entry, and under `ctest -j` the two overlap in the same directory.
struct TempJournal {
  std::string path;
  explicit TempJournal(const std::string& name)
      : path("ckpt_test_" + name + "_" + std::to_string(::getpid()) +
             ".aerojnl") {
    std::remove(path.c_str());
  }
  ~TempJournal() { std::remove(path.c_str()); }
  TempJournal(const TempJournal&) = delete;
  TempJournal& operator=(const TempJournal&) = delete;
};

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Canonical coordinate soup of the live triangles: each triangle's vertices
/// sorted, then the whole list sorted, so two meshes compare bit-identical
/// regardless of merge order, rank count, or resume scheduling.
std::vector<std::array<double, 6>> canonical_triangles(const MergedMesh& m) {
  std::vector<std::array<double, 6>> out;
  out.reserve(m.triangle_count());
  for (std::size_t t = 0; t < m.record_count(); ++t) {
    if (!m.alive(t)) continue;
    std::array<std::pair<double, double>, 3> v;
    for (int i = 0; i < 3; ++i) {
      const Vec2 p = m.point(m.tri(t)[static_cast<std::size_t>(i)]);
      v[static_cast<std::size_t>(i)] = {p.x, p.y};
    }
    std::sort(v.begin(), v.end());
    out.push_back({v[0].first, v[0].second, v[1].first, v[1].second,
                   v[2].first, v[2].second});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Journal file format: framing, tail discard, header validation.

constexpr std::uint64_t kHash = 0x1234abcd5678ef01ull;

void write_records(const std::string& path, int n, bool append = false) {
  JournalWriter w;
  ASSERT_TRUE(w.open(path, kHash, append));
  for (int i = 0; i < n; ++i) {
    std::vector<std::uint8_t> payload(17 + static_cast<std::size_t>(i) * 5);
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::uint8_t>(i * 31 + static_cast<int>(b));
    }
    ASSERT_TRUE(w.append(0x100u + static_cast<std::uint64_t>(i),
                         payload.data(), payload.size()));
  }
  ASSERT_TRUE(w.flush());
  w.close();
}

TEST(Journal, RoundTripPreservesEveryRecord) {
  TempJournal tj("roundtrip");
  write_records(tj.path, 3);

  const JournalContents j = read_journal(tj.path, kHash);
  EXPECT_TRUE(j.header_ok);
  EXPECT_FALSE(j.hash_mismatch);
  EXPECT_EQ(j.version, kJournalVersion);
  EXPECT_EQ(j.config_hash, kHash);
  EXPECT_EQ(j.discarded_bytes, 0u);
  ASSERT_EQ(j.records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const JournalRecord& r = j.records[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.key, 0x100u + static_cast<std::uint64_t>(i));
    ASSERT_EQ(r.payload.size(), 17u + static_cast<std::size_t>(i) * 5);
    for (std::size_t b = 0; b < r.payload.size(); ++b) {
      EXPECT_EQ(r.payload[b],
                static_cast<std::uint8_t>(i * 31 + static_cast<int>(b)));
    }
  }
}

TEST(Journal, MissingFileDegradesToNothing) {
  const JournalContents j = read_journal("ckpt_test_no_such_file.aerojnl",
                                         kHash);
  EXPECT_FALSE(j.header_ok);
  EXPECT_TRUE(j.records.empty());
}

TEST(Journal, HashMismatchRejectsTheWholeFile) {
  TempJournal tj("hashmismatch");
  write_records(tj.path, 2);

  const JournalContents j = read_journal(tj.path, kHash ^ 1u);
  EXPECT_TRUE(j.header_ok);
  EXPECT_TRUE(j.hash_mismatch);
  EXPECT_TRUE(j.records.empty());
}

TEST(Journal, TruncatedTailKeepsTheIntactPrefix) {
  TempJournal tj("truncated");
  write_records(tj.path, 3);

  // A crash mid-write tears the last record: chop 5 bytes off the file.
  std::vector<std::uint8_t> bytes = slurp(tj.path);
  ASSERT_GT(bytes.size(), 5u);
  bytes.resize(bytes.size() - 5);
  dump(tj.path, bytes);

  const JournalContents j = read_journal(tj.path, kHash);
  EXPECT_TRUE(j.header_ok);
  ASSERT_EQ(j.records.size(), 2u);
  EXPECT_GT(j.discarded_bytes, 0u);
  EXPECT_EQ(j.records[1].key, 0x101u);
}

TEST(Journal, CorruptRecordStopsTheScanThere) {
  TempJournal tj("corrupt");
  write_records(tj.path, 3);

  // Flip one byte inside the second record's payload; its CRC frame must
  // reject it and everything after it, keeping only the first record.
  std::vector<std::uint8_t> bytes = slurp(tj.path);
  const std::size_t header = 24;
  const std::size_t rec0 = 4 + 8 + 17 + 4;  // len | key | payload | crc
  const std::size_t target = header + rec0 + 4 + 8 + 3;
  ASSERT_LT(target, bytes.size());
  bytes[target] ^= 0x40u;
  dump(tj.path, bytes);

  const JournalContents j = read_journal(tj.path, kHash);
  EXPECT_TRUE(j.header_ok);
  ASSERT_EQ(j.records.size(), 1u);
  EXPECT_EQ(j.records[0].key, 0x100u);
  EXPECT_GT(j.discarded_bytes, 0u);
}

TEST(Journal, CorruptHeaderIsNeverFatal) {
  TempJournal tj("badheader");
  write_records(tj.path, 2);

  std::vector<std::uint8_t> bytes = slurp(tj.path);
  bytes[3] ^= 0xffu;  // break the magic
  dump(tj.path, bytes);

  const JournalContents j = read_journal(tj.path, kHash);
  EXPECT_FALSE(j.header_ok);
  EXPECT_TRUE(j.records.empty());
}

TEST(Journal, AppendExtendsAnExistingJournal) {
  TempJournal tj("append");
  write_records(tj.path, 2);
  write_records(tj.path, 3, /*append=*/true);

  const JournalContents j = read_journal(tj.path, kHash);
  EXPECT_TRUE(j.header_ok);
  // 2 fresh + 3 appended (keys overlap on purpose; dedupe is the sink's
  // job, the file format records what it was given).
  EXPECT_EQ(j.records.size(), 5u);
  EXPECT_EQ(j.discarded_bytes, 0u);
}

TEST(Journal, WriterFailureLatchesInsteadOfThrowing) {
  JournalWriter w;
  EXPECT_FALSE(w.open("ckpt_test_no_such_dir/journal.aerojnl", kHash, false));
  EXPECT_FALSE(w.is_open());
  const std::uint8_t b = 0;
  EXPECT_FALSE(w.append(1, &b, 1));
  EXPECT_GE(w.write_failures(), 1u);
}

TEST(ResumeState, AsupSoupRecordIsABadMagicDecodeFailure) {
  // A v3 record whose payload is the retired "ASUP" triangle soup: the
  // record CRC passes, but MeshView::parse rejects the blob as kBadMagic, so
  // the record is skipped and counted while the AMSH piece beside it loads.
  TempJournal tj("asup_record");
  std::vector<std::uint8_t> soup = {'A', 'S', 'U', 'P', 1, 0, 0, 0};
  soup.resize(soup.size() + 6 * sizeof(double), 0);  // one 48-byte triangle
  const std::vector<std::uint8_t> piece =
      MeshView({{0, 0}, {1, 0}, {0, 1}}, {{0, 1, 2}}).serialize();
  {
    JournalWriter w;
    ASSERT_TRUE(w.open(tj.path, kHash, false));
    ASSERT_TRUE(w.append(1, soup.data(), soup.size()));
    ASSERT_TRUE(w.append(2, piece.data(), piece.size()));
    ASSERT_TRUE(w.flush());
  }
  EXPECT_EQ(mesh_blob_status(soup), MeshBlobStatus::kBadMagic);
  const JournalContents loaded = read_journal(tj.path, kHash);
  ASSERT_EQ(loaded.records.size(), 2u);
  const ResumeState resume(loaded);
  EXPECT_EQ(resume.decode_failures(), 1u);
  EXPECT_EQ(resume.find(1), nullptr);
  ASSERT_NE(resume.find(2), nullptr);
  EXPECT_EQ(resume.find(2)->triangle_count(), 1u);
}

// ---------------------------------------------------------------------------
// Shared small-domain fixture (mirrors test_faults.cpp's ChaosFixture).

struct CheckpointFixture {
  Options cfg;
  GradedSizing sizing;
  std::vector<WorkUnit> initial;
  PoolOptions opts;

  CheckpointFixture() {
    cfg.airfoil = make_naca0012(120);
    cfg.growth_kind = GrowthKind::kGeometric;
    cfg.first_height = 8e-4;
    cfg.growth_ratio = 1.3;
    cfg.max_layers = 25;
    cfg.farfield_chords = 6.0;
    // Small target so the quadrants decompose into a real work tree (dozens
    // of units): resilience scenarios need mid-run state worth losing.
    cfg.inviscid_target_triangles = 300.0;
    cfg.bl_min_points = 600;
    cfg.bl_max_level = 8;

    const BoundaryLayer bl = build_boundary_layer(cfg.airfoil, blayer_options(cfg));
    MergedMesh bl_mesh;
    triangulate_boundary_layer(bl, bl_decompose_options(cfg), bl_mesh, nullptr);
    const InviscidDomain domain = make_inviscid_domain(bl, cfg, bl_mesh);
    sizing = domain.sizing;
    for (InviscidSubdomain& quad : initial_quadrants(domain)) {
      initial.push_back(
          WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(quad)});
    }

    opts.nranks = 4;
    opts.steal_threshold = 1.0;
    opts.update_period = std::chrono::microseconds(50);
    opts.rules = tree_rules(cfg);
    // This box oversubscribes all pool threads onto very few cores.
    opts.heartbeat_timeout = std::chrono::milliseconds(1000);
    opts.watchdog_timeout = std::chrono::seconds(120);
  }
};

const CheckpointFixture& fixture() {
  static const CheckpointFixture fx;
  return fx;
}

/// The fault-free reference mesh of the fixture, computed once.
const std::vector<std::array<double, 6>>& reference_triangles() {
  static const std::vector<std::array<double, 6>> ref = [] {
    const CheckpointFixture& fx = fixture();
    MergedMesh clean;
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, fx.opts,
                                 clean);
    EXPECT_EQ(s.status, RunStatus::kOk);
    return canonical_triangles(clean);
  }();
  return ref;
}

// ---------------------------------------------------------------------------
// Content keys and the config hash.

TEST(CheckpointKey, IgnoresSchedulingArtifacts) {
  const CheckpointFixture& fx = fixture();
  ASSERT_GE(fx.initial.size(), 2u);

  WorkUnit a = fx.initial[0];
  WorkUnit b = fx.initial[0];
  b.id = a.id + 999;        // pool-assigned identity
  b.failed_ranks = 0x5aull; // fault history
  EXPECT_EQ(subdomain_key(a), subdomain_key(b));

  // Different subdomains produce different keys.
  EXPECT_NE(subdomain_key(fx.initial[0]), subdomain_key(fx.initial[1]));
}

TEST(CheckpointKey, ConfigHashSeparatesMeshKnobsFromRuntimeKnobs) {
  Options base;
  base.airfoil = make_naca0012(60);
  const std::uint64_t h = mesh_config_hash(base);

  // Runtime knobs do not invalidate a journal: an 8-rank journal resumes a
  // 2-rank run, at any refiner thread count, with budgets or chaos or
  // neither.
  Options runtime = base;
  runtime.ranks = 8;
  runtime.threads_per_rank = 4;
  runtime.fault_rate = 0.25;
  runtime.budget_wall_ms = 1234;
  runtime.checkpoint_path = "somewhere.aerojnl";
  EXPECT_EQ(mesh_config_hash(runtime), h);

  // Mesh-defining knobs do.
  Options grown = base;
  grown.max_layers += 1;
  EXPECT_NE(mesh_config_hash(grown), h);

  Options wider = base;
  wider.farfield_chords *= 2.0;
  EXPECT_NE(mesh_config_hash(wider), h);

  Options finer = base;
  finer.airfoil = make_naca0012(80);
  EXPECT_NE(mesh_config_hash(finer), h);

  Options retree = base;
  retree.inviscid_target_triangles *= 0.5;
  EXPECT_NE(mesh_config_hash(retree), h);
}

// ---------------------------------------------------------------------------
// Pool-level checkpoint/resume.

TEST(PoolResilience, CheckpointThenResumeReproducesTheMesh) {
  const CheckpointFixture& fx = fixture();
  TempJournal tj("pool_resume");

  // Checkpointed run: the journal fills with every finalized leaf and the
  // mesh is the reference mesh (checkpointing never perturbs results).
  CheckpointSink sink;
  ASSERT_TRUE(sink.open(tj.path, kHash, /*append=*/false));
  MergedMesh first;
  PoolOptions opts = fx.opts;
  opts.checkpoint = &sink;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, opts, first);
    EXPECT_EQ(s.status, RunStatus::kOk);
    EXPECT_GT(s.checkpointed_units, 0u);
    EXPECT_EQ(s.checkpoint_failures, 0u);
    EXPECT_EQ(s.units_done, s.units_total);
  }
  sink.close();
  EXPECT_EQ(canonical_triangles(first), reference_triangles());

  // Resumed run: every leaf replays from the journal, nothing re-meshes,
  // and the mesh is bit-identical.
  const JournalContents loaded = read_journal(tj.path, kHash);
  ASSERT_TRUE(loaded.header_ok);
  ASSERT_FALSE(loaded.hash_mismatch);
  ASSERT_GT(loaded.records.size(), 0u);
  const ResumeState resume(loaded);
  EXPECT_EQ(resume.decode_failures(), 0u);

  MergedMesh second;
  PoolOptions ropts = fx.opts;
  ropts.resume = &resume;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, ropts,
                                 second);
    EXPECT_EQ(s.status, RunStatus::kOk);
    EXPECT_EQ(s.resumed_units, loaded.records.size());
    EXPECT_EQ(s.units_done, s.units_total);
  }
  EXPECT_EQ(canonical_triangles(second), reference_triangles());
}

TEST(PoolResilience, CrashedRankRunResumesToTheIdenticalMesh) {
  const CheckpointFixture& fx = fixture();
  TempJournal tj("pool_crash");

  // Crash rank 2's threads after it finishes 2 units. Its gathered results
  // die with it, but every finished leaf is already journaled.
  CheckpointSink sink;
  ASSERT_TRUE(sink.open(tj.path, kHash, /*append=*/false));
  PoolOptions opts = fx.opts;
  opts.checkpoint = &sink;
  opts.faults.enabled = true;
  opts.faults.crash_rank_after_units = {{2, 2}};
  MergedMesh crashed;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, opts,
                                 crashed);
    EXPECT_EQ(s.injected_crashes, 1u);
    EXPECT_EQ(s.dead_ranks, 1u);
    // When the crashed rank had finished leaves, their triangles died with
    // it (kPartial); when its two units were both splitters, reclamation
    // rescues the queued children and the run still completes (kOk).
    EXPECT_TRUE(s.status == RunStatus::kOk || s.status == RunStatus::kPartial)
        << to_string(s.status);
  }
  sink.close();

  // Resume from the journal on a healthy pool: the replayed leaves fill the
  // crater and the mesh comes out bit-identical to the fault-free run.
  const JournalContents loaded = read_journal(tj.path, kHash);
  ASSERT_TRUE(loaded.header_ok);
  ASSERT_GT(loaded.records.size(), 0u);
  const ResumeState resume(loaded);

  MergedMesh resumed;
  PoolOptions ropts = fx.opts;
  ropts.resume = &resume;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, ropts,
                                 resumed);
    EXPECT_EQ(s.status, RunStatus::kOk);
    EXPECT_GT(s.resumed_units, 0u);
  }
  EXPECT_EQ(canonical_triangles(resumed), reference_triangles());
}

TEST(PoolResilience, WallBudgetDrainsToAResumablePartialMesh) {
  const CheckpointFixture& fx = fixture();
  TempJournal tj("pool_wall");

  CheckpointSink sink;
  ASSERT_TRUE(sink.open(tj.path, kHash, /*append=*/false));
  PoolOptions opts = fx.opts;
  opts.checkpoint = &sink;
  opts.budget.wall_ms = 1;  // exhausted before the work set can finish
  MergedMesh partial;
  PoolStats stopped;
  {
    auto initial = fx.initial;
    stopped = run_pool(std::move(initial), fx.sizing, opts, partial);
  }
  sink.close();
  EXPECT_EQ(stopped.status, RunStatus::kStopped);
  EXPECT_EQ(stopped.stop_cause, StopCause::kWallBudget);
  EXPECT_LT(stopped.units_done, stopped.units_total);
  EXPECT_LE(canonical_triangles(partial).size(), reference_triangles().size());

  // Whatever leaves finished are journaled; resuming completes the run and
  // lands on the reference mesh.
  const JournalContents loaded = read_journal(tj.path, kHash);
  ASSERT_TRUE(loaded.header_ok);
  EXPECT_EQ(loaded.records.size(), stopped.checkpointed_units);
  const ResumeState resume(loaded);

  MergedMesh completed;
  PoolOptions ropts = fx.opts;
  ropts.resume = &resume;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, ropts,
                                 completed);
    EXPECT_EQ(s.status, RunStatus::kOk);
    EXPECT_EQ(s.resumed_units, loaded.records.size());
  }
  EXPECT_EQ(canonical_triangles(completed), reference_triangles());
}

TEST(PoolResilience, RssBudgetTripsTheMonitor) {
  const CheckpointFixture& fx = fixture();

  // Any real process peaks far above 1 MB, so the monitor's first RSS
  // sample (taken on its first tick, then every 16th) trips the budget.
  PoolOptions opts = fx.opts;
  opts.budget.peak_rss_mb = 1;
  MergedMesh partial;
  auto initial = fx.initial;
  const PoolStats s = run_pool(std::move(initial), fx.sizing, opts, partial);
  EXPECT_EQ(s.status, RunStatus::kStopped);
  EXPECT_EQ(s.stop_cause, StopCause::kRssBudget);
  EXPECT_LT(s.units_done, s.units_total);
}

TEST(PoolResilience, ExternalStopFlagDrainsTheRun) {
  const CheckpointFixture& fx = fixture();

  const std::atomic<bool> stop{true};  // pre-set: drain immediately
  PoolOptions opts = fx.opts;
  opts.stop = &stop;
  MergedMesh partial;
  auto initial = fx.initial;
  const PoolStats s = run_pool(std::move(initial), fx.sizing, opts, partial);
  EXPECT_EQ(s.status, RunStatus::kStopped);
  EXPECT_EQ(s.stop_cause, StopCause::kExternal);
  EXPECT_LT(s.units_done, s.units_total);
}

TEST(PoolResilience, MesherKillLeavesAResumableJournal) {
  const CheckpointFixture& fx = fixture();
  TempJournal tj("pool_kill");

  // Kill rank 3's mesher thread after one unit. Its communicator keeps
  // heartbeating and donating, so stealers drain most of its queue -- but
  // the half-dead rank never finishes its own in-hand work, a state the
  // heartbeat watchdog cannot see. Only the wall budget bounds the run; it
  // drains to a resumable journal.
  CheckpointSink sink;
  ASSERT_TRUE(sink.open(tj.path, kHash, /*append=*/false));
  PoolOptions opts = fx.opts;
  opts.checkpoint = &sink;
  opts.budget.wall_ms = 3000;
  opts.faults.enabled = true;
  opts.faults.kill_mesher_after_units = {{3, 1}};
  MergedMesh mesh;
  {
    auto initial = fx.initial;
    const PoolStats s = run_pool(std::move(initial), fx.sizing, opts, mesh);
    EXPECT_EQ(s.injected_mesher_kills, 1u);
    EXPECT_TRUE(s.status == RunStatus::kOk ||
                s.status == RunStatus::kStopped);
  }
  sink.close();

  const JournalContents loaded = read_journal(tj.path, kHash);
  ASSERT_TRUE(loaded.header_ok);
  ASSERT_GT(loaded.records.size(), 0u);
  const ResumeState resume(loaded);

  MergedMesh completed;
  PoolOptions ropts = fx.opts;
  ropts.resume = &resume;
  auto initial = fx.initial;
  const PoolStats s = run_pool(std::move(initial), fx.sizing, ropts,
                               completed);
  EXPECT_EQ(s.status, RunStatus::kOk);
  EXPECT_EQ(canonical_triangles(completed), reference_triangles());
}

// ---------------------------------------------------------------------------
// Driver-level end-to-end: both pool passes share one journal.

/// The fixture's job on a 4-rank pool through the Options entry point.
Options driver_cfg() {
  Options cfg = fixture().cfg;
  cfg.ranks = 4;
  return cfg;
}

TEST(DriverResilience, CheckpointResumeEndToEnd) {
  TempJournal tj("driver_e2e");

  // Reference run, no resilience wiring.
  const ParallelMeshResult ref = parallel_generate_mesh(driver_cfg());
  ASSERT_EQ(ref.status, RunStatus::kOk);

  // Checkpointed run: both passes stream leaves into one journal.
  const ParallelMeshResult ck =
      parallel_generate_mesh(driver_cfg().set_checkpoint_path(tj.path));
  ASSERT_EQ(ck.status, RunStatus::kOk);
  EXPECT_GT(ck.resilience.checkpointed_units, 0u);
  EXPECT_EQ(ck.resilience.checkpoint_failures, 0u);
  EXPECT_EQ(ck.resilience.units_done, ck.resilience.units_total);
  EXPECT_EQ(canonical_triangles(ck.mesh), canonical_triangles(ref.mesh));

  // Resumed run: replays every leaf of both passes, bit-identical mesh.
  const ParallelMeshResult rs =
      parallel_generate_mesh(driver_cfg().set_resume_path(tj.path));
  ASSERT_EQ(rs.status, RunStatus::kOk);
  EXPECT_TRUE(rs.resilience.resume_attempted);
  EXPECT_FALSE(rs.resilience.resume_rejected);
  EXPECT_GT(rs.resilience.resumed_units, 0u);
  EXPECT_EQ(canonical_triangles(rs.mesh), canonical_triangles(ref.mesh));
}

TEST(DriverResilience, RejectedJournalRemeshesFromScratch) {
  TempJournal tj("driver_reject");
  // Written under kHash, which is not the job's mesh_config_hash.
  ASSERT_NE(mesh_config_hash(driver_cfg()), kHash);
  write_records(tj.path, 2);

  const ParallelMeshResult r =
      parallel_generate_mesh(driver_cfg().set_resume_path(tj.path));
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_TRUE(r.resilience.resume_attempted);
  EXPECT_TRUE(r.resilience.resume_rejected);
  EXPECT_FALSE(r.resilience.resume_error.empty());
  EXPECT_EQ(r.resilience.resumed_units, 0u);
  EXPECT_GT(r.mesh.triangle_count(), 0u);
}

TEST(DriverResilience, VersionTwoJournalRemeshesFromScratch) {
  // A journal written by the soup-era format (version 2, with one intact
  // record) is rejected at its header, and the run re-meshes everything.
  TempJournal tj("driver_v2");
  const std::uint64_t cfg_hash = mesh_config_hash(driver_cfg());
  std::vector<std::uint8_t> bytes = {'A', 'E', 'R', 'O', 'J', 'N', 'L', '1'};
  const auto put = [&bytes](auto v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  put(std::uint32_t{2});
  put(cfg_hash);
  put(crc32(bytes.data(), bytes.size()));
  const std::size_t record = bytes.size();
  put(std::uint32_t{8});
  put(std::uint64_t{42});
  bytes.insert(bytes.end(), {'A', 'S', 'U', 'P', 1, 0, 0, 0});
  put(crc32(bytes.data() + record + 4, bytes.size() - record - 4));
  dump(tj.path, bytes);

  const JournalContents loaded = read_journal(tj.path, cfg_hash);
  EXPECT_FALSE(loaded.header_ok);
  EXPECT_EQ(loaded.version, 2u);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_EQ(loaded.discarded_bytes, bytes.size());

  const ParallelMeshResult r =
      parallel_generate_mesh(driver_cfg().set_resume_path(tj.path));
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_TRUE(r.resilience.resume_attempted);
  EXPECT_TRUE(r.resilience.resume_rejected);
  EXPECT_EQ(r.resilience.resume_records, 0u);
  EXPECT_EQ(r.resilience.resumed_units, 0u);
  EXPECT_EQ(r.resilience.units_done, r.resilience.units_total);
  EXPECT_GT(r.mesh.triangle_count(), 0u);
}

TEST(DriverResilience, WallBudgetStopsWithAValidPartialMesh) {
  TempJournal tj("driver_budget");

  const ParallelMeshResult stopped = parallel_generate_mesh(
      driver_cfg().set_checkpoint_path(tj.path).set_budget_wall_ms(1));
  EXPECT_EQ(stopped.status, RunStatus::kStopped);
  EXPECT_EQ(stopped.resilience.stop_cause, StopCause::kWallBudget);
  EXPECT_LT(stopped.resilience.units_done, stopped.resilience.units_total);

  // Resuming the stopped run's journal (checkpoint and resume pointed at
  // the same file exercises the append-in-place path) completes the mesh.
  const ParallelMeshResult done = parallel_generate_mesh(
      driver_cfg().set_checkpoint_path(tj.path).set_resume_path(tj.path));
  ASSERT_EQ(done.status, RunStatus::kOk);
  EXPECT_EQ(done.resilience.units_done, done.resilience.units_total);

  const ParallelMeshResult ref = parallel_generate_mesh(driver_cfg());
  EXPECT_EQ(canonical_triangles(done.mesh), canonical_triangles(ref.mesh));
}

TEST(DriverResilience, ResumeOnlyRunAppendsInPlace) {
  TempJournal tj("driver_resume_only");

  // 1. A budget-stopped run leaves a journal of the leaves it finished.
  const ParallelMeshResult stopped = parallel_generate_mesh(
      driver_cfg().set_checkpoint_path(tj.path).set_budget_wall_ms(1));
  ASSERT_EQ(stopped.status, RunStatus::kStopped);

  // 2. Resume-only: no checkpoint path, so the run appends the leaves it
  //    meshes to the journal it resumed from.
  const ParallelMeshResult finished =
      parallel_generate_mesh(driver_cfg().set_resume_path(tj.path));
  ASSERT_EQ(finished.status, RunStatus::kOk);
  EXPECT_FALSE(finished.resilience.resume_rejected);
  EXPECT_GT(finished.resilience.checkpointed_units, 0u);
  EXPECT_EQ(finished.resilience.checkpoint_failures, 0u);

  // 3. The journal now holds every leaf: a second resume-only run replays
  //    them all and appends nothing, since every key is already on disk.
  const ParallelMeshResult replayed =
      parallel_generate_mesh(driver_cfg().set_resume_path(tj.path));
  ASSERT_EQ(replayed.status, RunStatus::kOk);
  EXPECT_EQ(replayed.resilience.resume_records,
            stopped.resilience.checkpointed_units +
                finished.resilience.checkpointed_units);
  EXPECT_EQ(replayed.resilience.resumed_units,
            replayed.resilience.resume_records);
  EXPECT_EQ(replayed.resilience.checkpointed_units, 0u);

  const ParallelMeshResult fresh = parallel_generate_mesh(driver_cfg());
  EXPECT_EQ(canonical_triangles(replayed.mesh),
            canonical_triangles(fresh.mesh));
}

// ---------------------------------------------------------------------------
// Bounded chaos soak: seeds x crash/resume (the checkpoint_soak ctest
// entry). Each iteration crashes a rank under a lossy fabric, then resumes
// from the journal and demands the fault-free mesh bit-for-bit.

TEST(CheckpointSoak, CrashResumeMatrix) {
  const CheckpointFixture& fx = fixture();
  const std::uint32_t seeds[] = {7u, 1912u};

  for (const std::uint32_t seed : seeds) {
    TempJournal tj("soak_" + std::to_string(seed));

    // Chaotic leg. The victim rank gets work only by stealing, so on some
    // schedules it never reaches its crash threshold: rerun the leg, each
    // time into a fresh journal, until the injected crash fires.
    constexpr int kMaxChaosAttempts = 8;
    std::size_t crashes = 0;
    for (int attempt = 0; attempt < kMaxChaosAttempts && crashes == 0;
         ++attempt) {
      CheckpointSink sink;
      ASSERT_TRUE(sink.open(tj.path, kHash, /*append=*/false));
      PoolOptions opts = fx.opts;
      opts.checkpoint = &sink;
      opts.faults.enabled = true;
      opts.faults.seed = seed;
      opts.faults.drop_rate = 0.05;
      opts.faults.duplicate_rate = 0.03;
      opts.faults.corrupt_rate = 0.03;
      opts.faults.crash_rank_after_units = {
          {1 + static_cast<int>(seed % 3), 1 + seed % 4}};
      MergedMesh chaotic;
      auto initial = fx.initial;
      const PoolStats s =
          run_pool(std::move(initial), fx.sizing, opts, chaotic);
      crashes = s.injected_crashes;
      sink.close();
    }
    EXPECT_EQ(crashes, 1u) << "seed " << seed << ": no injected crash in "
                           << kMaxChaosAttempts << " attempts";

    // Resume leg: healthy pool, replay the journal.
    const JournalContents loaded = read_journal(tj.path, kHash);
    ASSERT_TRUE(loaded.header_ok);
    const ResumeState resume(loaded);
    MergedMesh resumed;
    PoolOptions ropts = fx.opts;
    ropts.resume = &resume;
    {
      auto initial = fx.initial;
      const PoolStats s = run_pool(std::move(initial), fx.sizing, ropts,
                                   resumed);
      EXPECT_EQ(s.status, RunStatus::kOk) << "seed " << seed;
      EXPECT_EQ(s.resumed_units, loaded.records.size());
    }
    EXPECT_EQ(canonical_triangles(resumed), reference_triangles())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aero
