#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/mesh_view.hpp"
#include "core/options_hash.hpp"  // fnv1a, mesh_config_hash
#include "io/journal.hpp"
#include "runtime/work.hpp"

namespace aero {

/// Deterministic 64-bit content key of a work unit's subdomain description.
/// Hashes the serialized form minus the pool-assigned id, the failed_ranks
/// fault history (both vary with thread interleaving), and the CRC trailer.
/// The decomposition tree is a pure function of the input, so two runs of
/// the same problem produce the same keys for the same logical subdomains
/// regardless of rank count, schedule, transport, or injected faults --
/// which is what lets a resumed run recognize work a dead run finished.
///
/// The companion config-level key, mesh_config_hash(), moved to
/// core/options_hash.hpp in PR 8 so the service result cache and the
/// checkpoint journal share one list of mesh-defining fields; it is
/// re-exported by the include above for existing callers.
std::uint64_t subdomain_key(const WorkUnit& unit);

/// Completed-subdomain lookup built once from a validated journal and then
/// read lock-free by every mesher thread. Each record's payload is the
/// leaf's mesh piece as an "AMSH" blob; records that MeshView::parse rejects
/// (the record CRC passed, but the blob is truncated, of another format or
/// version, or its counts disagree with its length) are skipped and counted,
/// never fatal.
class ResumeState {
 public:
  explicit ResumeState(const JournalContents& journal);

  /// The stored piece for `key`, or nullptr if that subdomain must be
  /// meshed fresh.
  const MeshView* find(std::uint64_t key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }
  std::size_t decode_failures() const { return decode_failures_; }

 private:
  std::unordered_map<std::uint64_t, MeshView> map_;
  std::size_t decode_failures_ = 0;
};

/// Thread-safe streaming checkpoint sink: every finalized leaf's piece is
/// serialized and appended to the journal as the run progresses. Keys
/// already present in the journal (seeded from a resume load, or recorded
/// earlier this run) are skipped, so append-to-the-same-file resume chains
/// never duplicate records. All failures are counted and absorbed: a full
/// disk degrades checkpointing, never the mesh.
class CheckpointSink {
 public:
  [[nodiscard]] bool open(const std::string& path, std::uint64_t config_hash,
                          bool append);
  bool is_open() const { return writer_.is_open(); }

  /// Mark `key` as already journaled (from a loaded journal's records).
  void seed(std::uint64_t key);

  /// Serialize and append one finalized subdomain's piece. Returns false
  /// only on a write error; duplicate keys return true without writing.
  [[nodiscard]] bool record(std::uint64_t key, const MeshView& piece);

  [[nodiscard]] bool flush() { return writer_.flush(); }
  void close() { writer_.close(); }

  std::size_t records() const;
  std::size_t failures() const { return writer_.write_failures(); }

 private:
  JournalWriter writer_;
  // Guards only the dedup set; the journal append happens outside this lock
  // (JournalWriter serializes itself), keeping the blocking write out of the
  // sink's critical section.
  mutable Mutex m_ AERO_LOCK_NAME("ckpt.sink", 80)
      AERO_ACQUIRED_BEFORE("io.journal");
  std::unordered_set<std::uint64_t> seen_ AERO_GUARDED_BY(m_);
  std::size_t records_ AERO_GUARDED_BY(m_) = 0;
};

}  // namespace aero
