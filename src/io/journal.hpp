#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/annotations.hpp"

namespace aero {

/// Append-only checkpoint journal: the on-disk record of every finalized
/// subdomain of a parallel run, written as the run progresses so a crash,
/// budget stop, or signal at minute 59 loses at most the in-flight units.
///
/// File layout (all integers little-endian, matching the wire serializers):
///
///   header   "AEROJNL1" magic (8) | version u32 | config_hash u64
///            | crc32 u32 over the preceding 20 bytes
///   record*  payload_len u32 | key u64 | payload bytes | crc32 u32 over
///            key+payload
///
/// `config_hash` is the canonical options+geometry hash of the run that
/// wrote the journal; a resume against different options is rejected whole.
/// `key` is the deterministic subdomain content key (runtime/checkpoint),
/// `payload` an opaque serialized block -- since journal version 3 every
/// checkpoint payload is a mesh piece in the tagged "AMSH" layout
/// (core/mesh_view.hpp), so a payload-format change is rejected per record
/// with a typed MeshBlobStatus instead of silently mis-decoding. Each record
/// is framed independently so a torn tail -- the normal outcome of a crash
/// mid-write -- invalidates only the bytes after the last intact record,
/// never the journal: the loader stops at the first truncated or corrupt
/// record and reports the discarded byte count.

inline constexpr std::uint32_t kJournalVersion = 3;

/// Hard sanity bound on a single record's payload: a corrupt length field
/// must not become a multi-gigabyte allocation.
inline constexpr std::uint32_t kJournalMaxPayload = 1u << 30;

struct JournalRecord {
  std::uint64_t key = 0;
  std::vector<std::uint8_t> payload;
};

/// Result of scanning a journal file. `records` holds the intact prefix;
/// nothing here is ever fatal -- a missing file, a corrupt header, or a
/// mismatched hash all degrade to "resume nothing, re-mesh everything".
struct JournalContents {
  bool header_ok = false;      ///< file exists and the header is intact
  bool hash_mismatch = false;  ///< header intact but written for another run
  std::uint32_t version = 0;
  std::uint64_t config_hash = 0;
  std::vector<JournalRecord> records;
  std::size_t discarded_bytes = 0;  ///< truncated/corrupt tail dropped
};

/// Scan `path`, validating the header and then each record's CRC frame.
/// Records are returned only when the header is intact, the version is
/// current, and the stored config hash equals `expected_config_hash`
/// (otherwise `hash_mismatch` is set and `records` stays empty).
JournalContents read_journal(const std::string& path,
                             std::uint64_t expected_config_hash);

/// Thread-safe append-only writer. Every write and flush return value is
/// checked: the first failure (disk full, torn mount) latches the writer
/// into a failed state so callers see `false` instead of silently losing
/// checkpoints, and the run carries on unjournaled -- checkpointing is an
/// optimization, never a correctness dependency.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open for a fresh run (truncate + write header) or, with `append`,
  /// extend an existing journal whose header the caller already validated
  /// via read_journal. Returns false (and stays closed) on any I/O error.
  [[nodiscard]] bool open(const std::string& path, std::uint64_t config_hash,
                          bool append);
  bool is_open() const;

  /// Append one framed record and flush it to the OS so the bytes survive
  /// this process dying. Returns false on any write error.
  [[nodiscard]] bool append(std::uint64_t key, const std::uint8_t* payload,
                            std::size_t n);

  [[nodiscard]] bool flush();
  void close();

  std::size_t write_failures() const;

 private:
  // may_block: this lock exists to serialize the fwrite/fflush below it;
  // holding it across those calls is its whole job.
  mutable Mutex m_ AERO_LOCK_NAME("io.journal", 90, may_block);
  std::FILE* file_ AERO_GUARDED_BY(m_) = nullptr;
  bool failed_ AERO_GUARDED_BY(m_) = false;
  std::size_t failures_ AERO_GUARDED_BY(m_) = 0;
};

}  // namespace aero
