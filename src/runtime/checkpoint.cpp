#include "runtime/checkpoint.hpp"

#include <utility>

namespace aero {

std::uint64_t subdomain_key(const WorkUnit& unit) {
  const std::vector<std::uint8_t> bytes = serialize(unit);
  // Serialized layout: id (8) | failed_ranks (8) | kind + subdomain fields
  // | crc32 (4). The id and fault history are scheduling artifacts; the CRC
  // is redundant with the hash. Everything between is the subdomain.
  constexpr std::size_t kSkip = 16;
  constexpr std::size_t kTrailer = 4;
  return fnv1a(bytes.data() + kSkip, bytes.size() - kSkip - kTrailer);
}

ResumeState::ResumeState(const JournalContents& journal) {
  map_.reserve(journal.records.size());
  for (const JournalRecord& rec : journal.records) {
    MeshView piece;
    if (MeshView::parse(rec.payload, piece) != MeshBlobStatus::kOk) {
      ++decode_failures_;  // CRC-intact but not a current-format piece
      continue;
    }
    map_.emplace(rec.key, std::move(piece));
  }
}

bool CheckpointSink::open(const std::string& path, std::uint64_t config_hash,
                          bool append) {
  return writer_.open(path, config_hash, append);
}

void CheckpointSink::seed(std::uint64_t key) {
  const MutexLock lock(m_);
  seen_.insert(key);
}

bool CheckpointSink::record(std::uint64_t key, const MeshView& piece) {
  {
    const MutexLock lock(m_);
    if (!seen_.insert(key).second) return true;  // already journaled
  }
  const std::vector<std::uint8_t> bytes = piece.serialize();
  if (!writer_.append(key, bytes.data(), bytes.size())) return false;
  const MutexLock lock(m_);
  ++records_;
  return true;
}

std::size_t CheckpointSink::records() const {
  const MutexLock lock(m_);
  return records_;
}

}  // namespace aero
