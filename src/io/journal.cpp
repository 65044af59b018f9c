#include "io/journal.hpp"

#include <cstring>

#include "core/crc32.hpp"

namespace aero {

namespace {

constexpr char kMagic[8] = {'A', 'E', 'R', 'O', 'J', 'N', 'L', '1'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;  // magic, ver, hash, crc

void put_u32(std::uint8_t* dst, std::uint32_t v) {
  std::memcpy(dst, &v, sizeof(v));
}
void put_u64(std::uint8_t* dst, std::uint64_t v) {
  std::memcpy(dst, &v, sizeof(v));
}
std::uint32_t get_u32(const std::uint8_t* src) {
  std::uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
std::uint64_t get_u64(const std::uint8_t* src) {
  std::uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

std::vector<std::uint8_t> make_header(std::uint64_t config_hash) {
  std::vector<std::uint8_t> h(kHeaderBytes);
  std::memcpy(h.data(), kMagic, sizeof(kMagic));
  put_u32(h.data() + 8, kJournalVersion);
  put_u64(h.data() + 12, config_hash);
  put_u32(h.data() + 20, crc32(h.data(), 20));
  return h;
}

/// Scoped close for the read path, where a close failure changes nothing
/// (the bytes are already in memory) but still must not leak the handle.
struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f != nullptr && std::fclose(f) != 0) {
      f = nullptr;  // read path: nothing useful to do with the error
    }
  }
};

}  // namespace

JournalContents read_journal(const std::string& path,
                             std::uint64_t expected_config_hash) {
  JournalContents out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  const FileCloser closer{f};

  std::size_t file_size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long end = std::ftell(f);
    if (end > 0) file_size = static_cast<std::size_t>(end);
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) return out;

  std::uint8_t header[kHeaderBytes];
  std::size_t pos = std::fread(header, 1, kHeaderBytes, f);
  const bool header_intact =
      pos == kHeaderBytes &&
      std::memcmp(header, kMagic, sizeof(kMagic)) == 0 &&
      get_u32(header + 20) == crc32(header, 20);
  if (!header_intact) {
    out.discarded_bytes = file_size;
    return out;
  }
  out.version = get_u32(header + 8);
  out.config_hash = get_u64(header + 12);
  if (out.version != kJournalVersion) {
    // An unknown version is treated like a corrupt header: nothing usable,
    // but the caller still learns the file was a journal.
    out.discarded_bytes = file_size;
    return out;
  }
  out.header_ok = true;
  if (out.config_hash != expected_config_hash) {
    out.hash_mismatch = true;
    out.discarded_bytes = file_size - kHeaderBytes;
    return out;
  }

  // Record scan: stop at the first truncated or corrupt frame and discard
  // everything from its first byte to EOF -- the torn tail of an
  // interrupted run.
  std::vector<std::uint8_t> frame;
  for (;;) {
    const std::size_t record_start = pos;
    std::uint8_t lenbuf[4];
    const std::size_t got = std::fread(lenbuf, 1, sizeof(lenbuf), f);
    if (got == 0) break;  // clean EOF on a record boundary
    pos += got;
    if (got < sizeof(lenbuf)) {
      out.discarded_bytes = file_size - record_start;
      break;
    }
    const std::uint32_t payload_len = get_u32(lenbuf);
    if (payload_len > kJournalMaxPayload) {
      out.discarded_bytes = file_size - record_start;
      break;
    }
    // frame = key (8) + payload, then the CRC trailer (4).
    const std::size_t body = 8 + static_cast<std::size_t>(payload_len);
    frame.resize(body + 4);
    const std::size_t rd = std::fread(frame.data(), 1, frame.size(), f);
    pos += rd;
    if (rd < frame.size() ||
        get_u32(frame.data() + body) != crc32(frame.data(), body)) {
      out.discarded_bytes = file_size - record_start;
      break;
    }
    JournalRecord rec;
    rec.key = get_u64(frame.data());
    rec.payload.assign(frame.begin() + 8,
                       frame.begin() + static_cast<std::ptrdiff_t>(body));
    out.records.push_back(std::move(rec));
  }
  return out;
}

bool JournalWriter::open(const std::string& path, std::uint64_t config_hash,
                         bool append) {
  const MutexLock lock(m_);
  if (file_ != nullptr) return false;  // already open
  failed_ = false;
  file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file_ == nullptr) {
    ++failures_;
    return false;
  }
  if (!append) {
    const std::vector<std::uint8_t> h = make_header(config_hash);
    const bool ok = std::fwrite(h.data(), 1, h.size(), file_) == h.size() &&
                    std::fflush(file_) == 0;
    if (!ok) {
      ++failures_;
      failed_ = true;
      if (std::fclose(file_) != 0) ++failures_;
      file_ = nullptr;
      return false;
    }
  }
  return true;
}

bool JournalWriter::is_open() const {
  const MutexLock lock(m_);
  return file_ != nullptr && !failed_;
}

bool JournalWriter::append(std::uint64_t key, const std::uint8_t* payload,
                           std::size_t n) {
  if (n > kJournalMaxPayload) return false;
  const MutexLock lock(m_);
  if (file_ == nullptr || failed_) {
    ++failures_;
    return false;
  }
  // Header, payload, and CRC trailer are written as separate stream writes
  // -- copying the payload into one contiguous frame would double the
  // journal's memory traffic for nothing, since a torn record is detected by
  // the loader's CRC regardless of how many writes composed it. The CRC
  // covers key+payload by chaining the ranges.
  std::uint8_t head[12];
  put_u32(head, static_cast<std::uint32_t>(n));
  put_u64(head + 4, key);
  std::uint8_t tail[4];
  put_u32(tail, crc32(payload, n, crc32(head + 4, 8)));
  const bool ok =
      std::fwrite(head, 1, sizeof(head), file_) == sizeof(head) &&
      (n == 0 || std::fwrite(payload, 1, n, file_) == n) &&
      std::fwrite(tail, 1, sizeof(tail), file_) == sizeof(tail) &&
      std::fflush(file_) == 0;
  if (!ok) {
    ++failures_;
    failed_ = true;
    return false;
  }
  return true;
}

bool JournalWriter::flush() {
  const MutexLock lock(m_);
  if (file_ == nullptr || failed_) return false;
  if (std::fflush(file_) != 0) {
    ++failures_;
    failed_ = true;
    return false;
  }
  return true;
}

void JournalWriter::close() {
  const MutexLock lock(m_);
  if (file_ == nullptr) return;
  if (std::fclose(file_) != 0) ++failures_;
  file_ = nullptr;
}

std::size_t JournalWriter::write_failures() const {
  const MutexLock lock(m_);
  return failures_;
}

}  // namespace aero
