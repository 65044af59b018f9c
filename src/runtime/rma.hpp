#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "obs/annotations.hpp"

namespace aero {

// ---------------------------------------------------------------------------
// Transfer frames.
//
// Every work-unit transfer, fault re-queue and result gather is framed under
// a fresh per-dispatch nonce; acks and receiver-side deduplication key on the
// nonce, NOT the unit id (retransmissions and fabric-duplicated copies of one
// dispatch share its nonce and are dropped, while a unit that legitimately
// returns to a rank it visited before arrives under a fresh nonce and is
// accepted). The payload itself sits in the sender's PayloadWindow and moves
// to the receiver by ownership handoff (the in-process equivalent of MPI_Get
// against a registered window); the mailbox carries only a 37-byte control
// frame, protected by a header CRC so a corrupted nonce or slot cannot
// masquerade as a different dispatch:
//
//   [kind=1][nonce:8][src:4][slot:4][len:8][digest:8][hcrc:4]
//
// The digest is a sampled fingerprint of the published bytes -- the window is
// outside the fault injector's reach, but a handoff that pairs a control
// frame with the wrong slot contents must still be detected.
// ---------------------------------------------------------------------------

constexpr std::size_t kWindowFrameSize = 37;

/// Decoded control frame: where to take the payload from, and what it
/// should be.
struct ParsedFrame {
  std::uint64_t nonce = 0;
  int src = -1;
  std::uint32_t slot = 0;
  std::uint64_t length = 0;
  std::uint64_t digest = 0;
};

/// Build the 37-byte control frame for a window transfer.
std::vector<std::uint8_t> make_window_frame(std::uint64_t nonce, int src,
                                            std::uint32_t slot,
                                            std::uint64_t length,
                                            std::uint64_t digest);

/// Validate and decode a control frame; nullopt on truncation or header
/// corruption (the sender retransmits an intact copy).
std::optional<ParsedFrame> parse_frame(
    const std::vector<std::uint8_t>& payload);

/// Work acknowledgements carry the transfer nonce plus a CRC so a corrupted
/// ack cannot erase the wrong in-flight entry (nonces are small integers; a
/// single flipped byte could otherwise alias another pending transfer).
std::vector<std::uint8_t> make_ack(std::uint64_t nonce);
std::optional<std::uint64_t> parse_ack(const std::vector<std::uint8_t>& b);

/// Sampled fingerprint of a published payload: length plus ~16 evenly spaced
/// bytes folded through splitmix64. Cheap enough for every handoff; strong
/// enough that a frame paired with the wrong or stale slot contents fails.
std::uint64_t payload_digest(const std::uint8_t* data, std::size_t n);

/// Per-rank registered payload window: the zero-copy half of a transfer.
/// The donor publishes the serialized payload under the dispatch nonce and
/// sends only a control frame; the receiver takes the bytes by ownership
/// handoff. Slots are single-take -- a duplicate control frame (fabric
/// duplicate or retransmission racing the ack) finds the slot already
/// consumed and is answered from the nonce dedupe, never by a second read.
///
/// Lifecycle of a slot:
///   publish -> take      (receiver consumed it; donor's release is a no-op)
///   publish -> release   (ack arrived first; untaken bytes are freed)
///   publish -> reclaim   (dest died: bytes return to the donor if the dest
///                         never took them, nullopt if it did -- then the
///                         watchdog's queue reclamation owns recovery)
class PayloadWindow {
 public:
  /// Register `bytes` under `nonce`; returns the slot for the control frame.
  std::uint32_t publish(std::uint64_t nonce, std::vector<std::uint8_t> bytes);

  /// Ownership handoff: move the bytes out if `slot` is live, was published
  /// under `nonce`, and holds `length` bytes with the sampled `digest`.
  /// Exactly-once -- a second take of the same slot returns nullopt, as does
  /// a nonce mismatch (stale or forged frame). Length and digest are checked
  /// BEFORE consuming, so a frame that survived the header CRC with a
  /// damaged body cannot destroy the published payload (the slot stays live
  /// for the retransmission).
  std::optional<std::vector<std::uint8_t>> take(std::uint32_t slot,
                                                std::uint64_t nonce,
                                                std::uint64_t length,
                                                std::uint64_t digest);

  /// Donor-side disposal after the ack: drop the slot and free any untaken
  /// bytes. Idempotent.
  void release(std::uint32_t slot, std::uint64_t nonce);

  /// Donor-side recovery when the destination is declared dead: the bytes
  /// come back if the dest never took them; nullopt means the dest accepted
  /// the payload before dying.
  std::optional<std::vector<std::uint8_t>> reclaim(std::uint32_t slot,
                                                   std::uint64_t nonce);

  std::size_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  std::size_t taken() const { return taken_.load(std::memory_order_relaxed); }
  std::size_t live() const;

 private:
  struct Slot {
    std::uint64_t nonce = 0;
    std::vector<std::uint8_t> bytes;
    bool taken = false;
  };

  mutable Mutex m_ AERO_LOCK_NAME("rt.payload_window", 65);
  std::map<std::uint32_t, Slot> slots_ AERO_GUARDED_BY(m_);
  std::uint32_t next_slot_ AERO_GUARDED_BY(m_) = 1;
  std::atomic<std::size_t> published_ AERO_ATOMIC_ROLE(counter){0};
  std::atomic<std::size_t> taken_ AERO_ATOMIC_ROLE(counter){0};
};

}  // namespace aero
