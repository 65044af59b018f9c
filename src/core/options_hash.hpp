#pragma once

#include <cstddef>
#include <cstdint>

#include "core/options.hpp"

namespace aero {

/// Seed/prime of the 64-bit FNV-1a hash shared by the checkpoint keys and
/// the service result cache. FNV-1a is deliberately boring: byte-serial,
/// endian-stable within one ABI, and with no process-local state (unlike
/// std::hash), so a key computed today equals the same key computed by a
/// fresh process tomorrow -- which is what lets a journal written by a dead
/// run be trusted by its successor, and a cache key be compared across
/// daemon restarts.
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ull;

/// FNV-1a over a byte range, chainable through `seed` like core/crc32.
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t seed = kFnv1aOffset);

/// Canonical hash over the mesh-defining options and the input geometry:
/// everything that changes the triangles, nothing that doesn't. Runtime
/// knobs (ranks, transport, faults, tracing, budgets, paths, hooks) are
/// excluded on purpose -- the pool produces rank-count-independent meshes,
/// so a journal written by an 8-rank run legitimately resumes a 2-rank run,
/// and a cached mesh produced sequentially legitimately answers a 4-rank
/// request. This is THE one list of mesh-defining fields: the checkpoint
/// journal header and the service result cache both key off it, so a new
/// Options knob that changes the triangles must be added here (and only
/// here) to invalidate both.
///
/// The hash covers option *values*, not serialization layout: format
/// changes to the stored bytes are versioned separately by the "AMSH" mesh
/// blob tag (core/mesh_view.hpp) and the journal version (io/journal.hpp),
/// so a layout bump rejects stale bytes even when the config hash still
/// matches.
std::uint64_t mesh_config_hash(const Options& opts);

}  // namespace aero
