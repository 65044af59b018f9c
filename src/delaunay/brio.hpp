#pragma once

// Biased Randomized Insertion Order (BRIO) with Hilbert-curve locality.
//
// Amenta, Choi & Rote ("Incremental constructions con BRIO", SoCG 2003):
// assign every point to a round by repeated fair coin flips (about half the
// points land in the last round, a quarter in the one before, ...), insert
// the rounds smallest-first, and order the points *within* each round along
// a space-filling curve. The coin flips preserve the randomized-incremental
// expected-work bounds; the curve order keeps consecutive insertions
// spatially adjacent, so the walk-from-previous-triangle point location in
// DelaunayMesh::locate() stays O(1) steps per insert.
//
// Everything here is deterministic: the "coin" is a splitmix64 hash of the
// point's position in the input array, so a given input always produces the
// same order (meshes must be bit-reproducible across runs).

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"

namespace aero {

/// splitmix64: the deterministic per-index "coin" hash of the BRIO round
/// assignment. Stateless, so every point gets the same value for the same
/// index regardless of call order.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Distance along the Hilbert curve of order `order` (a 2^order x 2^order
/// grid) for cell (x, y). Exposed for tests; coordinates must be < 2^order.
std::uint64_t hilbert_d(std::uint32_t x, std::uint32_t y, int order);

/// The BRIO insertion permutation for `pts`: a vector of indices into `pts`
/// such that inserting in that order is both randomized (per-point coin into
/// geometric rounds) and spatially local (Hilbert sort within each round).
/// Deterministic for a given input. Duplicate points are kept (the mesher
/// merges them on insertion).
std::vector<std::uint32_t> brio_order(const std::vector<Vec2>& pts);

}  // namespace aero
