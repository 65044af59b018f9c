#pragma once

#include <cstdint>
#include <vector>

#include "hull/subdomain.hpp"
#include "inviscid/decouple.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/bytes.hpp"

namespace aero {

/// One schedulable unit of meshing work. Mirrors the paper's subdomain work
/// units: boundary-layer subdomains still being decomposed, and decoupled
/// inviscid subdomains awaiting refinement. Both decomposition and meshing
/// happen inside the pool, so splits spawn new units dynamically.
struct WorkUnit {
  enum class Kind : std::uint8_t {
    kBlDecompose,      ///< boundary-layer subdomain (split or triangulate)
    kInviscidDecouple, ///< inviscid subdomain (split or refine)
  };
  Kind kind = Kind::kBlDecompose;
  Subdomain bl;
  InviscidSubdomain inv;

  /// Pool-wide unique identity, assigned at creation. Targets injected unit
  /// faults and names the unit in diagnostics; transfers themselves are
  /// acknowledged and deduplicated by a per-dispatch nonce (see pool.cpp),
  /// never by this id, so a unit may revisit a rank it has been on before.
  std::uint64_t id = 0;
  /// Bitmask of ranks on which processing this unit already failed; a
  /// fault re-queue excludes them when picking the next host.
  std::uint64_t failed_ranks = 0;

  /// Estimated triangles produced (the load-balancing cost of the paper:
  /// boundary-layer units carry their point payload and sort first).
  double cost(const GradedSizing& sizing) const {
    return kind == Kind::kBlDecompose ? bl.cost()
                                      : inv.estimated_triangles(sizing);
  }
};

/// The split/mesh rules of the decomposition tree, shared by the pool and
/// the cluster model's measured task graph. One call either splits `unit`,
/// appending its child units to `children`, or meshes it, appending its
/// inside triangles to `triangles`:
///   - a boundary-layer unit splits until `bl_decompose` calls it
///     sufficiently decomposed (or a split fails to shrink it), then its
///     leaf is triangulated by the divide-and-conquer kernel;
///   - an inviscid unit '+'-splits until it holds body holes, reaches
///     `inviscid_max_level`, or is estimated at no more than
///     `inviscid_target_triangles` under `sizing`, then it is refined with
///     `refine_threads` threads on the refiner's initial scan.
/// Pure with respect to `unit`, so a throwing attempt can be retried from the
/// unchanged input. Boundary-layer units never read `sizing`.
void expand_unit(const WorkUnit& unit, const GradedSizing& sizing,
                 const DecomposeOptions& bl_decompose,
                 double inviscid_target_triangles, int inviscid_max_level,
                 int refine_threads, std::vector<WorkUnit>& children,
                 std::vector<std::array<Vec2, 3>>& triangles);

/// Exact size in bytes of serialize(unit) including the CRC trailer (and of
/// serialize_triangles for a soup of `ntris`). Lets the transport size a
/// pooled buffer before serializing, so the hot path writes once into a
/// right-sized buffer and never reallocates.
std::size_t serialized_size(const WorkUnit& unit);
std::size_t serialized_triangles_size(std::size_t ntris);

/// Serialize a work unit for transfer to another rank. Finalized
/// boundary-layer subdomains ship only their x-sorted vertices (the paper's
/// communication optimization); unfinalized ones also ship the y-sorted
/// copy. Projected coordinates are never shipped -- they depend on the next
/// median vertex and are recomputed after transfer. The payload ends with a
/// CRC-32 trailer; `deserialize_work` throws `std::runtime_error` on a
/// truncated or corrupted payload. `pool` (optional) recycles the output
/// buffer.
std::vector<std::uint8_t> serialize(const WorkUnit& unit,
                                    BufferPool* pool = nullptr);
WorkUnit deserialize_work(const std::uint8_t* data, std::size_t n);
WorkUnit deserialize_work(const std::vector<std::uint8_t>& bytes);
WorkUnit deserialize_work(const ByteBuf& bytes);

/// Serialize a triangle soup (coordinate triples) for the result gather.
/// Same CRC-32 trailer / pool contract as work-unit payloads.
std::vector<std::uint8_t> serialize_triangles(
    const std::vector<std::array<Vec2, 3>>& tris, BufferPool* pool = nullptr);
std::vector<std::array<Vec2, 3>> deserialize_triangles(
    const std::uint8_t* data, std::size_t n);
std::vector<std::array<Vec2, 3>> deserialize_triangles(
    const std::vector<std::uint8_t>& bytes);

}  // namespace aero
