#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/mesh_view.hpp"
#include "hull/subdomain.hpp"
#include "inviscid/decouple.hpp"

namespace aero {

/// One node of the subdomain tree, and the pool's schedulable unit of work.
/// Mirrors the paper's subdomain work units: boundary-layer subdomains still
/// being decomposed, and decoupled inviscid subdomains awaiting refinement.
/// Splits spawn new units dynamically.
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

/// The parameters of the tree's split rules and leaf meshing.
struct TreeRules {
  DecomposeOptions bl_decompose;
  double inviscid_target_triangles = 40000.0;
  int inviscid_max_level = 10;
  int refine_threads = 1;  ///< refiner scan threads; output-invariant
};

/// The one split/mesh step of the subdomain tree, shared by every walker:
/// the inline walker below, the pool, and the cluster model's timing walker.
/// Either appends the children of `unit` to `children` (decompose_step or
/// decouple_step), or meshes the leaf into `piece`: a boundary-layer leaf's
/// owned triangles from the divide-and-conquer kernel, an inviscid leaf's
/// inside triangles from refine_subdomain. Boundary-layer units never read
/// `sizing`. A caller that kept a copy of `unit` can retry a throwing call.
void expand_unit(WorkUnit unit, const GradedSizing& sizing,
                 const TreeRules& rules, std::vector<WorkUnit>& children,
                 MeshView& piece);

/// The inline walker: expand `roots` and every unit they spawn depth-first on
/// the calling thread, appending each leaf's piece to `out` as soon as it is
/// meshed. The stack is seeded with the roots in reverse and children are
/// pushed in order, so the leaves merge in the order decompose and
/// decouple_recursive return them for each root in turn; the sequential
/// mesh's bytes depend on that order. Returns the number of leaves.
std::size_t walk_inline(std::vector<WorkUnit> roots,
                        const GradedSizing& sizing, const TreeRules& rules,
                        MergedMesh& out);

}  // namespace aero
