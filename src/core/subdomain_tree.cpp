#include "core/subdomain_tree.hpp"

#include <iterator>
#include <utility>

namespace aero {

void expand_unit(WorkUnit unit, const GradedSizing& sizing,
                 const TreeRules& rules, std::vector<WorkUnit>& children,
                 MeshView& piece) {
  if (unit.kind == WorkUnit::Kind::kBlDecompose) {
    Subdomain& s = unit.bl;
    std::vector<Subdomain> kids = decompose_step(s, rules.bl_decompose);
    if (kids.empty()) {
      piece = make_piece(s.size(), owned_triangles_dc(s),
                         [&s](std::uint32_t i) { return s.xsorted[i]; });
    }
    for (Subdomain& k : kids) {
      children.push_back(
          WorkUnit{WorkUnit::Kind::kBlDecompose, std::move(k), {}});
    }
    return;
  }
  std::vector<InviscidSubdomain> kids =
      decouple_step(unit.inv, sizing, rules.inviscid_target_triangles,
                    rules.inviscid_max_level);
  if (kids.empty()) {
    piece = make_piece(
        refine_subdomain(unit.inv, sizing, rules.refine_threads).mesh);
  }
  for (InviscidSubdomain& k : kids) {
    children.push_back(
        WorkUnit{WorkUnit::Kind::kInviscidDecouple, {}, std::move(k)});
  }
}

std::size_t walk_inline(std::vector<WorkUnit> roots,
                        const GradedSizing& sizing, const TreeRules& rules,
                        MergedMesh& out) {
  std::vector<WorkUnit> stack(std::make_move_iterator(roots.rbegin()),
                              std::make_move_iterator(roots.rend()));
  std::size_t leaves = 0;
  while (!stack.empty()) {
    WorkUnit unit = std::move(stack.back());
    stack.pop_back();
    std::vector<WorkUnit> children;
    MeshView piece;
    expand_unit(std::move(unit), sizing, rules, children, piece);
    if (children.empty()) {
      out.append(piece);
      ++leaves;
    }
    for (WorkUnit& c : children) stack.push_back(std::move(c));
  }
  return leaves;
}

}  // namespace aero
