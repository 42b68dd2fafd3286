#ifndef CVREPAIR_GRAPH_DECOMPOSE_H_
#define CVREPAIR_GRAPH_DECOMPOSE_H_

// Topology-aware decomposition of giant conflict components (DESIGN.md
// §12). On dense error patterns the conflict hypergraph collapses into one
// huge component and the repair round into one oversized CSP solve. This
// layer sits between component decomposition and component solving:
// SplitComponent cuts an oversized component at low-density articulation
// vertices into independently solvable parts plus the boundary atoms that
// straddle them.
// The solver stitches the parts back together (repair/vfree.cc): parts are
// solved independently, boundary-straddling atoms re-verified on the
// combined assignment, and still-conflicting regions merged and re-solved.

#include <vector>

#include "solver/components.h"

namespace cvrepair {

/// Knobs for SplitComponent.
struct DecomposeOptions {
  /// Components with more cells than this are candidates for splitting.
  int max_component = 24;
};

/// The outcome of splitting one component. Parts follow the Component
/// contract (cells sorted ascending, atoms over part-local var ids, sorted
/// and deduplicated), so they hash and cache exactly like components that
/// came straight out of DecomposeComponents. `cross_atoms` keep the
/// *input* component's local var ids: they are the boundary-straddling
/// constraints the stitching check re-verifies on the combined assignment.
struct SplitPlan {
  std::vector<Component> parts;
  /// Binary atoms whose endpoints landed in different parts, over the
  /// input component's var ids.
  std::vector<RcAtom> cross_atoms;
  /// Input var id -> index into `parts`.
  std::vector<int> part_of;
  /// Input var id -> local var id within its part.
  std::vector<int> local_of;
  /// The removed low-density cut vertices (input var ids), in removal
  /// order. Each is re-attached to the part of its smallest non-boundary
  /// neighbor (or the smallest part among its neighbors).
  std::vector<int> boundary;

  bool split() const { return parts.size() > 1; }
};

/// Splits `comp` at low-density articulation vertices until every part has
/// at most `opts.max_component` cells or no eligible cut vertex remains.
/// Deterministic in `comp`: candidates are articulation points of the
/// variable graph with remaining degree at most 8, removed in
/// ascending (degree, var id) order. A component already within the size
/// budget — or one with no sparse separator, e.g. a clique — comes back as
/// a single part identical to the input.
SplitPlan SplitComponent(const Component& comp, const DecomposeOptions& opts);

/// Rebuilds one Component from a subset of `comp`'s variables: cells of
/// `vars` (which must be sorted ascending) plus every atom of `comp` whose
/// variables all lie in the subset, re-indexed to subset-local ids. Used
/// by SplitComponent for the parts and by the stitching fallback for the
/// merged still-conflicting region.
Component RestrictComponent(const Component& comp,
                            const std::vector<int>& vars);

}  // namespace cvrepair

#endif  // CVREPAIR_GRAPH_DECOMPOSE_H_
