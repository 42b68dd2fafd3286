#include "graph/bounds.h"

#include <algorithm>

namespace cvrepair {

RepairCostBounds ComputeBounds(const ConflictHypergraph& g, int degree,
                               const CostModel& cost,
                               CoverHeuristic heuristic,
                               const DomainStats* /*stats*/) {
  RepairCostBounds bounds;
  if (g.num_edges() == 0) return bounds;

  // delta_l needs the factor-f guarantee, so it always uses local ratio.
  VertexCover lr = ApproximateVertexCover(g, CoverHeuristic::kLocalRatio);
  bounds.lower = lr.weight / std::max(degree, 1);

  VertexCover cover = (heuristic == CoverHeuristic::kLocalRatio)
                          ? lr
                          : ApproximateVertexCover(g, heuristic);
  // Assigning every cover cell to fv eliminates all hyperedges, hence a
  // valid repair: delta_u = sum of fresh-variable costs.
  bounds.upper = cost.fresh_cost * static_cast<double>(cover.vertices.size());
  return bounds;
}

RepairCostBounds ComputeBounds(const Relation& I, const ConstraintSet& sigma,
                               const CostModel& cost,
                               CoverHeuristic heuristic) {
  std::vector<Violation> violations = FindViolations(I, sigma);
  ConflictHypergraph g = ConflictHypergraph::Build(I, sigma, violations, cost);
  return ComputeBounds(g, Degree(sigma), cost, heuristic);
}

}  // namespace cvrepair
