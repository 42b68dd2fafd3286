#ifndef CVREPAIR_GRAPH_BOUNDS_H_
#define CVREPAIR_GRAPH_BOUNDS_H_

#include "dc/violation.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "repair/costs.h"

namespace cvrepair {

/// Lower and upper bounds on the minimum data-repair cost of an instance
/// w.r.t. one constraint set (Section 3.2.2).
struct RepairCostBounds {
  double lower = 0.0;  ///< delta_l = ||V(G)|| / Deg(Sigma)
  double upper = 0.0;  ///< delta_u = sum over cover of dist(., fv)
};

/// Computes delta_l / delta_u from an already-built conflict hypergraph.
/// `degree` is Deg(Sigma); the lower bound uses the cover produced by the
/// kLocalRatio heuristic (the one carrying the factor-f guarantee of
/// Lemma 3) while the upper bound prices the cover `heuristic` picks.
/// `stats` is ignored; it is kept for the benchmark's staged replica
/// (perfbench/) and goes with the next benchmark change.
RepairCostBounds ComputeBounds(
    const ConflictHypergraph& g, int degree, const CostModel& cost = {},
    CoverHeuristic heuristic = CoverHeuristic::kGreedyDegree,
    const DomainStats* stats = nullptr);

/// Convenience overload: detects violations, builds the hypergraph, and
/// computes the bounds for (I, sigma).
RepairCostBounds ComputeBounds(
    const Relation& I, const ConstraintSet& sigma, const CostModel& cost = {},
    CoverHeuristic heuristic = CoverHeuristic::kGreedyDegree);

}  // namespace cvrepair

#endif  // CVREPAIR_GRAPH_BOUNDS_H_
