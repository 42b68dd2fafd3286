#ifndef CVREPAIR_GRAPH_VERTEX_COVER_H_
#define CVREPAIR_GRAPH_VERTEX_COVER_H_

#include <vector>

#include "graph/conflict_hypergraph.h"
#include "relation/domain_stats.h"
#include "relation/relation.h"

namespace cvrepair {

/// Heuristic used to approximate the minimum weighted vertex cover V(G).
enum class CoverHeuristic {
  /// Local-ratio / primal-dual: for each uncovered edge, lower every
  /// incident vertex's residual weight by the edge minimum and take
  /// zero-residual vertices. Guarantees ||V|| <= f * ||V*|| with f the
  /// maximum edge size — the factor required by the lower bound delta_l
  /// (Section 3.2.2, [20]).
  kLocalRatio,
  /// Classic greedy: repeatedly pick the vertex covering the most
  /// still-uncovered edges per unit weight. No factor-f guarantee, but
  /// selects high-conflict cells first, which is the cell-selection
  /// heuristic of Holistic [8].
  kGreedyDegree,
};

/// An approximate minimum weighted vertex cover with its total weight.
struct VertexCover {
  std::vector<int> vertices;  ///< vertex ids into the hypergraph
  double weight = 0.0;

  /// Cover cells resolved against the hypergraph.
  std::vector<Cell> Cells(const ConflictHypergraph& g) const;
};

/// Approximates the minimum weighted vertex cover of `g`. The returned
/// cover is always minimal-ized: vertices whose removal keeps all edges
/// covered are dropped (in descending weight order). All heuristics break
/// score ties on the cell's (row, attr) order, so the cover is a pure
/// function of the hypergraph — stable run-to-run and across thread
/// counts. `stats` is ignored; it is kept for the benchmark's staged
/// replica (perfbench/) and goes with the next benchmark change.
VertexCover ApproximateVertexCover(
    const ConflictHypergraph& g,
    CoverHeuristic heuristic = CoverHeuristic::kGreedyDegree,
    const DomainStats* stats = nullptr);

}  // namespace cvrepair

#endif  // CVREPAIR_GRAPH_VERTEX_COVER_H_
