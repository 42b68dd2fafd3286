#ifndef CVREPAIR_GRAPH_CONFLICT_HYPERGRAPH_H_
#define CVREPAIR_GRAPH_CONFLICT_HYPERGRAPH_H_

#include <vector>

#include "dc/violation.h"
#include "relation/domain_stats.h"
#include "relation/relation.h"
#include "repair/costs.h"

namespace cvrepair {

/// The conflict hypergraph G of Section 3.2.1: one vertex per cell that
/// appears in some violation, one hyperedge per violation (the set
/// cell(t_i, t_j, ...; φ)). Structurally identical hyperedges (e.g., the
/// two orientations of a symmetric FD violation) are deduplicated.
class ConflictHypergraph {
 public:
  /// Builds the hypergraph from violations of `sigma` over `I`. Vertex
  /// weights are min_{a in dom(A)} dist(I(t.A), a) (Section 3.2.2) under
  /// `cost`; an attribute with fewer than two domain values has no
  /// in-domain alternative, so its weight is the fresh-variable cost.
  /// Value frequencies and domain sizes come from `stats_of_I`, which must
  /// be the DomainStats of `I`.
  ///
  /// Vertices are numbered in first-seen order over the (violation,
  /// predicate, lhs-then-rhs cell) sequence and edges keep the order of
  /// their first violation, so the heuristics that depend on edge order
  /// (local ratio) or vertex ids see one graph per violation list. Vertex
  /// ids live in a dense row × num_attributes array and edges are
  /// deduplicated through a hash table of edge ids, so the build allocates
  /// per vertex and per distinct edge, not per violation or predicate
  /// (DESIGN.md §7).
  static ConflictHypergraph Build(const Relation& I,
                                  const DomainStats& stats_of_I,
                                  const ConstraintSet& sigma,
                                  const std::vector<Violation>& violations,
                                  const CostModel& cost = {});

  /// Build over one view per position of `sigma`, read in position order:
  /// the same graph as Build over the concatenated views, each violation
  /// stamped with its position, without that copy.
  static ConflictHypergraph Build(const Relation& I,
                                  const DomainStats& stats_of_I,
                                  const ConstraintSet& sigma,
                                  const ViolationsByPosition& violations,
                                  const CostModel& cost = {});

  /// Build with the DomainStats of `I` computed here.
  static ConflictHypergraph Build(const Relation& I,
                                  const ConstraintSet& sigma,
                                  const std::vector<Violation>& violations,
                                  const CostModel& cost = {}) {
    return Build(I, DomainStats(I), sigma, violations, cost);
  }

  int num_vertices() const { return static_cast<int>(cells_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Cell& cell(int v) const { return cells_[v]; }
  double weight(int v) const { return weights_[v]; }
  /// Occurrences of the cell's current value within its attribute — rare
  /// values are more suspicious and make better repair targets.
  int value_frequency(int v) const { return freq_[v]; }
  /// Distinct active-domain values of the cell's attribute.
  int domain_size(int v) const { return domain_size_[v]; }
  /// True when some violation reaches this cell through a non-equality
  /// predicate (the "consequent" side of FDs, the compared sides of order
  /// DCs). Such cells are preferred repair targets: changing them can
  /// merge conflicting values, while changing equality-side cells only
  /// splits groups and degenerates to fresh variables.
  bool on_inequality_predicate(int v) const { return ineq_[v]; }
  /// Vertex ids of one hyperedge, sorted ascending.
  const std::vector<int>& edge(int e) const { return edges_[e]; }
  /// Edge ids incident to vertex v.
  const std::vector<int>& incident_edges(int v) const { return incident_[v]; }

  /// Max number of vertices in any edge (the approximation factor f).
  int MaxEdgeSize() const;

 private:
  // The body of both Build overloads: `for_each(visit)` calls
  // visit(constraint_index, violation) on each of `num_violations`
  // violations, in order.
  template <typename ForEach>
  static ConflictHypergraph BuildFrom(const Relation& I,
                                      const DomainStats& stats_of_I,
                                      const ConstraintSet& sigma,
                                      size_t num_violations,
                                      const CostModel& cost,
                                      const ForEach& for_each);

  std::vector<Cell> cells_;
  std::vector<double> weights_;
  std::vector<int> freq_;
  std::vector<int> domain_size_;
  std::vector<bool> ineq_;
  std::vector<std::vector<int>> edges_;
  std::vector<std::vector<int>> incident_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_GRAPH_CONFLICT_HYPERGRAPH_H_
