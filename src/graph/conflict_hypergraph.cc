#include "graph/conflict_hypergraph.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace cvrepair {

namespace {

uint64_t EdgeHash(const std::vector<int>& edge) {
  uint64_t h = edge.size();
  for (int v : edge) {
    h = (h ^ static_cast<uint32_t>(v)) * 0x9e3779b97f4a7c15ull;
  }
  return h ^ (h >> 29);
}

}  // namespace

template <typename ForEach>
ConflictHypergraph ConflictHypergraph::BuildFrom(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, size_t num_violations, const CostModel& cost,
    const ForEach& for_each) {
  assert(stats_of_I.num_attributes() == I.num_attributes());
  ConflictHypergraph g;
  const size_t m = static_cast<size_t>(I.num_attributes());
  // Vertex id of cell (row, attr) at row * m + attr; -1 = not a vertex yet.
  std::vector<int> vertex_of(static_cast<size_t>(I.num_rows()) * m, -1);
  auto vertex = [&](int row, AttrId a) {
    assert(row >= 0 && row < I.num_rows());
    int& id = vertex_of[static_cast<size_t>(row) * m + a];
    if (id < 0) {
      id = g.num_vertices();
      const Cell cell{row, a};
      // Frequencies and domain sizes exclude NULL and fresh values, so such
      // a cell has frequency 0 and every domain value is an alternative.
      const int own = stats_of_I.Frequency(a, I.Get(cell));
      const int domain =
          static_cast<int>(stats_of_I.attr(a).frequencies.size());
      const bool has_alternative = domain > (own > 0 ? 1 : 0);
      g.cells_.push_back(cell);
      g.weights_.push_back(cost.CellWeight(cell) *
                           cost.MinChangeCost(has_alternative));
      g.freq_.push_back(own);
      g.domain_size_.push_back(domain);
      g.ineq_.push_back(false);
    }
    return id;
  };

  // Open-addressed edge ids (-1 = empty slot) keyed by EdgeHash, at load
  // factor <= 1/2; a hit is confirmed against the stored edge.
  size_t slots = 2;
  while (slots < 2 * num_violations) slots *= 2;
  const size_t mask = slots - 1;
  std::vector<int> edge_at(slots, -1);
  std::vector<uint64_t> edge_hash;
  std::vector<int> edge;
  for_each([&](int constraint_index, const Violation& viol) {
    const DenialConstraint& c = sigma[constraint_index];
    edge.clear();
    for (const Predicate& p : c.predicates()) {
      const int lhs = vertex(viol.rows[p.lhs().tuple], p.lhs().attr);
      edge.push_back(lhs);
      int rhs = -1;
      if (!p.has_constant()) {
        rhs = vertex(viol.rows[p.rhs_cell().tuple], p.rhs_cell().attr);
        edge.push_back(rhs);
      }
      if (p.op() != Op::kEq) {
        g.ineq_[lhs] = true;
        if (rhs >= 0) g.ineq_[rhs] = true;
      }
    }
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
    if (edge.empty()) return;
    const uint64_t h = EdgeHash(edge);
    size_t slot = static_cast<size_t>(h) & mask;
    for (; edge_at[slot] >= 0; slot = (slot + 1) & mask) {
      const int e = edge_at[slot];
      if (edge_hash[e] == h && g.edges_[e] == edge) return;  // seen
    }
    edge_at[slot] = g.num_edges();
    edge_hash.push_back(h);
    g.edges_.push_back(edge);
  });

  std::vector<int> degree(g.cells_.size(), 0);
  for (const std::vector<int>& e : g.edges_) {
    for (int v : e) ++degree[v];
  }
  g.incident_.resize(g.cells_.size());
  for (size_t v = 0; v < g.cells_.size(); ++v) {
    g.incident_[v].reserve(static_cast<size_t>(degree[v]));
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    for (int v : g.edges_[e]) g.incident_[v].push_back(e);
  }
  return g;
}

ConflictHypergraph ConflictHypergraph::Build(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const std::vector<Violation>& violations,
    const CostModel& cost) {
  return BuildFrom(I, stats_of_I, sigma, violations.size(), cost,
                   [&](const auto& visit) {
                     for (const Violation& v : violations) {
                       visit(v.constraint_index, v);
                     }
                   });
}

ConflictHypergraph ConflictHypergraph::Build(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const ViolationsByPosition& violations,
    const CostModel& cost) {
  assert(violations.size() == sigma.size());
  size_t total = 0;
  for (std::span<const Violation> view : violations) total += view.size();
  return BuildFrom(I, stats_of_I, sigma, total, cost, [&](const auto& visit) {
    for (size_t k = 0; k < violations.size(); ++k) {
      for (const Violation& v : violations[k]) {
        visit(static_cast<int>(k), v);
      }
    }
  });
}

int ConflictHypergraph::MaxEdgeSize() const {
  int f = 0;
  for (const auto& e : edges_) f = std::max(f, static_cast<int>(e.size()));
  return f;
}

}  // namespace cvrepair
