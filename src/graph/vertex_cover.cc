#include "graph/vertex_cover.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>

#include "graph/decompose.h"

namespace cvrepair {

std::vector<Cell> VertexCover::Cells(const ConflictHypergraph& g) const {
  std::vector<Cell> cells;
  cells.reserve(vertices.size());
  for (int v : vertices) cells.push_back(g.cell(v));
  return cells;
}

namespace {

// Drops cover vertices that are redundant (every incident edge has another
// cover vertex), most expensive first, and recomputes the weight.
void Minimalize(const ConflictHypergraph& g, std::vector<bool>* in_cover) {
  // edge_cover_count[e] = number of cover vertices in edge e.
  std::vector<int> edge_cover_count(g.num_edges(), 0);
  for (int e = 0; e < g.num_edges(); ++e) {
    for (int v : g.edge(e)) {
      if ((*in_cover)[v]) ++edge_cover_count[e];
    }
  }
  std::vector<int> members;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if ((*in_cover)[v]) members.push_back(v);
  }
  // Drop the least suspicious members first (frequent values, wide
  // domains), so that rare — likely dirty — cells stay in the cover.
  std::sort(members.begin(), members.end(), [&](int a, int b) {
    bool ia = g.on_inequality_predicate(a);
    bool ib = g.on_inequality_predicate(b);
    if (ia != ib) return ib;  // equality-side cells dropped first
    if (g.weight(a) != g.weight(b)) return g.weight(a) > g.weight(b);
    if (g.value_frequency(a) != g.value_frequency(b)) {
      return g.value_frequency(a) > g.value_frequency(b);
    }
    if (g.domain_size(a) != g.domain_size(b)) {
      return g.domain_size(a) > g.domain_size(b);
    }
    // Final tie on the cell's (row, attr) order, not the vertex id: vertex
    // ids depend on violation discovery order, cells do not.
    return g.cell(b) < g.cell(a);
  });
  for (int v : members) {
    bool removable = true;
    for (int e : g.incident_edges(v)) {
      if (edge_cover_count[e] <= 1) {
        removable = false;
        break;
      }
    }
    if (removable) {
      (*in_cover)[v] = false;
      for (int e : g.incident_edges(v)) --edge_cover_count[e];
    }
  }
}

VertexCover Collect(const ConflictHypergraph& g,
                    const std::vector<bool>& in_cover) {
  VertexCover cover;
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (in_cover[v]) {
      cover.vertices.push_back(v);
      cover.weight += g.weight(v);
    }
  }
  return cover;
}

VertexCover LocalRatioCover(const ConflictHypergraph& g) {
  std::vector<double> residual(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) residual[v] = g.weight(v);
  std::vector<bool> in_cover(g.num_vertices(), false);
  for (int e = 0; e < g.num_edges(); ++e) {
    const std::vector<int>& edge = g.edge(e);
    bool covered = false;
    for (int v : edge) {
      if (in_cover[v]) {
        covered = true;
        break;
      }
    }
    if (covered) continue;
    double eps = residual[edge[0]];
    for (int v : edge) eps = std::min(eps, residual[v]);
    for (int v : edge) {
      residual[v] -= eps;
      if (residual[v] <= 1e-12) in_cover[v] = true;
    }
  }
  Minimalize(g, &in_cover);
  return Collect(g, in_cover);
}

// Greedy max-coverage-per-weight cover. With `bias` (one multiplier per
// vertex, from the entropy/density scores of graph/decompose.h) the score
// is tilted toward dense, low-entropy conflict cores — the kEntropyDensity
// seed ordering; nullptr gives the classic kGreedyDegree behavior.
VertexCover GreedyDegreeCover(const ConflictHypergraph& g,
                              const std::vector<double>* bias) {
  std::vector<bool> edge_covered(g.num_edges(), false);
  std::vector<int> uncovered_degree(g.num_vertices(), 0);
  // Equality-side (group-key) cells are corroborated by every agreeing
  // partner in their group: breaking the group by changing the key is a
  // legal minimum repair but almost never the intended one, so their
  // score is discounted. Inequality-side cells keep full score.
  constexpr double kEqualitySidePenalty = 8.0;
  auto score_of = [&](int v) {
    double w = std::max(g.weight(v), 1e-9);
    if (!g.on_inequality_predicate(v)) w *= kEqualitySidePenalty;
    double s = uncovered_degree[v] / w;
    if (bias) s *= (*bias)[v];
    return s;
  };
  // Equal-score ties break toward the most suspicious cell: inequality
  // side first, then rare value, then denser (smaller) domain — packed into
  // one key per vertex, smaller first — then the smaller (row, attr), the
  // value-frequency heuristic of Holistic [8]. Cells are unique, so this
  // order is strict and total: the pick is a pure function of the cells
  // involved, and vertex ids (violation discovery order) never decide.
  std::vector<uint64_t> suspicion(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    suspicion[v] = (uint64_t{!g.on_inequality_predicate(v)} << 62) |
                   (static_cast<uint64_t>(g.value_frequency(v)) << 31) |
                   static_cast<uint64_t>(g.domain_size(v));
  }
  auto preferred = [&](int a, int b) {
    if (suspicion[a] != suspicion[b]) return suspicion[a] < suspicion[b];
    return g.cell(a) < g.cell(b);
  };
  // Lazy max-heap of (score, vertex), the preferred vertex on top among
  // equal scores: stale entries revalidated on pop.
  using Entry = std::pair<double, int>;
  auto below = [&](const Entry& x, const Entry& y) {
    if (x.first != y.first) return x.first < y.first;
    return preferred(y.second, x.second);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(below)> heap(below);
  for (int v = 0; v < g.num_vertices(); ++v) {
    uncovered_degree[v] = static_cast<int>(g.incident_edges(v).size());
    heap.push({score_of(v), v});
  }
  int remaining = g.num_edges();
  std::vector<bool> in_cover(g.num_vertices(), false);
  while (remaining > 0 && !heap.empty()) {
    const auto [score, v] = heap.top();
    heap.pop();
    if (in_cover[v] || uncovered_degree[v] == 0) continue;
    if (score > score_of(v) + 1e-12) {
      heap.push({score_of(v), v});  // stale: reinsert with fresh score
      continue;
    }
    in_cover[v] = true;
    for (int e : g.incident_edges(v)) {
      if (edge_covered[e]) continue;
      edge_covered[e] = true;
      --remaining;
      for (int u : g.edge(e)) --uncovered_degree[u];
    }
  }
  Minimalize(g, &in_cover);
  return Collect(g, in_cover);
}

}  // namespace

VertexCover ApproximateVertexCover(const ConflictHypergraph& g,
                                   CoverHeuristic heuristic,
                                   const DomainStats* stats) {
  switch (heuristic) {
    case CoverHeuristic::kLocalRatio:
      return LocalRatioCover(g);
    case CoverHeuristic::kGreedyDegree:
      return GreedyDegreeCover(g, nullptr);
    case CoverHeuristic::kEntropyDensity: {
      VertexScores scores = ComputeVertexScores(g, stats);
      std::vector<double> bias(g.num_vertices());
      for (int v = 0; v < g.num_vertices(); ++v) {
        bias[v] = 1.0 + scores.density[v] + (1.0 - scores.entropy[v]);
      }
      return GreedyDegreeCover(g, &bias);
    }
  }
  return LocalRatioCover(g);
}

}  // namespace cvrepair
