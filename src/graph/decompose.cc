#include "graph/decompose.h"

#include <algorithm>
#include <cstddef>

namespace cvrepair {

namespace {

// A cut vertex is only removed while its degree in the remaining variable
// graph is at most this — the "low-density" criterion. Dense hubs
// (clique-like regions) are never cut, so a clique component never splits
// no matter how large it is.
constexpr int kMaxCutDegree = 8;

}  // namespace

Component RestrictComponent(const Component& comp,
                            const std::vector<int>& vars) {
  Component out;
  std::vector<int> local(comp.cells.size(), -1);
  out.cells.reserve(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    local[vars[i]] = static_cast<int>(i);
    out.cells.push_back(comp.cells[vars[i]]);
  }
  for (const RcAtom& a : comp.atoms) {
    if (local[a.lhs_var] < 0) continue;
    if (a.rhs_is_var && local[a.rhs_var] < 0) continue;
    RcAtom la = a;
    la.lhs_var = local[a.lhs_var];
    if (a.rhs_is_var) la.rhs_var = local[a.rhs_var];
    out.atoms.push_back(std::move(la));
  }
  std::sort(out.atoms.begin(), out.atoms.end());
  out.atoms.erase(std::unique(out.atoms.begin(), out.atoms.end()),
                  out.atoms.end());
  return out;
}

namespace {

// Articulation points of the subgraph induced by !removed, via an
// iterative Tarjan DFS (giant components would overflow a recursive one).
std::vector<bool> ArticulationPoints(const std::vector<std::vector<int>>& adj,
                                     const std::vector<bool>& removed) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> disc(n, -1), low(n, 0), parent(n, -1), children(n, 0);
  std::vector<bool> art(n, false);
  int timer = 0;
  struct Frame {
    int v;
    size_t ei;
  };
  std::vector<Frame> stack;
  for (int root = 0; root < n; ++root) {
    if (removed[root] || disc[root] >= 0) continue;
    disc[root] = low[root] = timer++;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const int v = f.v;
      if (f.ei < adj[v].size()) {
        const int u = adj[v][f.ei++];
        if (removed[u]) continue;
        if (disc[u] < 0) {
          parent[u] = v;
          ++children[v];
          disc[u] = low[u] = timer++;
          stack.push_back({u, 0});
        } else if (u != parent[v]) {
          low[v] = std::min(low[v], disc[u]);
        }
      } else {
        stack.pop_back();
        if (!stack.empty()) {
          const int p = stack.back().v;
          low[p] = std::min(low[p], low[v]);
          if (parent[p] != -1 && low[v] >= disc[p]) art[p] = true;
        }
      }
    }
    art[root] = children[root] >= 2;
  }
  return art;
}

// Connected-component labels over !removed, numbered by smallest member.
// Returns the number of components; sizes[k] = size of component k.
int LabelComponents(const std::vector<std::vector<int>>& adj,
                    const std::vector<bool>& removed, std::vector<int>* label,
                    std::vector<int>* sizes) {
  const int n = static_cast<int>(adj.size());
  label->assign(n, -1);
  sizes->clear();
  std::vector<int> queue;
  for (int s = 0; s < n; ++s) {
    if (removed[s] || (*label)[s] >= 0) continue;
    const int k = static_cast<int>(sizes->size());
    sizes->push_back(0);
    queue.assign(1, s);
    (*label)[s] = k;
    while (!queue.empty()) {
      const int v = queue.back();
      queue.pop_back();
      ++(*sizes)[k];
      for (int u : adj[v]) {
        if (removed[u] || (*label)[u] >= 0) continue;
        (*label)[u] = k;
        queue.push_back(u);
      }
    }
  }
  return static_cast<int>(sizes->size());
}

}  // namespace

SplitPlan SplitComponent(const Component& comp, const DecomposeOptions& opts) {
  const int n = static_cast<int>(comp.cells.size());
  SplitPlan plan;
  plan.part_of.assign(n, 0);
  plan.local_of.assign(n, 0);
  auto unsplit = [&]() {
    plan.parts.assign(1, comp);
    for (int v = 0; v < n; ++v) {
      plan.part_of[v] = 0;
      plan.local_of[v] = v;
    }
    plan.cross_atoms.clear();
    plan.boundary.clear();
    return plan;
  };
  if (n <= opts.max_component) return unsplit();

  // Variable graph: u ~ v per binary atom, deduplicated.
  std::vector<std::vector<int>> adj(n);
  for (const RcAtom& a : comp.atoms) {
    if (!a.rhs_is_var || a.lhs_var == a.rhs_var) continue;
    adj[a.lhs_var].push_back(a.rhs_var);
    adj[a.rhs_var].push_back(a.lhs_var);
  }
  for (int v = 0; v < n; ++v) {
    std::sort(adj[v].begin(), adj[v].end());
    adj[v].erase(std::unique(adj[v].begin(), adj[v].end()), adj[v].end());
  }

  // Peel low-density cut vertices: each round, in every still-oversized
  // region, remove the articulation vertex with the smallest remaining
  // degree (<= kMaxCutDegree; ties on var id). Cliques have no
  // articulation points and are left whole.
  std::vector<bool> removed(n, false);
  std::vector<int> label;
  std::vector<int> sizes;
  auto remaining_degree = [&](int v) {
    int d = 0;
    for (int u : adj[v]) {
      if (!removed[u]) ++d;
    }
    return d;
  };
  while (true) {
    LabelComponents(adj, removed, &label, &sizes);
    std::vector<int> best(sizes.size(), -1);
    std::vector<int> best_deg(sizes.size(), 0);
    bool any_oversized = false;
    for (size_t k = 0; k < sizes.size(); ++k) {
      any_oversized |= sizes[k] > opts.max_component;
    }
    if (!any_oversized) break;
    std::vector<bool> art = ArticulationPoints(adj, removed);
    for (int v = 0; v < n; ++v) {
      if (removed[v] || !art[v]) continue;
      const int k = label[v];
      if (sizes[k] <= opts.max_component) continue;
      const int d = remaining_degree(v);
      if (d > kMaxCutDegree) continue;
      if (best[k] < 0 || d < best_deg[k] ||
          (d == best_deg[k] && v < best[k])) {
        best[k] = v;
        best_deg[k] = d;
      }
    }
    bool removed_any = false;
    for (size_t k = 0; k < sizes.size(); ++k) {
      if (best[k] < 0) continue;
      removed[best[k]] = true;
      plan.boundary.push_back(best[k]);
      removed_any = true;
    }
    if (!removed_any) break;  // no sparse separator left
  }
  if (plan.boundary.empty()) return unsplit();

  // Parts = connected regions of the peeled graph, numbered by smallest
  // member var id.
  const int num_parts = LabelComponents(adj, removed, &label, &sizes);

  // Re-attach each boundary vertex to the part of its smallest non-removed
  // neighbor; a vertex whose neighbors are all boundary takes the part an
  // earlier pass gave the smallest of them. Anything still isolated after
  // the passes becomes its own part.
  std::vector<int> part_of(label);
  std::vector<int> pending(plan.boundary);
  std::sort(pending.begin(), pending.end());
  bool progressed = true;
  while (!pending.empty() && progressed) {
    progressed = false;
    std::vector<int> next;
    for (int v : pending) {
      int chosen = -1;
      for (int u : adj[v]) {
        if (part_of[u] >= 0) {
          chosen = part_of[u];
          break;  // adj is sorted: first hit = smallest neighbor id
        }
      }
      if (chosen >= 0) {
        part_of[v] = chosen;
        progressed = true;
      } else {
        next.push_back(v);
      }
    }
    pending = std::move(next);
  }
  int total_parts = num_parts;
  for (int v : pending) part_of[v] = total_parts++;

  // Materialize the parts (cells sorted because var id order is cell
  // order) and the var maps.
  std::vector<std::vector<int>> members(total_parts);
  for (int v = 0; v < n; ++v) members[part_of[v]].push_back(v);
  // Drop empty part slots (a boundary-only part id may be unused) while
  // renumbering by smallest member.
  std::vector<std::vector<int>> packed;
  for (int k = 0; k < total_parts; ++k) {
    if (!members[k].empty()) packed.push_back(std::move(members[k]));
  }
  std::sort(packed.begin(), packed.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  if (packed.size() <= 1) return unsplit();
  plan.parts.reserve(packed.size());
  for (size_t k = 0; k < packed.size(); ++k) {
    const std::vector<int>& vars = packed[k];  // ascending by construction
    for (size_t i = 0; i < vars.size(); ++i) {
      plan.part_of[vars[i]] = static_cast<int>(k);
      plan.local_of[vars[i]] = static_cast<int>(i);
    }
    plan.parts.push_back(RestrictComponent(comp, vars));
  }
  for (const RcAtom& a : comp.atoms) {
    if (!a.rhs_is_var) continue;
    if (plan.part_of[a.lhs_var] != plan.part_of[a.rhs_var]) {
      plan.cross_atoms.push_back(a);
    }
  }
  return plan;
}

}  // namespace cvrepair
