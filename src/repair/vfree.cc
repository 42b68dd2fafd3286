#include "repair/vfree.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <set>

#include "dc/op.h"
#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "graph/decompose.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/repair_context.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

// Cached handles for the "solve.*" decomposition work counters. The split
// plan is a pure function of the components, published by the replay, and
// stitching runs in the serial replay, so all three are thread-count
// invariant (metrics.json safe).
MetricCounter* SplitCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.components_split");
  return c;
}
MetricCounter* StitchCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.stitch_merges");
  return c;
}
MetricCounter* GiantCellsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.giant_component_cells");
  return c;
}
// CSP work actually spent (cache hits excluded): the per-component eval
// count is computed by Solve and carried in the solution.
MetricCounter* CspEvalsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.csp_atom_evals");
  return c;
}
// Cells handed to the solver inside an oversized problem — the serial
// giant-component path decomposition exists to bypass. Counted whether or
// not decomposition is on, so an A/B run shows the drop directly.
MetricCounter* OversizedCellsCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.oversized_solver_cells");
  return c;
}
// Interval bound-tightenings spent by the numeric propagation passes
// (solver/interval.h), carried per component like atom_evals.
MetricCounter* IntervalNarrowCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.interval_narrowings");
  return c;
}
// Fresh variables the solver actually minted — the fallback interval
// propagation exists to avoid. Pinned require_zero on workloads whose
// components are fully propagation-solvable.
MetricCounter* FreshFallbackCounter() {
  static MetricCounter* c =
      MetricsRegistry::Global().GetCounter("solve.fresh_fallbacks");
  return c;
}

// NULL and fresh values discharge any atom — the same semantics as the
// component solver's satisfaction check (csp_solver.cc), so the stitching
// check accepts exactly the assignments a merged solve would.
bool StitchAtomHolds(const RcAtom& atom, const std::vector<Value>& values) {
  const Value& lhs = values[atom.lhs_var];
  if (lhs.is_null() || lhs.is_fresh()) return true;
  const Value& rhs = atom.rhs_is_var ? values[atom.rhs_var] : atom.rhs_const;
  if (rhs.is_null() || rhs.is_fresh()) return true;
  return EvalOp(lhs, atom.op, rhs);
}

// Hybrid post-pass (strategy kHybrid): after the update solve, tombstone
// every row whose summed update cost exceeds its deletion weight. Sound
// because NULL discharges every atom — dropping a row's updates in favor
// of NULLs can only discharge more constraints, never re-violate one —
// and deterministic because it runs serially on the replayed assignment
// list, so every thread count and the streamed/scratch twins agree.
void ApplyHybridDeletions(const Relation& I, const DomainStats& stats_of_I,
                          const VfreeOptions& options, ScopedRepair* repair,
                          RepairStats* stats) {
  std::map<int, double> row_cost;
  for (const auto& [cell, value] : repair->assignments) {
    row_cost[cell.row] += options.cost.CellDist(cell, I.Get(cell), value);
  }
  std::set<int> doomed;
  for (const auto& [row, cost] : row_cost) {
    if (cost > RowDeletionWeight(I, stats_of_I, row, options.subset)) {
      doomed.insert(row);
    }
  }
  if (doomed.empty()) return;
  std::vector<std::pair<Cell, Value>> kept;
  kept.reserve(repair->assignments.size());
  for (auto& [cell, value] : repair->assignments) {
    if (doomed.count(cell.row)) {
      if (value.is_fresh() && stats) --stats->fresh_assignments;
      continue;
    }
    kept.emplace_back(cell, std::move(value));
  }
  for (int row : doomed) {  // ascending: std::set order
    for (AttrId a = 0; a < I.num_attributes(); ++a) {
      if (!I.Get(row, a).is_null()) {
        kept.emplace_back(Cell{row, a}, Value::Null());
      }
    }
    repair->cost +=
        RowDeletionWeight(I, stats_of_I, row, options.subset) - row_cost[row];
    if (stats) ++stats->rows_deleted;
  }
  repair->assignments = std::move(kept);
}

// The changing set of one repair round: an approximate minimum vertex
// cover of the conflict hypergraph of `violations`.
std::vector<Cell> CoverCells(const Relation& I, const DomainStats& stats_of_I,
                             const ConstraintSet& sigma,
                             const ViolationsByPosition& violations,
                             const VfreeOptions& options) {
  TraceSpan span("vfree/cover");
  const ConflictHypergraph g = [&] {
    TraceSpan build_span("graph/hypergraph");
    return ConflictHypergraph::Build(I, stats_of_I, sigma, violations,
                                     options.cost);
  }();
  TraceSpan cover_span("graph/cover");
  VertexCover cover = ApproximateVertexCover(g, options.cover, &stats_of_I);
  return cover.Cells(g);
}

}  // namespace

ComponentPlan PlanComponents(const ConstraintSet& sigma,
                             const std::vector<Cell>& changing,
                             const VfreeOptions& options,
                             const EncodedRelation& encoded) {
  TraceSpan span("vfree/context");
  ComponentPlan plan;
  {
    int64_t duplicate_atoms = 0;
    const RepairContext rc =
        RepairContext::BuildFromScan(encoded, sigma, changing, &plan.suspects,
                                     &duplicate_atoms, &plan.zone_counts);
    span.AddArg("suspects", plan.suspects);
    span.AddArg("atoms", static_cast<int64_t>(rc.atoms().size()));
    span.AddArg("duplicate_atoms", duplicate_atoms);
    plan.components = DecomposeComponents(rc);
  }

  // Topology-aware decomposition (DESIGN.md §12). The split plan is a pure
  // function of the components, so the solve.* counters the replay
  // publishes from it stay thread-count invariant.
  if (options.decompose) {
    DecomposeOptions dopts;
    dopts.max_component = options.max_component;
    plan.splits.resize(plan.components.size());
    for (size_t ci = 0; ci < plan.components.size(); ++ci) {
      const Component& comp = plan.components[ci];
      if (static_cast<int>(comp.cells.size()) <= options.max_component) {
        continue;
      }
      plan.giant_component_cells += static_cast<int64_t>(comp.cells.size());
      plan.splits[ci] = SplitComponent(comp, dopts);
      if (plan.splits[ci].split()) ++plan.components_split;
    }
  }
  return plan;
}

ComponentPlan PlanDirtyComponents(const Relation& I,
                                  const DomainStats& stats_of_I,
                                  const ConstraintSet& sigma,
                                  const ViolationsByPosition& violations,
                                  const VfreeOptions& options,
                                  const EncodedRelation& encoded) {
  if (std::all_of(violations.begin(), violations.end(),
                  [](std::span<const Violation> v) { return v.empty(); })) {
    return {};
  }
  if (options.strategy == RepairStrategy::kDelete) {
    // Subset repair: resolve by tuple deletion over the tuple projection —
    // no repair contexts, no solver, no cache. One cover pass is always
    // violation-free (NULL discharges every predicate) and deletions can
    // never create new violations, so this mirrors the single-round
    // guarantee of the update path.
    ComponentPlan plan;
    plan.deletion =
        SubsetCoverRepair(I, stats_of_I, violations, options.subset);
    return plan;
  }
  return PlanComponents(
      sigma, CoverCells(I, stats_of_I, sigma, violations, options), options,
      encoded);
}

std::optional<ScopedRepair> ReplayComponents(
    const Relation& I, const DomainStats& stats_of_I, const ComponentPlan& plan,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter) {
  // A deletion or empty plan touches no solve.* counter: a delete run or a
  // violation-free round registers none.
  if (plan.deletion) {
    const SubsetRepair& deletion = *plan.deletion;
    if (stats) stats->rows_deleted += deletion.rows_deleted;
    if (deletion.cost > delta_min) return std::nullopt;  // Alg. 2 lines 18-19
    return ScopedRepair{deletion.assignments, deletion.cost,
                        deletion.rows_deleted};
  }
  if (plan.components.empty()) return ScopedRepair{};
  TraceSpan repair_span("vfree/data_repair");
  const std::vector<Component>& components = plan.components;
  repair_span.AddArg("components", static_cast<int64_t>(components.size()));
  // Touch the solve.* counters up front so they appear (as zeros) in every
  // metrics snapshot — require_zero baselines distinguish "0" from
  // "missing".
  SplitCounter();
  StitchCounter();
  GiantCellsCounter();
  CspEvalsCounter();
  OversizedCellsCounter();
  IntervalNarrowCounter();
  FreshFallbackCounter();
  // The planning's work, published now that the round is committed.
  eval_counters::Add(plan.zone_counts);
  GiantCellsCounter()->Add(plan.giant_component_cells);
  SplitCounter()->Add(plan.components_split);
  if (stats) {
    stats->suspects += static_cast<int>(plan.suspects);
    stats->giant_component_cells += plan.giant_component_cells;
    stats->components_split += plan.components_split;
  }

  CspSolver solver(I, stats_of_I, options.cost, fresh_counter, options.solver);

  const std::vector<SplitPlan>& plans = plan.splits;
  auto is_split = [&](size_t ci) {
    return !plans.empty() && plans[ci].split();
  };

  TraceSpan replay_span("vfree/replay_components");
  ScopedRepair result;
  result.components = static_cast<int>(components.size());
  // One component's solution: a hit in the shared cache, or a solve whose
  // solution is stored for later rounds.
  auto resolve = [&](const Component& comp) {
    if (cache) {
      if (std::optional<ComponentSolution> hit = cache->Lookup(comp)) {
        if (stats) ++stats->cache_hits;
        return std::move(*hit);
      }
    }
    ComponentSolution solution = [&] {
      TraceSpan solve_span("vfree/solve_component");
      return solver.Solve(comp);
    }();
    if (stats) ++stats->solver_calls;
    if (cache) cache->Store(comp, solution);
    // Work actually spent: cache hits publish nothing.
    CspEvalsCounter()->Add(solution.atom_evals);
    IntervalNarrowCounter()->Add(solution.interval_narrowings);
    FreshFallbackCounter()->Add(solution.fresh_count);
    if (static_cast<int>(comp.cells.size()) > options.max_component) {
      OversizedCellsCounter()->Add(static_cast<int64_t>(comp.cells.size()));
    }
    return solution;
  };
  // Emits one component's final values (re-minting fresh ids so cached
  // solutions never alias fv names) and enforces the Alg. 2 cost abort.
  auto emit = [&](const std::vector<Cell>& cells,
                  const std::vector<Value>& values, double cost) {
    for (size_t v = 0; v < cells.size(); ++v) {
      Value value = values[v];
      if (value.is_fresh()) {
        value = Value::Fresh((*fresh_counter)++);
        if (stats) ++stats->fresh_assignments;
      }
      result.assignments.emplace_back(cells[v], std::move(value));
    }
    result.cost += cost;
    return result.cost <= delta_min;  // Alg. 2 lines 18-19
  };

  for (size_t ci = 0; ci < components.size(); ++ci) {
    const Component& comp = components[ci];
    if (!is_split(ci)) {
      ComponentSolution solution = resolve(comp);
      if (!emit(comp.cells, solution.values, solution.cost)) {
        return std::nullopt;
      }
      continue;
    }

    // Split path: solve the parts independently, then stitch — re-verify
    // the boundary-straddling atoms on the combined assignment and merge +
    // re-solve only the regions that still conflict. Every merge round
    // strictly decreases the live part count, so the loop terminates; the
    // worst case degenerates to the original undecomposed component, whose
    // solve satisfies every atom by construction.
    const SplitPlan& split = plans[ci];
    const int n = static_cast<int>(comp.cells.size());
    const size_t num_parts = split.parts.size();
    std::vector<double> part_cost(num_parts, 0.0);
    std::vector<bool> live(num_parts, true);
    std::vector<Value> combined(n);
    std::vector<int> cur_part(n);
    std::vector<std::vector<int>> part_vars(num_parts);
    for (int v = 0; v < n; ++v) {
      cur_part[v] = split.part_of[v];
      part_vars[split.part_of[v]].push_back(v);  // ascending = local id order
    }
    for (size_t p = 0; p < num_parts; ++p) {
      ComponentSolution psol = resolve(split.parts[p]);
      part_cost[p] = psol.cost;
      for (size_t i = 0; i < part_vars[p].size(); ++i) {
        combined[part_vars[p][i]] = psol.values[i];
      }
    }

    while (true) {
      // Union-find over part ids, rooted at the smallest id of each group.
      std::vector<int> parent(num_parts);
      for (size_t p = 0; p < num_parts; ++p) parent[p] = static_cast<int>(p);
      auto find = [&](int x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      bool any_violated = false;
      for (const RcAtom& a : split.cross_atoms) {
        const int pl = cur_part[a.lhs_var];
        const int pr = cur_part[a.rhs_var];
        if (pl == pr) continue;  // merged earlier: satisfied internally
        if (StitchAtomHolds(a, combined)) continue;
        any_violated = true;
        const int rl = find(pl);
        const int rr = find(pr);
        if (rl != rr) parent[std::max(rl, rr)] = std::min(rl, rr);
      }
      if (!any_violated) break;
      // Merge each still-conflicting group (ascending root id) and
      // re-solve it as one component over all of its original atoms.
      for (size_t root = 0; root < num_parts; ++root) {
        if (!live[root] || find(static_cast<int>(root)) !=
                               static_cast<int>(root)) {
          continue;
        }
        std::vector<int> vars;
        bool group = false;
        for (int v = 0; v < n; ++v) {
          if (find(cur_part[v]) == static_cast<int>(root)) {
            vars.push_back(v);
            group |= cur_part[v] != static_cast<int>(root);
          }
        }
        if (!group) continue;  // singleton: nothing merged into this root
        Component merged = RestrictComponent(comp, vars);
        StitchCounter()->Increment();
        if (stats) ++stats->stitch_merges;
        ComponentSolution msol = resolve(merged);
        for (size_t i = 0; i < vars.size(); ++i) {
          const int v = vars[i];
          if (live[cur_part[v]] && cur_part[v] != static_cast<int>(root)) {
            live[cur_part[v]] = false;
          }
          cur_part[v] = static_cast<int>(root);
          combined[v] = msol.values[i];
        }
        part_cost[root] = msol.cost;
      }
    }

    double comp_cost = 0.0;
    for (size_t p = 0; p < num_parts; ++p) {
      if (live[p]) comp_cost += part_cost[p];
    }
    if (!emit(comp.cells, combined, comp_cost)) return std::nullopt;
  }
  if (options.strategy == RepairStrategy::kHybrid) {
    ApplyHybridDeletions(I, stats_of_I, options, &result, stats);
  }
  return result;
}

void CanonicalizeViolations(std::vector<Violation>* violations) {
  auto canonical = [](const Violation& a, const Violation& b) {
    if (a.constraint_index != b.constraint_index) {
      return a.constraint_index < b.constraint_index;
    }
    return a.rows < b.rows;
  };
  // A candidate's union set and a ViolationIndex's current set arrive
  // canonical already: one O(n) pass instead of a sort.
  if (std::is_sorted(violations->begin(), violations->end(), canonical)) {
    return;
  }
  std::sort(violations->begin(), violations->end(), canonical);
}

std::optional<ScopedRepair> SolveDirtyComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const ViolationsByPosition& violations,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation& encoded) {
  return ReplayComponents(
      I, stats_of_I,
      PlanDirtyComponents(I, stats_of_I, sigma, violations, options, encoded),
      delta_min, options, cache, stats, fresh_counter);
}

RepairResult VfreeRepair(const Relation& I, const ConstraintSet& sigma,
                         const VfreeOptions& options) {
  auto start = std::chrono::steady_clock::now();
  RepairResult result;
  result.satisfied_constraints = sigma;
  result.stats.rounds = 1;

  const EncodedRelation E(I);
  std::vector<Violation> violations = FindViolations(E, sigma);
  result.stats.initial_violations = static_cast<int>(violations.size());

  CanonicalizeViolations(&violations);
  const DomainStats stats_of_I(I);
  int64_t fresh_counter = 1;
  // With an infinite bound the round always succeeds.
  ScopedRepair scoped = *SolveDirtyComponents(
      I, stats_of_I, sigma, ViewsByPosition(violations, sigma.size()),
      std::numeric_limits<double>::infinity(), options, /*cache=*/nullptr,
      &result.stats, &fresh_counter, E);
  result.repaired = I;
  for (auto& [cell, value] : scoped.assignments) {
    result.repaired.SetValue(cell, std::move(value));
  }
  result.stats.changed_cells = ChangedCellCount(I, result.repaired);
  result.stats.repair_cost =
      StrategyRepairCost(I, result.repaired, options.cost, options.strategy,
                         options.subset, stats_of_I);
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace cvrepair
