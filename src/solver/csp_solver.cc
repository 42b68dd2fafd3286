#include "solver/csp_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "dc/op.h"
#include "solver/interval.h"

namespace cvrepair {

namespace {

// Cap on per-variable candidate values (after unary filtering).
constexpr int kMaxCandidatesPerVar = 50;
// Components with more live variables than this skip the exact search and
// use a greedy most-constrained-first assignment (still sound: every
// unsatisfiable step degrades to a fresh variable).
constexpr int kMaxExactVars = 12;
// Backtracking node budget per component; exhaustion falls back to
// fresh-variable assignment like unsatisfiability does.
constexpr int kMaxSearchNodes = 20000;

// NULL and fresh values discharge any atom: the underlying DC predicate on
// such a cell is unconditionally false, which is exactly what the repair
// context wants to guarantee.
bool Discharges(const Value& v) { return v.is_null() || v.is_fresh(); }

Value MakeNumeric(bool integral, double x) {
  return integral ? Value::Int(static_cast<int64_t>(std::llround(x)))
                  : Value::Double(x);
}

}  // namespace

bool AtomHolds(const RcAtom& atom, const std::vector<Value>& values) {
  const Value& lhs = values[atom.lhs_var];
  if (Discharges(lhs)) return true;
  const Value& rhs = atom.rhs_is_var ? values[atom.rhs_var] : atom.rhs_const;
  if (Discharges(rhs)) return true;
  return EvalOp(lhs, atom.op, rhs);
}

bool SolutionSatisfies(const Component& component,
                       const ComponentSolution& solution) {
  for (const RcAtom& atom : component.atoms) {
    if (!AtomHolds(atom, solution.values)) return false;
  }
  return true;
}

CspSolver::CspSolver(const Relation& I, const DomainStats& stats,
                     CostModel cost, int64_t* fresh_counter,
                     SolverOptions options)
    : I_(I),
      stats_(stats),
      cost_(cost),
      fresh_counter_(fresh_counter),
      options_(options) {}

ComponentSolution CspSolver::Solve(const Component& component) {
  const int k = static_cast<int>(component.cells.size());
  int64_t atom_evals = 0;  // every EvalOp this solve runs
  int64_t narrowings = 0;  // interval bound-tightenings (use_interval)
  std::vector<Value> original(k);
  for (int v = 0; v < k; ++v) original[v] = I_.Get(component.cells[v]);

  // Per-variable atom indexes (built once).
  std::vector<std::vector<const RcAtom*>> unary(k);
  std::vector<std::vector<const RcAtom*>> binary(k);  // indexed by each end
  for (const RcAtom& a : component.atoms) {
    if (a.rhs_is_var) {
      binary[a.lhs_var].push_back(&a);
      binary[a.rhs_var].push_back(&a);
    } else {
      unary[a.lhs_var].push_back(&a);
    }
  }

  std::vector<bool> is_fv(k, false);
  std::vector<Value> assign(k);
  std::vector<bool> assigned(k, false);  // by the greedy phase

  // The interval fallback of a numeric variable no domain value fits:
  // narrow the whole line by its unary atoms, then — in the greedy phase,
  // `neighbors` — by the values of the neighbors it already assigned
  // (later-assigned neighbors enforce their shared atoms when they are
  // placed, exactly like domain candidates do), and pick the min-|Δ| value
  // — which may lie outside the active domain entirely (the Bertossi–Bravo
  // min-change fix). Every tightening counts, also on the way to a
  // failure. nullopt when a bound is not numeric or the interval is empty.
  auto interval_pick = [&](int v, bool neighbors) -> std::optional<Value> {
    const AttrId attr = component.cells[v].attr;
    if (!options_.use_interval || !I_.schema().is_numeric(attr)) {
      return std::nullopt;
    }
    Interval iv = Interval::All();
    for (const RcAtom* a : unary[v]) {
      if (!a->rhs_const.is_numeric()) return std::nullopt;
      if (NarrowWithConst(&iv, a->op, a->rhs_const.numeric())) ++narrowings;
    }
    if (neighbors) {
      for (const RcAtom* a : binary[v]) {
        int other = a->lhs_var == v ? a->rhs_var : a->lhs_var;
        if (is_fv[other] || !assigned[other]) continue;
        if (!assign[other].is_numeric()) return std::nullopt;
        Op op = a->lhs_var == v ? a->op : FlipOperands(a->op);
        if (NarrowWithConst(&iv, op, assign[other].numeric())) ++narrowings;
      }
    }
    const bool integral = I_.schema().type(attr) == AttrType::kInt;
    const double origin =
        original[v].is_numeric() ? original[v].numeric() : 0.0;
    std::optional<double> pick = PickMinDelta(iv, origin, integral);
    if (!pick.has_value()) return std::nullopt;
    return MakeNumeric(integral, *pick);
  };

  // --- Phase 1: unary filtering, the rc(t.A, Σ) pre-check (§4.1.3). ---
  // Candidates are unary-feasible domain values, original value first,
  // then nearest-first (numeric) or most-frequent-first (categorical).
  std::vector<std::vector<Value>> cand(k);
  for (int v = 0; v < k; ++v) {
    if (Discharges(original[v])) {
      cand[v] = {original[v]};  // NULL original discharges all atoms
      continue;
    }
    const Cell& cell = component.cells[v];
    std::vector<Value> pool;
    for (const auto& [value, freq] : stats_.attr(cell.attr).frequencies) {
      (void)freq;
      pool.push_back(value);
    }
    for (const RcAtom* a : unary[v]) {
      if (a->op == Op::kEq &&
          std::find(pool.begin(), pool.end(), a->rhs_const) == pool.end()) {
        pool.push_back(a->rhs_const);
      }
    }
    std::vector<Value> feasible;
    for (const Value& value : pool) {
      bool ok = true;
      for (const RcAtom* a : unary[v]) {
        ++atom_evals;
        if (!EvalOp(value, a->op, a->rhs_const)) {
          ok = false;
          break;
        }
      }
      if (ok) feasible.push_back(value);
    }
    bool numeric = I_.schema().is_numeric(cell.attr);
    if (feasible.empty()) {
      // The active domain admits no value: the interval fallback, else a
      // fresh variable (genuinely empty interval, or non-numeric).
      if (std::optional<Value> pick = interval_pick(v, /*neighbors=*/false)) {
        cand[v] = {std::move(*pick)};
      } else {
        is_fv[v] = true;
      }
      continue;
    }
    if (numeric && original[v].is_numeric()) {
      // Anchor of the nearest-first ranking: the original value when it is
      // inside the unary feasible window, otherwise the window midpoint —
      // the original is then known-dirty and the window, derived from the
      // cell's neighbors, brackets the plausible truth.
      double lo = -std::numeric_limits<double>::infinity();
      double hi = std::numeric_limits<double>::infinity();
      for (const RcAtom* a : unary[v]) {
        if (!a->rhs_const.is_numeric()) continue;
        double c = a->rhs_const.numeric();
        if (a->op == Op::kGt || a->op == Op::kGeq) lo = std::max(lo, c);
        if (a->op == Op::kLt || a->op == Op::kLeq) hi = std::min(hi, c);
      }
      double o = original[v].numeric();
      if ((o < lo || o > hi) && std::isfinite(lo) && std::isfinite(hi) &&
          lo <= hi) {
        o = (lo + hi) / 2.0;
      } else if (o < lo && std::isfinite(lo)) {
        o = lo;
      } else if (o > hi && std::isfinite(hi)) {
        o = hi;
      }
      std::stable_sort(feasible.begin(), feasible.end(),
                       [o](const Value& a, const Value& b) {
                         return std::abs(a.numeric() - o) <
                                std::abs(b.numeric() - o);
                       });
    }
    if (!numeric && cost_.kind == CostModel::Kind::kEditDistance &&
        original[v].kind() == ValueKind::kString) {
      // Typo-repair mode: prefer candidates textually close to the
      // original value (the edit-distance cost of the paper's Def. 1).
      const std::string& o = original[v].as_string();
      std::stable_sort(feasible.begin(), feasible.end(),
                       [&o](const Value& a, const Value& b) {
                         int da = a.kind() == ValueKind::kString
                                      ? EditDistance(a.as_string(), o)
                                      : 1 << 20;
                         int db = b.kind() == ValueKind::kString
                                      ? EditDistance(b.as_string(), o)
                                      : 1 << 20;
                         return da < db;
                       });
    }
    auto it = std::find(feasible.begin(), feasible.end(), original[v]);
    if (it != feasible.end()) std::rotate(feasible.begin(), it, it + 1);
    if (static_cast<int>(feasible.size()) > kMaxCandidatesPerVar) {
      feasible.resize(kMaxCandidatesPerVar);
    }
    cand[v] = std::move(feasible);
  }

  auto finish = [&]() {
    ComponentSolution solution;
    solution.values.resize(k);
    solution.cost = 0.0;
    solution.atom_evals = atom_evals;
    solution.interval_narrowings = narrowings;
    for (int v = 0; v < k; ++v) {
      if (is_fv[v]) {
        solution.values[v] = Value::Fresh((*fresh_counter_)++);
        ++solution.fresh_count;
      } else {
        solution.values[v] = assign[v];
      }
      solution.cost += cost_.CellDist(component.cells[v], original[v],
                                      solution.values[v]);
    }
    return solution;
  };

  // Variables that still need a value.
  std::vector<int> live;
  for (int v = 0; v < k; ++v) {
    if (!is_fv[v]) live.push_back(v);
  }

  // --- Phase 2: exact branch-and-bound for small components. ---
  if (static_cast<int>(live.size()) <= kMaxExactVars) {
    int total_nodes = 0;
    while (!live.empty()) {
      std::vector<int> order = live;
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        size_t da = unary[a].size() + binary[a].size();
        size_t db = unary[b].size() + binary[b].size();
        if (da != db) return da > db;
        return a < b;
      });
      std::vector<int> depth_of(k, -1);
      for (size_t d = 0; d < order.size(); ++d) {
        depth_of[order[d]] = static_cast<int>(d);
      }
      // Binary atoms become checkable once both endpoints are assigned.
      std::vector<std::vector<const RcAtom*>> checks(order.size() + 1);
      for (const RcAtom& a : component.atoms) {
        if (!a.rhs_is_var) continue;
        if (is_fv[a.lhs_var] || is_fv[a.rhs_var]) continue;
        int d = std::max(depth_of[a.lhs_var], depth_of[a.rhs_var]);
        checks[d + 1].push_back(&a);
      }

      std::vector<Value> work(k);
      std::vector<Value> best;
      double best_cost = std::numeric_limits<double>::infinity();
      bool budget_hit = false;
      auto dfs = [&](auto&& self, size_t depth, double cost_so_far) -> void {
        if (budget_hit || cost_so_far >= best_cost) return;
        if (depth == order.size()) {
          best = work;
          best_cost = cost_so_far;
          return;
        }
        int v = order[depth];
        for (const Value& value : cand[v]) {
          if (++total_nodes > kMaxSearchNodes) {
            budget_hit = true;
            return;
          }
          work[v] = value;
          bool ok = true;
          for (const RcAtom* a : checks[depth + 1]) {
            const Value& lhs = work[a->lhs_var];
            const Value& rhs = work[a->rhs_var];
            ++atom_evals;
            if (!EvalOp(lhs, a->op, rhs)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          self(self, depth + 1, cost_so_far + cost_.Dist(original[v], value));
        }
      };
      dfs(dfs, 0, 0.0);

      if (!best.empty()) {
        for (int v : live) assign[v] = best[v];
        return finish();
      }
      // The domain-candidate search is inconsistent (or out of budget).
      // A fully numeric component gets one interval-propagation attempt:
      // AC-3 narrowing plus min-|Δ| picks can succeed off-domain where
      // every candidate pool failed.
      if (options_.use_interval) {
        IntervalResult ir =
            IntervalSolveComponent(I_, component, live, is_fv, original);
        narrowings += ir.narrowings;
        if (ir.applicable) {
          for (size_t i = 0; i < live.size(); ++i) {
            if (ir.fresh[i]) {
              is_fv[live[i]] = true;
            } else {
              assign[live[i]] = ir.values[i];
            }
          }
          return finish();
        }
      }
      // Inconsistent (or out of budget): fv the variable with the most
      // atoms and retry (Algorithm 2, lines 14-17).
      int victim = order[0];
      is_fv[victim] = true;
      live.erase(std::remove(live.begin(), live.end(), victim), live.end());
    }
    return finish();
  }

  // --- Phase 3: greedy sequential assignment for large components. ---
  // Most-constrained variables first; each variable takes its cheapest
  // candidate consistent with already-assigned neighbors, falling back to
  // the interval pick, then to fv. Every binary atom is enforced when its
  // second endpoint is assigned, so the result always satisfies the
  // component.
  std::vector<int> order = live;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    size_t da = unary[a].size() + binary[a].size();
    size_t db = unary[b].size() + binary[b].size();
    if (da != db) return da > db;
    return a < b;
  });
  for (int v : order) {
    bool placed = false;
    for (const Value& value : cand[v]) {
      bool ok = true;
      for (const RcAtom* a : binary[v]) {
        int other = a->lhs_var == v ? a->rhs_var : a->lhs_var;
        if (is_fv[other] || !assigned[other]) continue;
        const Value& lhs = a->lhs_var == v ? value : assign[a->lhs_var];
        const Value& rhs = a->rhs_var == v ? value : assign[a->rhs_var];
        ++atom_evals;
        if (!EvalOp(lhs, a->op, rhs)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assign[v] = value;
        placed = true;
        break;
      }
    }
    if (!placed) {
      if (std::optional<Value> pick = interval_pick(v, /*neighbors=*/true)) {
        assign[v] = std::move(*pick);
        placed = true;
      } else {
        is_fv[v] = true;
      }
    }
    assigned[v] = placed;
  }
  return finish();
}

}  // namespace cvrepair
