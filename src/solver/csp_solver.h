#ifndef CVREPAIR_SOLVER_CSP_SOLVER_H_
#define CVREPAIR_SOLVER_CSP_SOLVER_H_

#include <cstdint>
#include <vector>

#include "relation/domain_stats.h"
#include "relation/relation.h"
#include "repair/costs.h"
#include "solver/components.h"

namespace cvrepair {

/// Knobs for the component solver.
struct SolverOptions {
  /// Numeric interval propagation (solver/interval.h): before minting a
  /// fresh variable, components whose atoms are numeric order/range
  /// comparisons get an AC-3 interval narrowing pass and a min-|Δ| value
  /// pick inside the final interval; a fresh variable remains only for
  /// genuinely empty intervals. Off restores the paper's Section 4.1.3
  /// fresh-variable fallback verbatim.
  bool use_interval = true;
};

/// Assignment for one component: values[i] is the repaired value for
/// Component::cells[i] (possibly the original value, possibly a fresh
/// variable). `cost` is the count-model repair cost of the assignment.
struct ComponentSolution {
  std::vector<Value> values;
  double cost = 0.0;
  int fresh_count = 0;
  /// Atom/candidate evaluations Solve spent on this component — a pure
  /// function of the component (and solver options), so callers may
  /// publish it as a deterministic work counter no matter which thread
  /// produced the solution. Cache hits hand back the stored count; the
  /// consumer decides whether reuse counts as work (the vfree replay does
  /// not re-publish it).
  int64_t atom_evals = 0;
  /// Interval bound-tightenings performed by the numeric propagation
  /// passes (solver/interval.h) — same determinism contract as
  /// atom_evals, published as solve.interval_narrowings by the vfree
  /// serial replay.
  int64_t interval_narrowings = 0;
};

/// Solves repair-context components (the "existing solver" slot of
/// Algorithm 2, line 9): candidate values come from the active domain of
/// each attribute (plus constants mentioned by the context), candidates
/// are ranked original-first then nearest-first (numeric) or
/// most-frequent-first (categorical, the VFM heuristic of [8]), and a
/// cost-bounded backtracking search finds a minimum-cost assignment.
///
/// The fresh-variable rules of Section 4.1.3 are implemented exactly:
/// a variable whose unary context rc(t.A, Σ) admits no domain value is
/// assigned fv up front; if the search still fails, the variable occurring
/// in the most atoms is assigned fv (removing its atoms) and the search
/// repeats — so Solve always returns a valid assignment.
class CspSolver {
 public:
  /// `I` supplies original cell values; `stats` supplies domains and
  /// frequencies (typically computed once per repair run on the dirty
  /// input). Fresh ids are drawn from `fresh_counter`, which must outlive
  /// the solver.
  CspSolver(const Relation& I, const DomainStats& stats, CostModel cost,
            int64_t* fresh_counter, SolverOptions options = {});

  /// Solves one component; never fails (see class comment).
  ComponentSolution Solve(const Component& component);

 private:
  const Relation& I_;
  const DomainStats& stats_;
  CostModel cost_;
  int64_t* fresh_counter_;
  SolverOptions options_;
};

/// True iff `atom` holds on the per-variable `values`: NULL and fresh
/// values discharge any atom (the DC predicate on such a cell is false).
/// The component solver and the decomposition's stitching check share it,
/// so stitching accepts exactly the assignments a merged solve would.
bool AtomHolds(const RcAtom& atom, const std::vector<Value>& values);

/// True iff `solution` satisfies every atom of `component` under
/// fresh-variable semantics (atoms touching an fv-assigned variable are
/// vacuously discharged). Used by tests and by the materialized cache.
bool SolutionSatisfies(const Component& component,
                       const ComponentSolution& solution);

}  // namespace cvrepair

#endif  // CVREPAIR_SOLVER_CSP_SOLVER_H_
