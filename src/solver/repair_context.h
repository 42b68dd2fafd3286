#ifndef CVREPAIR_SOLVER_REPAIR_CONTEXT_H_
#define CVREPAIR_SOLVER_REPAIR_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dc/violation.h"
#include "relation/relation.h"

namespace cvrepair {

/// One atomic repair-context constraint (Section 4.1.2): the inverse of a
/// DC predicate instantiated on a suspect tuple list, restricted to the
/// changing cells. Normalized so that the left side is always a variable
/// (a changing cell); the right side is either another variable or a
/// fixed constant (the current value of a non-changing cell, or a DC
/// constant).
struct RcAtom {
  int lhs_var = 0;
  Op op = Op::kEq;
  bool rhs_is_var = false;
  int rhs_var = 0;
  Value rhs_const;

  friend bool operator==(const RcAtom& a, const RcAtom& b) {
    if (a.lhs_var != b.lhs_var || a.op != b.op || a.rhs_is_var != b.rhs_is_var)
      return false;
    return a.rhs_is_var ? a.rhs_var == b.rhs_var : a.rhs_const == b.rhs_const;
  }
  friend bool operator<(const RcAtom& a, const RcAtom& b) {
    if (a.lhs_var != b.lhs_var) return a.lhs_var < b.lhs_var;
    if (a.rhs_is_var != b.rhs_is_var) return a.rhs_is_var < b.rhs_is_var;
    if (a.rhs_is_var && a.rhs_var != b.rhs_var) return a.rhs_var < b.rhs_var;
    if (!a.rhs_is_var && !(a.rhs_const == b.rhs_const))
      return a.rhs_const < b.rhs_const;
    return a.op < b.op;
  }

  /// True iff `a.op` on the atom's operands refers to the same operand pair
  /// as `b` (used by the refinement test of Definition 7).
  bool SameOperands(const RcAtom& b) const {
    if (lhs_var != b.lhs_var || rhs_is_var != b.rhs_is_var) return false;
    return rhs_is_var ? rhs_var == b.rhs_var : rhs_const == b.rhs_const;
  }
};

/// The assembled repair context rc(C, Σ) for a changing set C: variables
/// (one per changing cell) plus deduplicated atoms collected from every
/// suspect tuple list (formula (3) of the paper). C must be a subset of
/// cells(I) (rows in [0, |I|), attributes in [0, m)); it may hold
/// duplicates, in any order. Variable ids follow the ascending (row, attr)
/// order of the distinct cells of C, and are looked up through a dense
/// row × m array while the atoms are collected.
///
/// Numeric bound atoms are compressed: for one variable, {>= c1, >= c2, ...}
/// is equivalent to the single tightest bound (same for >, <, <=), so only
/// that one is kept — the smallest RcAtom among equally tight ones. This
/// keeps order-DC contexts linear in the number of variables instead of
/// quadratic in the instance, without changing the feasible sets. Atoms are
/// in ascending RcAtom order; of equal atoms (e.g. 0.0 and -0.0) the first
/// to arrive is kept. Exact duplicates are dropped on integer keys as they
/// arrive (DESIGN.md §7), which the three builds share.
class RepairContext {
 public:
  /// Builds rc(C, Σ) over the instance E mirrors (E must be in_sync) from
  /// the suspects of C (see FindSuspects). Every predicate of a suspect's
  /// constraint that touches a changing cell contributes its inverse as an
  /// atom; predicates between two non-changing cells belong to the suspect
  /// condition and are skipped.
  static RepairContext Build(const EncodedRelation& E,
                             const ConstraintSet& sigma,
                             const std::vector<Cell>& changing,
                             const std::vector<Violation>& suspects);

  /// Build with the coded mirror of `I` built here.
  static RepairContext Build(const Relation& I, const ConstraintSet& sigma,
                             const std::vector<Cell>& changing,
                             const std::vector<Violation>& suspects);

  /// Build(E, Σ, C, FindSuspects(E, Σ, C)) without the suspect list: the
  /// suspect scan (ForEachSuspect) feeds the atom collector directly and
  /// numeric bounds are compressed as they arrive, so memory stays at the
  /// compressed context. `*suspects` receives the suspect count and
  /// `*duplicate_atoms`, when given, the atom arrivals dropped on their
  /// keys as exact duplicates of an earlier one (atoms() would be the same
  /// without the keys); the scan's zone-map consults go to `*zone_counts`
  /// when given, else to the process-wide eval counters.
  static RepairContext BuildFromScan(const EncodedRelation& E,
                                     const ConstraintSet& sigma,
                                     const std::vector<Cell>& changing,
                                     int64_t* suspects,
                                     int64_t* duplicate_atoms = nullptr,
                                     EvalCounters* zone_counts = nullptr);

  int num_vars() const { return static_cast<int>(cells_.size()); }
  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(int var) const { return cells_[var]; }
  const std::vector<RcAtom>& atoms() const { return atoms_; }

  /// Debug rendering of all atoms.
  std::string ToString(const Relation& I) const;

 private:
  // The variables of C: sorted, deduplicated cells. Returns the variable
  // id of every cell of an instance with `num_rows` rows and
  // `num_attributes` attributes at row * num_attributes + attr (-1 = not
  // in C).
  std::vector<int> SetCells(const std::vector<Cell>& changing, int num_rows,
                            int num_attributes);

  // The body of every build: `for_each_suspect(cells, visit)` calls
  // visit(s) on each suspect of the sorted variable cells. The count of
  // atoms dropped on their keys goes to `*duplicate_atoms` when given.
  template <typename Suspects>
  static RepairContext Collect(const EncodedRelation& E,
                               const ConstraintSet& sigma,
                               const std::vector<Cell>& changing,
                               const Suspects& for_each_suspect,
                               int64_t* duplicate_atoms);

  std::vector<Cell> cells_;
  std::vector<RcAtom> atoms_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_SOLVER_REPAIR_CONTEXT_H_
