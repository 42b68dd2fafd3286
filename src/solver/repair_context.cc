#include "solver/repair_context.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "relation/encoded.h"

namespace cvrepair {

namespace {

// Collects the atoms of one repair context as they arrive. Exact duplicates
// collapse in a set. A numeric bound atom (>, >=, <, <= against a numeric
// constant) instead competes for its (variable, operator) slot, which keeps
// the tightest bound and, among equally tight ones, the smallest RcAtom —
// exactly the atom a pass over the sorted, deduplicated set would keep, so
// the result does not depend on arrival order.
class AtomCollector {
 public:
  void Add(RcAtom atom) {
    const int slot = BoundSlot(atom);
    if (slot < 0) {
      atoms_.insert(std::move(atom));
      return;
    }
    std::optional<RcAtom>& best = bounds_[atom.lhs_var][slot];
    if (!best || Beats(atom, *best)) best = std::move(atom);
  }

  // The collected atoms in ascending RcAtom order.
  std::vector<RcAtom> Finish() {
    std::vector<RcAtom> out(atoms_.begin(), atoms_.end());
    for (auto& [var, slots] : bounds_) {
      (void)var;
      for (std::optional<RcAtom>& a : slots) {
        if (a) out.push_back(std::move(*a));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  // 0..3 for a numeric bound atom (>, >=, <, <=), -1 otherwise.
  static int BoundSlot(const RcAtom& a) {
    if (a.rhs_is_var || !a.rhs_const.is_numeric()) return -1;
    switch (a.op) {
      case Op::kGt:
        return 0;
      case Op::kGeq:
        return 1;
      case Op::kLt:
        return 2;
      case Op::kLeq:
        return 3;
      default:
        return -1;
    }
  }

  // True iff bound `a` should replace `best` in their shared slot.
  static bool Beats(const RcAtom& a, const RcAtom& best) {
    const double x = a.rhs_const.numeric();
    const double y = best.rhs_const.numeric();
    const bool lower = a.op == Op::kGt || a.op == Op::kGeq;
    if (lower ? x > y : x < y) return true;   // tighter
    if (lower ? x < y : x > y) return false;  // looser
    return a < best;
  }

  std::set<RcAtom> atoms_;
  std::unordered_map<int, std::array<std::optional<RcAtom>, 4>> bounds_;
};

// Adds the atoms suspect `s` contributes to rc(C, Σ): the inverse of each
// predicate of its constraint that touches a changing cell. `var_of` is
// RepairContext::SetCells' dense variable-id array of I.
void CollectSuspectAtoms(const Relation& I, const ConstraintSet& sigma,
                         const std::vector<int>& var_of, const Violation& s,
                         AtomCollector* atoms) {
  const size_t m = static_cast<size_t>(I.num_attributes());
  auto var = [&](const Cell& cell) {
    return var_of[static_cast<size_t>(cell.row) * m + cell.attr];
  };
  const DenialConstraint& c = sigma[s.constraint_index];
  for (const Predicate& p : c.predicates()) {
    Cell lhs{s.rows[p.lhs().tuple], p.lhs().attr};
    int lv = var(lhs);
    if (p.has_constant()) {
      if (lv < 0) continue;  // suspect-condition predicate, not rc
      RcAtom atom;
      atom.lhs_var = lv;
      atom.op = Inverse(p.op());
      atom.rhs_is_var = false;
      atom.rhs_const = p.constant();
      if (atom.rhs_const.is_null() || atom.rhs_const.is_fresh()) continue;
      atoms->Add(std::move(atom));
      continue;
    }
    Cell rhs{s.rows[p.rhs_cell().tuple], p.rhs_cell().attr};
    int rv = var(rhs);
    if (lv < 0 && rv < 0) continue;  // neither side changes
    RcAtom atom;
    Op inv = Inverse(p.op());
    if (lv >= 0 && rv >= 0) {
      if (lv == rv) continue;  // degenerate self-comparison
      // Canonical order: smaller var id on the left.
      if (lv <= rv) {
        atom.lhs_var = lv;
        atom.op = inv;
        atom.rhs_is_var = true;
        atom.rhs_var = rv;
      } else {
        atom.lhs_var = rv;
        atom.op = FlipOperands(inv);
        atom.rhs_is_var = true;
        atom.rhs_var = lv;
      }
    } else if (lv >= 0) {
      atom.lhs_var = lv;
      atom.op = inv;
      atom.rhs_is_var = false;
      atom.rhs_const = I.Get(rhs);
    } else {  // rv >= 0: I(lhs) inv I'(rhs)  ==>  I'(rhs) flip(inv) I(lhs)
      atom.lhs_var = rv;
      atom.op = FlipOperands(inv);
      atom.rhs_is_var = false;
      atom.rhs_const = I.Get(lhs);
    }
    // A NULL/fv fixed operand makes the original predicate unconditionally
    // false, so the inverse constraint is vacuous.
    if (!atom.rhs_is_var &&
        (atom.rhs_const.is_null() || atom.rhs_const.is_fresh())) {
      continue;
    }
    atoms->Add(std::move(atom));
  }
}

}  // namespace

std::vector<int> RepairContext::SetCells(const std::vector<Cell>& changing,
                                         int num_rows, int num_attributes) {
  cells_ = changing;
  std::sort(cells_.begin(), cells_.end());
  cells_.erase(std::unique(cells_.begin(), cells_.end()), cells_.end());
  const size_t m = static_cast<size_t>(num_attributes);
  std::vector<int> var_of(static_cast<size_t>(num_rows) * m, -1);
  for (int v = 0; v < static_cast<int>(cells_.size()); ++v) {
    const Cell& cell = cells_[v];
    assert(cell.row >= 0 && cell.row < num_rows && cell.attr >= 0 &&
           cell.attr < num_attributes);  // C ⊆ cells(I)
    var_of[static_cast<size_t>(cell.row) * m + cell.attr] = v;
  }
  return var_of;
}

RepairContext RepairContext::Build(const Relation& I,
                                   const ConstraintSet& sigma,
                                   const std::vector<Cell>& changing,
                                   const std::vector<Violation>& suspects) {
  RepairContext rc;
  const std::vector<int> var_of =
      rc.SetCells(changing, I.num_rows(), I.num_attributes());
  AtomCollector atoms;
  for (const Violation& s : suspects) {
    CollectSuspectAtoms(I, sigma, var_of, s, &atoms);
  }
  rc.atoms_ = atoms.Finish();
  return rc;
}

RepairContext RepairContext::BuildFromScan(const EncodedRelation& E,
                                           const ConstraintSet& sigma,
                                           const std::vector<Cell>& changing,
                                           int64_t* suspects,
                                           EvalCounters* zone_counts) {
  const Relation& I = E.relation();
  RepairContext rc;
  const std::vector<int> var_of =
      rc.SetCells(changing, I.num_rows(), I.num_attributes());
  AtomCollector atoms;
  int64_t count = 0;
  ForEachSuspect(
      E, sigma, rc.cells_,
      [&](const Violation& s) {
        ++count;
        CollectSuspectAtoms(I, sigma, var_of, s, &atoms);
      },
      zone_counts);
  if (suspects) *suspects = count;
  rc.atoms_ = atoms.Finish();
  return rc;
}

std::string RepairContext::ToString(const Relation& I) const {
  const Schema& schema = I.schema();
  std::ostringstream os;
  auto cell_name = [&](const Cell& c) {
    return "t" + std::to_string(c.row) + "." + schema.name(c.attr);
  };
  for (const RcAtom& a : atoms_) {
    os << "I'(" << cell_name(cells_[a.lhs_var]) << ")" << OpToString(a.op);
    if (a.rhs_is_var) {
      os << "I'(" << cell_name(cells_[a.rhs_var]) << ")";
    } else {
      os << a.rhs_const.ToString();
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace cvrepair
