#ifndef CVREPAIR_TESTS_REFERENCE_SCAN_H_
#define CVREPAIR_TESTS_REFERENCE_SCAN_H_

// The reference detector the scan tests compare against: viol(I, Σ)
// (Definition 5) and susp(C, φ) (Definition 6) computed the naive way.
// It enumerates every tuple list — each row for a 1-tuple constraint,
// each ordered pair of distinct rows for a 2-tuple one — and applies
// DenialConstraint::IsViolated, or the suspect condition predicate by
// predicate, to the row-major Values. It uses nothing but the storage
// API and the constraint model: no partitioning, dictionary codes,
// kernels, zone maps, sharding or thread pool, so it shares no failure
// mode with dc/violation.cc. O(|I|²) per 2-tuple constraint, so keep the
// instances it checks small.
//
// ReferenceHypergraph is the conflict hypergraph of Section 3.2.1 built
// the same naive way (ordered maps, boxed value counts), for comparison
// with graph/conflict_hypergraph.cc, and ReferenceContextAtoms the atoms
// of the repair context rc(C, Σ) of Section 4.1.2 (an ordered set of
// boxed atoms), for comparison with solver/repair_context.cc.
//
// ReferenceRepairCost is Definition 1's Δ(I, I') summed cell by cell over
// two whole instances, with a tombstoned row priced at its deletion
// weight, for comparison with repair/subset.cc's TallyRepair.

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dc/constraint.h"
#include "dc/op.h"
#include "dc/violation.h"
#include "relation/relation.h"
#include "repair/costs.h"
#include "repair/subset.h"
#include "solver/repair_context.h"

namespace cvrepair {
namespace reference {

/// One tuple list of a constraint: (index of the constraint in Σ, rows),
/// where rows[i] instantiates tuple variable t_i.
using TupleList = std::pair<int, std::vector<int>>;

/// Calls visit(rows) for every tuple list over `n` rows of a constraint
/// with `arity` tuple variables, in ascending lexicographic rows order.
template <typename Visit>
void ForEachTupleList(int n, int arity, const Visit& visit) {
  std::vector<int> rows(static_cast<size_t>(arity));
  if (arity == 1) {
    for (int i = 0; i < n; ++i) {
      rows[0] = i;
      visit(rows);
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      rows[0] = i;
      rows[1] = j;
      visit(rows);
    }
  }
}

/// viol(I, Σ): every tuple list on which all predicates of some φ ∈ Σ
/// hold, sorted by (constraint, rows).
inline std::vector<TupleList> ReferenceViolations(const Relation& I,
                                                  const ConstraintSet& sigma) {
  std::vector<TupleList> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    ForEachTupleList(I.num_rows(), c.NumTupleVars(),
                     [&](const std::vector<int>& rows) {
                       if (c.IsViolated(I, rows)) {
                         out.push_back({static_cast<int>(k), rows});
                       }
                     });
  }
  return out;
}

/// susp(C, φ) for every φ ∈ Σ: the tuple lists on which every predicate
/// with no cell in C holds, restricted to those with at least one
/// predicate on a cell of C (the others cannot change when only C does).
/// Sorted by (constraint, rows).
inline std::vector<TupleList> ReferenceSuspects(
    const Relation& I, const ConstraintSet& sigma,
    const std::unordered_set<Cell, CellHash>& changing) {
  std::vector<TupleList> out;
  for (size_t k = 0; k < sigma.size(); ++k) {
    const DenialConstraint& c = sigma[k];
    ForEachTupleList(
        I.num_rows(), c.NumTupleVars(), [&](const std::vector<int>& rows) {
          bool touches = false;
          for (const Predicate& p : c.predicates()) {
            bool on_changing = false;
            for (const Cell& cell : p.Cells(rows)) {
              on_changing = on_changing || changing.count(cell) > 0;
            }
            if (on_changing) {
              touches = true;
            } else if (!p.Eval(I, rows)) {
              return;
            }
          }
          if (touches) out.push_back({static_cast<int>(k), rows});
        });
  }
  return out;
}

/// The conflict hypergraph of `violations`, field by field as
/// ConflictHypergraph's accessors report it.
struct Hypergraph {
  std::vector<Cell> cells;
  std::vector<double> weights;
  std::vector<int> value_frequency;
  std::vector<int> domain_size;
  std::vector<bool> on_inequality_predicate;
  std::vector<std::vector<int>> edges;     // sorted vertex ids
  std::vector<std::vector<int>> incident;  // ascending edge ids per vertex
};

/// Vertices are the cells of ViolationCells, numbered in first-seen order
/// over `violations`; a vertex weighs the fresh cost when its attribute
/// has no other non-NULL, non-fresh value in I, else the cheapest change.
/// Value frequencies count equal Values (Value::operator==, so Int(1) and
/// Double(1.0) are two values). Edges are the sorted vertex sets of the
/// violations, each kept once, in first-seen order.
inline Hypergraph ReferenceHypergraph(const Relation& I,
                                      const ConstraintSet& sigma,
                                      const std::vector<Violation>& violations,
                                      const CostModel& cost = {}) {
  std::vector<std::map<Value, int>> counts(
      static_cast<size_t>(I.num_attributes()));
  for (int i = 0; i < I.num_rows(); ++i) {
    for (AttrId a = 0; a < I.num_attributes(); ++a) {
      const Value& v = I.Get(i, a);
      if (!v.is_null() && !v.is_fresh()) ++counts[static_cast<size_t>(a)][v];
    }
  }
  Hypergraph g;
  std::map<Cell, int> vertex_of;
  std::set<std::vector<int>> seen_edges;
  for (const Violation& viol : violations) {
    const DenialConstraint& c =
        sigma[static_cast<size_t>(viol.constraint_index)];
    std::vector<int> edge;
    for (const Cell& cell : ViolationCells(c, viol.rows)) {
      auto [it, inserted] =
          vertex_of.emplace(cell, static_cast<int>(g.cells.size()));
      if (inserted) {
        const std::map<Value, int>& attr_counts =
            counts[static_cast<size_t>(cell.attr)];
        auto own = attr_counts.find(I.Get(cell));
        const int freq = own == attr_counts.end() ? 0 : own->second;
        const int domain = static_cast<int>(attr_counts.size());
        g.cells.push_back(cell);
        g.weights.push_back(cost.CellWeight(cell) *
                            cost.MinChangeCost(domain > (freq > 0 ? 1 : 0)));
        g.value_frequency.push_back(freq);
        g.domain_size.push_back(domain);
        g.on_inequality_predicate.push_back(false);
      }
      edge.push_back(it->second);
    }
    for (const Predicate& p : c.predicates()) {
      if (p.op() == Op::kEq) continue;
      for (const Cell& cell : p.Cells(viol.rows)) {
        g.on_inequality_predicate[static_cast<size_t>(vertex_of.at(cell))] =
            true;
      }
    }
    std::sort(edge.begin(), edge.end());
    edge.erase(std::unique(edge.begin(), edge.end()), edge.end());
    if (!edge.empty() && seen_edges.insert(edge).second) {
      g.edges.push_back(edge);
    }
  }
  g.incident.resize(g.cells.size());
  for (size_t e = 0; e < g.edges.size(); ++e) {
    for (int v : g.edges[e]) {
      g.incident[static_cast<size_t>(v)].push_back(static_cast<int>(e));
    }
  }
  return g;
}

/// The atoms of rc(C, Σ): the inverse of every predicate of every
/// ReferenceSuspects list that has a cell in C, as an RcAtom over the
/// variables of C (its distinct cells numbered in (row, attr) order), in
/// an ordered set; an atom whose fixed operand is NULL or fresh is
/// vacuous and dropped. Then, per (variable, operator), only the tightest
/// numeric bound (>, >=, <, <= against a numeric constant) is kept, the
/// smallest atom among equally tight ones. Ascending RcAtom order. It
/// shares nothing with solver/repair_context.cc but the RcAtom type.
inline std::vector<RcAtom> ReferenceContextAtoms(
    const Relation& I, const ConstraintSet& sigma,
    const std::unordered_set<Cell, CellHash>& changing) {
  std::map<Cell, int> var_of;
  for (const Cell& cell : std::set<Cell>(changing.begin(), changing.end())) {
    var_of.emplace(cell, static_cast<int>(var_of.size()));
  }
  auto var = [&](const Cell& cell) {
    auto it = var_of.find(cell);
    return it == var_of.end() ? -1 : it->second;
  };
  std::set<RcAtom> atoms;
  for (const auto& [k, rows] : ReferenceSuspects(I, sigma, changing)) {
    for (const Predicate& p : sigma[static_cast<size_t>(k)].predicates()) {
      const Cell lhs{rows[static_cast<size_t>(p.lhs().tuple)], p.lhs().attr};
      const int lv = var(lhs);
      const Op inv = Inverse(p.op());
      RcAtom atom;
      if (p.has_constant()) {
        if (lv < 0) continue;
        atom = {lv, inv, false, 0, p.constant()};
      } else {
        const Cell rhs{rows[static_cast<size_t>(p.rhs_cell().tuple)],
                       p.rhs_cell().attr};
        const int rv = var(rhs);
        if (lv >= 0 && rv >= 0) {
          if (lv == rv) continue;
          atom = lv < rv ? RcAtom{lv, inv, true, rv, {}}
                         : RcAtom{rv, FlipOperands(inv), true, lv, {}};
        } else if (lv >= 0) {
          atom = {lv, inv, false, 0, I.Get(rhs)};
        } else if (rv >= 0) {
          atom = {rv, FlipOperands(inv), false, 0, I.Get(lhs)};
        } else {
          continue;
        }
      }
      if (!atom.rhs_is_var &&
          (atom.rhs_const.is_null() || atom.rhs_const.is_fresh())) {
        continue;
      }
      atoms.insert(atom);
    }
  }
  std::vector<RcAtom> out;
  std::map<std::pair<int, Op>, RcAtom> tightest;
  for (const RcAtom& atom : atoms) {
    const bool lower = atom.op == Op::kGt || atom.op == Op::kGeq;
    const bool upper = atom.op == Op::kLt || atom.op == Op::kLeq;
    if (atom.rhs_is_var || !atom.rhs_const.is_numeric() || !(lower || upper)) {
      out.push_back(atom);
      continue;
    }
    auto [it, first] = tightest.emplace(std::pair(atom.lhs_var, atom.op), atom);
    const double x = atom.rhs_const.numeric();
    const double best = it->second.rhs_const.numeric();
    // Ascending order: an equally tight atom met later is the larger one.
    if (!first && (lower ? x > best : x < best)) it->second = atom;
  }
  for (const auto& [slot, atom] : tightest) out.push_back(atom);
  std::sort(out.begin(), out.end());
  return out;
}

/// True iff `row` is all NULL in `after` but not in `before`: a tuple the
/// repair deleted.
inline bool Tombstoned(const Relation& before, const Relation& after,
                       int row) {
  bool was_all_null = true;
  bool all_null = true;
  for (AttrId a = 0; a < before.num_attributes(); ++a) {
    was_all_null = was_all_null && before.Get(row, a).is_null();
    all_null = all_null && after.Get(row, a).is_null();
  }
  return !was_all_null && all_null;
}

/// Δ(before, after): CostModel::CellDist summed over every cell in (row,
/// attr) order, except that under the delete and hybrid strategies a
/// Tombstoned row adds its deletion weight instead of its cells:
/// delete_base · (1 + alpha · (1 − k/|I|)), where k counts the rows of
/// `before` whose repr_attr value equals the row's (0 for a NULL or fresh
/// value, and no skew without a repr_attr).
inline double ReferenceRepairCost(const Relation& before,
                                  const Relation& after, const CostModel& cost,
                                  RepairStrategy strategy,
                                  const SubsetOptions& subset) {
  double total = 0.0;
  for (int row = 0; row < before.num_rows(); ++row) {
    if (strategy != RepairStrategy::kUpdate &&
        Tombstoned(before, after, row)) {
      double weight = subset.delete_base;
      if (subset.repr_attr >= 0) {
        const Value& group = before.Get(row, subset.repr_attr);
        int k = 0;
        for (int r = 0; r < before.num_rows(); ++r) {
          k += !group.is_null() && !group.is_fresh() &&
               before.Get(r, subset.repr_attr) == group;
        }
        const double share = static_cast<double>(k) / before.num_rows();
        weight = subset.delete_base * (1.0 + subset.alpha * (1.0 - share));
      }
      total += weight;
      continue;
    }
    for (AttrId a = 0; a < before.num_attributes(); ++a) {
      total += cost.CellDist({row, a}, before.Get(row, a), after.Get(row, a));
    }
  }
  return total;
}

/// A scan's output — any list of records with `constraint_index` and
/// `rows` — as sorted TupleLists, for comparison with the functions above.
/// Duplicates are kept, so a scan that emits a tuple list twice differs.
template <typename Found>
std::vector<TupleList> Sorted(const std::vector<Found>& found) {
  std::vector<TupleList> out;
  out.reserve(found.size());
  for (const Found& f : found) out.push_back({f.constraint_index, f.rows});
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace reference
}  // namespace cvrepair

#endif  // CVREPAIR_TESTS_REFERENCE_SCAN_H_
