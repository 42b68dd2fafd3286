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

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dc/constraint.h"
#include "relation/relation.h"

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
