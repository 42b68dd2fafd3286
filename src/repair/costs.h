#ifndef CVREPAIR_REPAIR_COSTS_H_
#define CVREPAIR_REPAIR_COSTS_H_

#include <utility>
#include <vector>

#include "relation/relation.h"
#include "relation/value.h"
#include "repair/cell_weights.h"

namespace cvrepair {

/// Distance/cost model for data repairs (Definition 1).
///
/// The paper's experiments use the *count* cost: dist(a, a) = 0,
/// dist(a, b) = 1 for a != b from the active domain, and
/// dist(a, fv) = fresh_cost (1.1 by default) for fresh-variable
/// assignments. A normalized absolute-difference mode for numeric cells is
/// provided for ablations.
struct CostModel {
  enum class Kind {
    kCount,
    /// |a - b| / scale for numeric pairs, count cost otherwise.
    kNumericAbs,
    /// Normalized Levenshtein distance for string pairs (the paper's
    /// edit-distance alternative [17]), count cost otherwise.
    kEditDistance,
  };

  Kind kind = Kind::kCount;
  /// Cost of assigning a fresh variable; the paper uses 1.1 so that
  /// in-domain repairs are always preferred (dist(a,b) < dist(a,fv)).
  double fresh_cost = 1.1;
  /// Scale for kNumericAbs (e.g., the attribute range).
  double numeric_scale = 1.0;

  /// Per-cell weights w(t.A) of Definition 1 (not owned; nullptr = 1).
  const CellWeights* cell_weights = nullptr;

  /// dist(original, repaired). Symmetric for concrete values.
  double Dist(const Value& original, const Value& repaired) const;

  /// w(t.A) for one cell (1 when no weights are attached).
  double CellWeight(const Cell& cell) const {
    return cell_weights == nullptr ? 1.0 : cell_weights->Get(cell);
  }

  /// w(t.A) · dist(original, repaired) — the Definition 1 summand.
  double CellDist(const Cell& cell, const Value& original,
                  const Value& repaired) const {
    return CellWeight(cell) * Dist(original, repaired);
  }

  /// The minimum positive cost of changing a cell away from `original`
  /// (the vertex weight of Section 3.2.2): the cheapest in-domain change
  /// if the attribute has an alternative value, otherwise fresh_cost.
  double MinChangeCost(bool has_domain_alternative) const {
    if (kind == Kind::kCount) return has_domain_alternative ? 1.0 : fresh_cost;
    return has_domain_alternative ? 0.0 : fresh_cost;
  }
};

/// The cells whose value differs between two instances with identical
/// schema and row counts, each with its value in `after`, in (row, attr)
/// order: the assignments that repair `before` into `after`.
std::vector<std::pair<Cell, Value>> ChangedCells(const Relation& before,
                                                 const Relation& after);

/// Δ(I, I'): total repair cost between two instances with identical schema
/// and row counts (Definition 1), priced by TallyRepair (repair/subset.h)
/// under the update strategy.
double RepairCost(const Relation& before, const Relation& after,
                  const CostModel& cost = {});

/// Number of cells whose value differs between the two instances.
int ChangedCellCount(const Relation& before, const Relation& after);

/// Levenshtein edit distance between two strings.
int EditDistance(const std::string& a, const std::string& b);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_COSTS_H_
