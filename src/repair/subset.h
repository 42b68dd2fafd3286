#ifndef CVREPAIR_REPAIR_SUBSET_H_
#define CVREPAIR_REPAIR_SUBSET_H_

#include <string>
#include <utility>
#include <vector>

#include "dc/violation.h"
#include "relation/domain_stats.h"
#include "relation/relation.h"
#include "repair/costs.h"

namespace cvrepair {

/// How a repair round resolves violations (DESIGN.md §14).
///   kUpdate — the paper's cell-update model: change cell values
///             (Definition 1), fresh variables as last resort.
///   kDelete — subset repair: delete whole tuples (weighted vertex cover
///             over the conflict hypergraph's tuple projection, per Liu et
///             al., *The Cost of Representation by Subset Repairs*).
///   kHybrid — update first, then delete any tuple whose summed update
///             cost exceeds its deletion weight.
enum class RepairStrategy {
  kUpdate = 0,
  kDelete = 1,
  kHybrid = 2,
};

/// "update", "delete", "hybrid".
std::string RepairStrategyToString(RepairStrategy strategy);

/// Parses the tokens accepted by RepairStrategyToString. Returns false on
/// an unknown token.
bool ParseRepairStrategy(const std::string& token, RepairStrategy* out);

/// Knobs of the subset-repair strategy.
struct SubsetOptions {
  /// Grouping attribute for representation-cost accounting: tuples from
  /// rarer groups of this attribute cost more to delete, so minority
  /// groups are not disproportionately erased by the cover. -1 = uniform
  /// deletion weights.
  AttrId repr_attr = -1;
  /// Strength of the representation skew: a vanishing group's weight is
  /// delete_base * (1 + alpha); a group covering the whole instance pays
  /// delete_base.
  double alpha = 1.0;
  /// Base deletion weight of one tuple, in the same units as cell-update
  /// costs (count model: one changed cell costs 1). The hybrid rule
  /// deletes a tuple only when its summed update cost exceeds its
  /// deletion weight, so delete_base is the update-cost budget a tuple
  /// gets before deletion wins.
  double delete_base = 3.0;
};

/// The deletion weight of `row`: delete_base scaled by the representation
/// factor 1 + alpha * (1 - |group(row)| / |I|), where the group is the set
/// of rows sharing `row`'s value of repr_attr (frequencies from `stats`;
/// NULL/fresh group values count as a vanishing group). Uniform
/// (delete_base) when repr_attr is unset.
double RowDeletionWeight(const Relation& I, const DomainStats& stats, int row,
                         const SubsetOptions& options);

/// The outcome of one repair round of I: the cell assignments that fix it,
/// without a copy of the untouched remainder of the instance. Each cell is
/// assigned at most once. A deleted row is a tombstone in place — every
/// non-NULL cell of the row is assigned NULL — so the instance keeps its
/// row count and the tombstone flows through the encoded backend
/// (sentinel codes + zone-map refresh), ViolationIndex delta maintenance,
/// and the streaming and serve sessions unchanged. NULL satisfies no DC
/// predicate, so a tombstoned tuple can never participate in a violation
/// again and deletions never create new ones.
struct ScopedRepair {
  /// In replay (component, cell) order, or ascending for a tuple cover or
  /// an instance diff; fresh ids are already minted from the caller's
  /// counter.
  std::vector<std::pair<Cell, Value>> assignments;
  /// The running sum the Alg. 2 cost abort tests: component solution
  /// costs in component order, or a tuple cover's deletion weights in
  /// pick order. TallyRepair prices the repair itself.
  double cost = 0.0;
  /// Components solved or answered by the cache; a tuple cover's
  /// tombstoned rows.
  int components = 0;
};

/// Resolves `violations` by tuple deletion: a greedy weighted vertex cover
/// over the tuple projection of the conflict hypergraph (vertices = rows,
/// hyperedges = each violation's row set; repeatedly pick the row with the
/// highest uncovered-edges-per-weight ratio, ties to the smaller row id,
/// until every edge is covered), tombstoned in ascending row order. Reads
/// only the row sets, so the views' split by position does not matter.
/// Deterministic for a given violation set. Pure: the delete strategy's
/// plan of a DataRepair round (repair/vfree.h), which the replay publishes.
ScopedRepair SubsetCoverRepair(const Relation& I, const DomainStats& stats_of_I,
                               const ViolationsByPosition& violations,
                               const SubsetOptions& options);

/// What one repair of I does, counted once.
struct RepairTally {
  double cost = 0.0;          ///< Δ(I, I') under the strategy
  int changed_cells = 0;      ///< cells whose value changes
  int fresh_assignments = 0;  ///< changed cells that become fresh
  int rows_deleted = 0;       ///< tombstoned rows (delete, hybrid)
};

/// Tallies the repair of I that `assignments` describe (each cell at most
/// once, in any order): the one definition of its cost. Under the delete
/// and hybrid strategies a row that was not all NULL and is all NULL
/// after the repair is tombstoned and costs its deletion weight; every
/// other changed cell costs CellDist. The terms are summed in (row, attr)
/// order, so a repair priced from its assignments and from the diff of
/// its instance (ChangedCells) costs the same to the bit. `stats_of_I`,
/// the DomainStats of I, is read only for deletion weights.
RepairTally TallyRepair(const Relation& I, const DomainStats& stats_of_I,
                        const std::vector<std::pair<Cell, Value>>& assignments,
                        const CostModel& cost, RepairStrategy strategy,
                        const SubsetOptions& subset);

/// TallyRepair(before, stats_of_before, ChangedCells(before, after), ...)
/// .cost: the total repair cost of `after` under `strategy`, which makes
/// kUpdate exactly RepairCost.
double StrategyRepairCost(const Relation& before, const Relation& after,
                          const CostModel& cost, RepairStrategy strategy,
                          const SubsetOptions& options,
                          const DomainStats& stats_of_before);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_SUBSET_H_
