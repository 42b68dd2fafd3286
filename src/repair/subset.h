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

/// A tuple-deletion repair: tombstone assignments plus its cost. Deleted
/// rows are represented in place — every non-NULL cell of the row is
/// assigned NULL — so the instance keeps its row count and the tombstone
/// flows through the encoded backend (sentinel codes + zone-map refresh),
/// ViolationIndex delta maintenance, and the streaming and serve sessions
/// unchanged. NULL satisfies no DC predicate, so a tombstoned tuple can
/// never participate in a violation again and deletions never create new
/// ones.
struct SubsetRepair {
  std::vector<std::pair<Cell, Value>> assignments;
  double cost = 0.0;  ///< summed deletion weights
  int rows_deleted = 0;
};

/// Resolves `violations` by tuple deletion: a greedy weighted vertex cover
/// over the tuple projection of the conflict hypergraph (vertices = rows,
/// hyperedges = each violation's row set; repeatedly pick the row with the
/// highest uncovered-edges-per-weight ratio, ties to the smaller row id,
/// until every edge is covered). Reads only the row sets, so the views'
/// split by position does not matter. Deterministic for a given violation
/// set. Pure: the delete strategy's plan of a DataRepair round
/// (repair/vfree.h), which the replay publishes.
SubsetRepair SubsetCoverRepair(const Relation& I, const DomainStats& stats_of_I,
                               const ViolationsByPosition& violations,
                               const SubsetOptions& options);

/// True iff `row` is tombstoned in `after` but was not already all-NULL in
/// `before`.
bool RowDeleted(const Relation& before, const Relation& after, int row);

/// Total repair cost of `after` under `strategy`: deleted rows cost their
/// deletion weight, every other changed cell costs CellDist — which makes
/// kUpdate exactly RepairCost. `stats_of_before` supplies the group
/// frequencies for the deletion weights.
double StrategyRepairCost(const Relation& before, const Relation& after,
                          const CostModel& cost, RepairStrategy strategy,
                          const SubsetOptions& options,
                          const DomainStats& stats_of_before);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_SUBSET_H_
