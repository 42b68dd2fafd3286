#include "repair/subset.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace cvrepair {

std::string RepairStrategyToString(RepairStrategy strategy) {
  switch (strategy) {
    case RepairStrategy::kUpdate:
      return "update";
    case RepairStrategy::kDelete:
      return "delete";
    case RepairStrategy::kHybrid:
      return "hybrid";
  }
  return "update";
}

bool ParseRepairStrategy(const std::string& token, RepairStrategy* out) {
  if (token == "update") {
    *out = RepairStrategy::kUpdate;
  } else if (token == "delete") {
    *out = RepairStrategy::kDelete;
  } else if (token == "hybrid") {
    *out = RepairStrategy::kHybrid;
  } else {
    return false;
  }
  return true;
}

double RowDeletionWeight(const Relation& I, const DomainStats& stats, int row,
                         const SubsetOptions& options) {
  if (options.repr_attr < 0 || I.num_rows() == 0) return options.delete_base;
  const Value& group = I.Get(row, options.repr_attr);
  // NULL/fresh group values are excluded from the frequency table, which
  // makes them a vanishing group — maximally protected, and exactly what a
  // tombstoned row reads as (its weight is never consulted again anyway).
  int freq = (group.is_null() || group.is_fresh())
                 ? 0
                 : stats.Frequency(options.repr_attr, group);
  double share = static_cast<double>(freq) / I.num_rows();
  return options.delete_base * (1.0 + options.alpha * (1.0 - share));
}

SubsetRepair SubsetCoverRepair(const Relation& I, const DomainStats& stats_of_I,
                               const ViolationsByPosition& violations,
                               const SubsetOptions& options) {
  SubsetRepair result;
  // Hyperedges of the tuple projection: each violation's deduplicated row
  // set (a single-tuple violation is a unit edge and forces its row).
  std::vector<std::vector<int>> edges;
  std::unordered_map<int, std::vector<int>> edges_of_row;
  for (std::span<const Violation> view : violations) {
    for (const Violation& v : view) {
      std::vector<int> rows = v.rows;
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
      int e = static_cast<int>(edges.size());
      for (int r : rows) edges_of_row[r].push_back(e);
      edges.push_back(std::move(rows));
    }
  }

  std::unordered_map<int, double> weight_of;
  auto weight = [&](int row) {
    auto it = weight_of.find(row);
    if (it != weight_of.end()) return it->second;
    double w = RowDeletionWeight(I, stats_of_I, row, options);
    weight_of.emplace(row, w);
    return w;
  };

  // Greedy weighted cover: repeatedly delete the row with the best
  // uncovered-edges-per-weight ratio (ties to the smaller row id — the
  // deterministic tie-break every cover heuristic in this repo uses).
  std::vector<bool> covered(edges.size(), false);
  size_t remaining = edges.size();
  std::unordered_set<int> deleted;
  while (remaining > 0) {
    int best_row = -1;
    double best_ratio = 0.0;
    for (const auto& [row, incident] : edges_of_row) {
      if (deleted.count(row)) continue;
      int uncovered = 0;
      for (int e : incident) {
        if (!covered[e]) ++uncovered;
      }
      if (uncovered == 0) continue;
      double ratio = uncovered / weight(row);
      if (best_row == -1 || ratio > best_ratio ||
          (ratio == best_ratio && row < best_row)) {
        best_row = row;
        best_ratio = ratio;
      }
    }
    if (best_row == -1) break;  // every remaining edge is already covered
    deleted.insert(best_row);
    result.cost += weight(best_row);
    for (int e : edges_of_row[best_row]) {
      if (!covered[e]) {
        covered[e] = true;
        --remaining;
      }
    }
  }

  // Tombstone in ascending row order so the assignment list is canonical.
  std::vector<int> rows(deleted.begin(), deleted.end());
  std::sort(rows.begin(), rows.end());
  for (int row : rows) {
    for (AttrId a = 0; a < I.num_attributes(); ++a) {
      if (!I.Get(row, a).is_null()) {
        result.assignments.emplace_back(Cell{row, a}, Value::Null());
      }
    }
  }
  result.rows_deleted = static_cast<int>(rows.size());
  return result;
}

bool RowDeleted(const Relation& before, const Relation& after, int row) {
  bool was_all_null = true;
  for (AttrId a = 0; a < before.num_attributes(); ++a) {
    if (!before.Get(row, a).is_null()) {
      was_all_null = false;
      break;
    }
  }
  if (was_all_null) return false;
  for (AttrId a = 0; a < after.num_attributes(); ++a) {
    if (!after.Get(row, a).is_null()) return false;
  }
  return true;
}

double StrategyRepairCost(const Relation& before, const Relation& after,
                          const CostModel& cost, RepairStrategy strategy,
                          const SubsetOptions& options,
                          const DomainStats& stats_of_before) {
  if (strategy == RepairStrategy::kUpdate) {
    return RepairCost(before, after, cost);
  }
  double total = 0.0;
  for (int row = 0; row < before.num_rows(); ++row) {
    if (RowDeleted(before, after, row)) {
      total += RowDeletionWeight(before, stats_of_before, row, options);
      continue;
    }
    for (AttrId a = 0; a < before.num_attributes(); ++a) {
      const Value& b = before.Get(row, a);
      const Value& v = after.Get(row, a);
      if (!(b == v)) total += cost.CellDist({row, a}, b, v);
    }
  }
  return total;
}

}  // namespace cvrepair
