#ifndef CVREPAIR_REPAIR_GREEDY_H_
#define CVREPAIR_REPAIR_GREEDY_H_

#include "repair/costs.h"
#include "repair/repair_result.h"

namespace cvrepair {

/// Options for the Greedy DC baseline.
struct GreedyOptions {
  CostModel cost;
};

/// Greedy repair for denial constraints (Lopatenko & Bravo, ICDE 2007
/// [16]): repeatedly pick the cell involved in the largest number of
/// current violations, assign it the active-domain value that resolves
/// the most of *its* violations (ties broken by proximity for numeric
/// attributes, frequency otherwise), and recompute. Cells that keep
/// conflicting (picked a third time) are escalated to fresh variables, so
/// the output satisfies the constraints.
RepairResult GreedyRepair(const Relation& I, const ConstraintSet& sigma,
                          const GreedyOptions& options = {});

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_GREEDY_H_
