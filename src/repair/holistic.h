#ifndef CVREPAIR_REPAIR_HOLISTIC_H_
#define CVREPAIR_REPAIR_HOLISTIC_H_

#include "dc/violation.h"
#include "repair/costs.h"
#include "repair/repair_result.h"
#include "solver/csp_solver.h"

namespace cvrepair {

/// Options for the Holistic baseline.
struct HolisticOptions {
  CostModel cost;
  SolverOptions solver;
};

/// Holistic data repairing (Chu, Ilyas, Papotti, ICDE 2013 [8]),
/// reimplemented as the paper's baseline: each round detects the current
/// violations, selects cover cells, and assembles repair contexts from the
/// *violations only* (no suspects). Because a round's assignments can
/// introduce new violations, the algorithm loops until the instance is
/// clean — the multi-round behaviour the Vfree algorithm is designed to
/// avoid (Section 4) — or until 25 rounds have run, when every cell of a
/// cover of the remaining violations is forced to a fresh variable. Covers
/// use the greedy-degree heuristic.
RepairResult HolisticRepair(const Relation& I, const ConstraintSet& sigma,
                            const HolisticOptions& options = {});

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_HOLISTIC_H_
