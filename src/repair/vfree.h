#ifndef CVREPAIR_REPAIR_VFREE_H_
#define CVREPAIR_REPAIR_VFREE_H_

#include <optional>
#include <utility>

#include "dc/eval_counters.h"
#include "dc/violation.h"
#include "graph/decompose.h"
#include "graph/vertex_cover.h"
#include "relation/domain_stats.h"
#include "repair/costs.h"
#include "repair/repair_result.h"
#include "repair/subset.h"
#include "solver/components.h"
#include "solver/csp_solver.h"
#include "solver/materialized_cache.h"

namespace cvrepair {

/// Options shared by the Vfree repair entry points.
struct VfreeOptions {
  CostModel cost;
  CoverHeuristic cover = CoverHeuristic::kGreedyDegree;
  SolverOptions solver;
  /// Ignored: components are solved serially. Kept only for the
  /// benchmark's staged replica (perfbench/), and deleted together with
  /// EvalIndex in the next benchmark change.
  int threads = 0;
  /// Ignored. Kept only for the benchmark's staged replica (perfbench/),
  /// and deleted together with EvalIndex in the next benchmark change.
  bool use_encoded = true;
  /// Topology-aware decomposition of giant components (DESIGN.md §12):
  /// components with more than `max_component` cells are split at
  /// low-density articulation vertices (graph/decompose.h), the parts
  /// solved independently — which bounds the size of each CSP solve and
  /// lets a part hit the MaterializedCache — and the boundary-straddling
  /// atoms re-verified by a stitching check that merges and re-solves only
  /// the still-conflicting region. The repaired instance stays
  /// violation-free either way. Off by default.
  bool decompose = false;
  /// Size threshold (in cells) above which a component is split. Only
  /// meaningful with `decompose`.
  int max_component = 24;
  /// How violations are resolved (repair/subset.h): cell updates (the
  /// paper's model, default), tuple deletion (subset repair), or the
  /// hybrid rule — solve with updates, then tombstone any tuple whose
  /// summed update cost exceeds its deletion weight. Deleted tuples are
  /// tombstoned in place (all cells NULL), which keeps row counts and
  /// lets the deletion flow through the encoded backend, ViolationIndex
  /// delta maintenance, and the streaming and serve sessions unchanged.
  RepairStrategy strategy = RepairStrategy::kUpdate;
  /// Deletion weights / representation-cost accounting for kDelete and
  /// kHybrid.
  SubsetOptions subset;
};

// Algorithm 2 (DATAREPAIR) repairs the changing cells C of I w.r.t. Σ in
// a single violation-free round, split in two halves: a plan
// (PlanDirtyComponents: the cover of the violations, then — under the
// update and hybrid strategies — PlanComponents: the suspects of C,
// Definition 6, streamed into their repair contexts, Section 4.1.2, and
// decomposed into components) and ReplayComponents (each component
// solved, reusing MaterializedCache entries across calls when the
// refinement test of Proposition 6 allows, and the cost abort of lines
// 18-19). Every round of every caller runs this one plan and this one
// replay. Applying a replayed repair to I satisfies Σ by Proposition 5.
// SolveDirtyComponents runs one round from a detected violation set, and
// VfreeRepair is the standalone algorithm.

/// A component-scoped repair: the cell assignments that fix the dirty
/// components, without materializing a copy of the untouched remainder of
/// the instance. Assignments are in replay (component, cell) order; fresh
/// ids are already minted from the caller's counter.
struct ScopedRepair {
  std::vector<std::pair<Cell, Value>> assignments;
  double cost = 0.0;   ///< summed component solution costs
  int components = 0;  ///< components solved or answered by the cache
};

/// The pure half of one DataRepair round (Algorithm 2 up to the component
/// list): a function of (I, Σ, violations or C) and the options alone, so
/// plans for different rounds can be built concurrently and in any order.
/// The work counters the planning spent are carried here instead of
/// published, and ReplayComponents publishes them — a plan that is never
/// replayed leaves no trace in RepairStats or the work counters.
struct ComponentPlan {
  std::vector<Component> components;
  /// Per component when decomposition is on, else empty (DESIGN.md §12).
  std::vector<SplitPlan> splits;
  int64_t suspects = 0;
  int64_t giant_component_cells = 0;
  int64_t components_split = 0;
  /// Zone-map consults of the suspect scan (blocks_scanned/_skipped).
  EvalCounters zone_counts;
  /// The delete strategy's round: the tuple cover of the violations
  /// (SubsetCoverRepair), with no components. Unset under the update and
  /// hybrid strategies.
  std::optional<SubsetRepair> deletion;
};

/// Plans the repair of the changing cells `changing`: the suspects of C
/// stream into the repair context (RepairContext::BuildFromScan over
/// `encoded`, the mirror of I), which is decomposed into components;
/// oversized ones get split plans under `options.decompose`. Pure: touches
/// no shared state, so it may run on any pool thread.
ComponentPlan PlanComponents(const ConstraintSet& sigma,
                             const std::vector<Cell>& changing,
                             const VfreeOptions& options,
                             const EncodedRelation& encoded);

/// The plan of one DataRepair round over an already-detected violation
/// set, one view per position of `sigma`, each in rows order (the
/// canonical order of CanonicalizeViolations; ViewsByPosition slices such
/// a list). Empty when there are no violations; the tuple cover under
/// kDelete; otherwise conflict hypergraph -> vertex cover -> PlanComponents,
/// with the hypergraph freed before the suspect scan. The hypergraph reads
/// the views in place, in (position, rows) order, so no violation is
/// copied or re-stamped. Pure, like PlanComponents.
ComponentPlan PlanDirtyComponents(const Relation& I,
                                  const DomainStats& stats_of_I,
                                  const ConstraintSet& sigma,
                                  const ViolationsByPosition& violations,
                                  const VfreeOptions& options,
                                  const EncodedRelation& encoded);

/// The serial half of a DataRepair round. An empty plan is an empty
/// repair. A deletion plan is its tombstones, whose rows are added to
/// `stats` before the cost test. Otherwise it publishes the counters `plan`
/// carries, then resolves each component in order — a cache lookup, else a
/// solve and a store — with fresh-id minting from `fresh_counter`,
/// stitching of split components and the hybrid post-pass. Returns
/// std::nullopt when the cost exceeds `delta_min` (the Alg. 2 cost abort).
std::optional<ScopedRepair> ReplayComponents(
    const Relation& I, const DomainStats& stats_of_I, const ComponentPlan& plan,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter);

/// Sorts violations into the canonical (constraint_index, rows) order —
/// the order ViolationIndex::CurrentViolations emits. Entry points taking
/// an externally detected violation set canonicalize first, so a
/// delta-maintained set and a full-scan set that agree as *sets* yield
/// bit-identical repairs.
void CanonicalizeViolations(std::vector<Violation>* violations);

/// One violation-free repair round driven by an already-detected
/// violation set (e.g. the delta-maintained set of a StreamingRepairer),
/// as views in the order PlanDirtyComponents reads:
/// ReplayComponents(PlanDirtyComponents(...)). Rows not reachable from
/// `violations` are never touched, which is what scopes a streaming
/// batch's work to its dirty components.
std::optional<ScopedRepair> SolveDirtyComponents(
    const Relation& I, const DomainStats& stats_of_I,
    const ConstraintSet& sigma, const ViolationsByPosition& violations,
    double delta_min, const VfreeOptions& options, MaterializedCache* cache,
    RepairStats* stats, int64_t* fresh_counter,
    const EncodedRelation& encoded);

/// The standalone Vfree repair algorithm (Section 4): detects the
/// violations of `sigma` and runs one SolveDirtyComponents round on them
/// (under the update and hybrid strategies an approximate minimum vertex
/// cover is the changing set) with no cost bound and no cache. The result
/// satisfies `sigma`.
RepairResult VfreeRepair(const Relation& I, const ConstraintSet& sigma,
                         const VfreeOptions& options = {});

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_VFREE_H_
