#ifndef CVREPAIR_REPAIR_CVTOLERANT_H_
#define CVREPAIR_REPAIR_CVTOLERANT_H_

#include <chrono>
#include <limits>

#include "dc/eval_counters.h"
#include "repair/repair_result.h"
#include "repair/vfree.h"
#include "variation/variant_generator.h"

namespace cvrepair {

/// Options for the θ-tolerant repair (Algorithm 1).
struct CVTolerantOptions {
  /// Variant enumeration, including θ and the variation cost model.
  VariantGenOptions variants;
  /// Data-repair engine configuration (cost model, cover, solver).
  VfreeOptions vfree;
  /// When false, each candidate variant is repaired with the multi-round
  /// Holistic engine instead of Vfree (the "CVtolerant + Holistic"
  /// configuration of Figure 5). Sharing and cost-abort pruning are not
  /// available in that mode, and Holistic runs with its defaults under
  /// vfree.cost.
  bool use_vfree = true;
  /// Share materialized component solutions across variants (Section 4.2).
  bool enable_sharing = true;
  /// Skip variants whose lower bound exceeds the best known repair cost
  /// (Section 3.2, Algorithm 1 line 3).
  bool enable_bound_pruning = true;
  /// Hard budget on DataRepair invocations. Candidates are processed in
  /// ascending-δ_l order (cheap variants first), so the budget cuts the
  /// long tail of near-tied candidates that bound pruning alone cannot
  /// separate; the paper reports most runs settle within 2 calls.
  int max_datarepair_calls = 64;
  /// Constraint variants violated more often than this factor times |I|
  /// are abandoned as hopeless (their minimum repair cannot win): their
  /// enumeration is cut short and their lower bound set to +inf. 0
  /// disables the cap.
  double max_violations_per_tuple = 50.0;
  /// Thread budget for this repair: 0 = the global ThreadPool setting,
  /// 1 = serial, N = up to N threads. It bounds Algorithm 1's two parallel
  /// loops (DESIGN.md §7): the fact scans, one distinct constraint per
  /// iteration, and the candidate search's speculation window, where up to
  /// ThreadPool::EffectiveThreads(threads) candidates are planned at once.
  /// Everything inside those loops runs serially. Every thread count yields
  /// bit-identical RepairResults, RepairStats and work counters; only
  /// wall-clock time changes.
  int threads = 0;
  /// Ignored. Kept only for the benchmark's staged replica (perfbench/),
  /// and deleted together with EvalIndex in the next benchmark change.
  bool use_encoded = true;
};

/// The constraint-variance tolerant repair (Problem 1 / Algorithm 1):
/// enumerates θ-maximal constraint variants, prunes them with repair-cost
/// bounds, repairs the remaining candidates with the sharing-enabled
/// violation-free DataRepair, and returns the minimum-cost repair together
/// with the variant Σ' it satisfies. A short driver over the factored
/// pieces below: EnumerateVariants, ScanVariantFacts,
/// CVTolerantRepairWithFacts.
///
/// θ may be negative (net predicate deletion, Appendix D.2); in that case
/// Σ itself is not a candidate and the bound seeding of Algorithm 1 line 1
/// is replaced by +∞.
RepairResult CVTolerantRepair(const Relation& I, const ConstraintSet& sigma,
                              const CVTolerantOptions& options = {});

/// The variant family D of (Σ, I) that Algorithm 1 searches: the θ-maximal
/// variants of options.variants, with Σ itself included only for θ >= 0,
/// and the variation cost model reading its frequencies from I unless
/// options.variants.data is set.
VariantFamily EnumerateVariants(const Relation& I, const ConstraintSet& sigma,
                                const CVTolerantOptions& options);

/// Per-constraint detection facts consumed by the factored variant search
/// below, one per position of VariantFamily::constraints: the constraint's
/// violations over the instance (canonical rows order, constraint_index 0 —
/// the search plans a candidate from one view per position over these
/// lists, and copies and re-stamps them only for a subset cover) and the
/// δ_l/δ_u bounds of its private conflict hypergraph, or
/// `hopeless` when the violation cap was hit.
struct VariantFacts {
  std::vector<Violation> violations;
  double delta_l = 0.0;
  double delta_u = 0.0;
  bool hopeless = false;
};

/// Outcome of one factored variant search.
struct VariantSearchResult {
  ConstraintSet variant;  ///< chosen Σ' (meaningful when have_result)
  Relation repaired;      ///< minimum-cost repair found
  double cost = std::numeric_limits<double>::infinity();
  bool have_result = false;
  int datarepair_calls = 0;
  int variants_pruned = 0;  ///< hopeless + bound-pruned candidates
  /// Aligned with the family's variants: the realized repair cost where the
  /// search solved that candidate, NaN where it was pruned, aborted on the
  /// δ_min bound, or cut by the call budget. Bound maintainers use these to
  /// lift per-variant lower bounds to realized costs.
  std::vector<double> solved_costs;
  /// Aligned with the family's variants: where a candidate's solve aborted
  /// on the δ_min bound, the threshold it was solving under — a proof that
  /// its true repair cost strictly exceeds this value (vfree aborts on
  /// cost > δ_min). NaN everywhere else. Bound maintainers use these to
  /// keep aborted candidates' lower bounds above the incumbent instead of
  /// letting them fall back to δ_l.
  std::vector<double> abort_bounds;
};

/// The candidate loop of Algorithm 1 over `family` and its per-constraint
/// `facts` (aligned with family.constraints): combines bounds per variant (δ_l
/// = max over its constraints), seeds δ_min with δ_u(Σ) when θ >= 0 under the
/// update and hybrid strategies (+∞ otherwise: δ_u prices cell updates, not
/// deletions), processes candidates in ascending-δ_l order under bound pruning
/// and the DataRepair budget, and repairs each survivor with one shared
/// MaterializedCache — or, with use_vfree off under the update and hybrid
/// strategies, through HolisticRepair (Figure 5's CVtolerant+Holistic). Every
/// other candidate is planned (PlanDirtyComponents, on views of its union:
/// empty without violations, the tuple cover under the delete strategy) in a
/// window of the next unpruned candidates, one per thread, and replayed in δ_l
/// order (ReplayComponents). The result, the stats and the work counters are
/// the same at every thread count. CVTolerantRepair (facts from
/// ScanVariantFacts) and the streaming engine (facts delta-maintained by a
/// VariantTracker) both run this one loop, which is what makes
/// streamed-vs-scratch equivalence exact: equal facts in, bit-identical chosen
/// variant and repair out (modulo fresh-id numbering from `fresh_counter`). It
/// has no repair-of-Σ fallback: `have_result` is false when every candidate was
/// pruned or aborted, and the caller decides (CVTolerantRepairWithFacts falls
/// back; a streaming reopen keeps its incumbent). Suspect scans run on
/// `encoded`, the mirror of I, and `stats_of_I` must be the DomainStats of I.
/// Every candidate's repair is a ScopedRepair (CVtolerant+Holistic's is the
/// diff of its instance) priced by TallyRepair, and only the incumbent's is
/// applied to a copy of I, once the loop ends. `stats` (optional) accumulates
/// the DataRepair counters of every candidate solve and receives the search's
/// own: initial violations of Σ, variants, hopeless and pruned, DataRepair
/// calls, cache hits, and δ-bound lookups.
VariantSearchResult CVTolerantSearchWithFacts(
    const Relation& I, const DomainStats& stats_of_I,
    const VariantFamily& family, const std::vector<VariantFacts>& facts,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation& encoded, RepairStats* stats = nullptr);

/// The start of one θ-tolerant repair, taken when it is constructed: the
/// clock and the process-wide eval counters, from which the outcome stats
/// report elapsed_seconds and the index_* scan deltas.
struct RepairRunStart {
  std::chrono::steady_clock::time_point time =
      std::chrono::steady_clock::now();
  EvalCounters counters = eval_counters::Snapshot();
};

/// Algorithm 1 once the facts of `family` exist, shared by CVTolerantRepair
/// and the unfrozen StreamingRepairer: CVTolerantSearchWithFacts, then —
/// when no candidate survived — a plain repair of Σ for θ >= 0 (the input
/// itself for θ < 0), and the outcome stats: the search's counters, the
/// generator's non-maximal count, the chosen repair's cost, changed cells,
/// fresh and deleted counts (one TallyRepair of its diff with I), the scan
/// deltas and the time since `start`.
/// `stats_of_I` is the DomainStats of I and `encoded` its mirror. `search`
/// (optional) receives the search's per-candidate outcomes (solved_costs,
/// abort_bounds); its repaired instance moves into the result.
RepairResult CVTolerantRepairWithFacts(
    const Relation& I, const DomainStats& stats_of_I,
    const VariantFamily& family, const std::vector<VariantFacts>& facts,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation& encoded, const RepairRunStart& start,
    VariantSearchResult* search = nullptr);

/// The fact providers' hopeless cap: a constraint with strictly more
/// violations than this over `num_rows` rows is hopeless (0 = no cap).
int64_t ViolationCap(const CVTolerantOptions& options, int num_rows);

/// The facts of constraint `c` from its violations over I, in any order:
/// rows-ordered with constraint_index 0, plus δ_l/δ_u of the conflict
/// hypergraph of `c` alone — or +inf and no violations when `hopeless`.
/// ScanVariantFacts and VariantTracker both build facts here.
/// `stats_of_I`, the DomainStats of I, gives the hypergraph's vertex
/// weights.
VariantFacts BuildVariantFacts(const Relation& I, const DomainStats& stats_of_I,
                               const DenialConstraint& c,
                               std::vector<Violation> violations, bool hopeless,
                               const CVTolerantOptions& options);

/// Computes the VariantFacts of every position of family.constraints by
/// full capped detection scans of `encoded`, the mirror of I, in parallel
/// over the constraints under options.threads — the from-scratch twin of a
/// VariantTracker's delta-maintained facts. The facts are identical at any
/// thread count. `stats_of_I` is passed to BuildVariantFacts.
std::vector<VariantFacts> ScanVariantFacts(const Relation& I,
                                           const DomainStats& stats_of_I,
                                           const VariantFamily& family,
                                           const CVTolerantOptions& options,
                                           const EncodedRelation& encoded);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_CVTOLERANT_H_
