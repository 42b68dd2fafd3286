#ifndef CVREPAIR_REPAIR_STREAMING_H_
#define CVREPAIR_REPAIR_STREAMING_H_

// Streaming batch repair (DESIGN.md §9, §11, §13): one whole-instance
// θ-tolerant repair up front chooses the constraint variant Σ'; afterwards
// batches of tuple edits are ingested against one delta-maintained
// ViolationIndex over Σ', the dirty conflict components are localized,
// and only those components are re-solved. After every batch the held
// instance is violation-free under Σ' and bit-identical in cost to a
// from-scratch component repair of the accumulated instance, at any
// thread count.
//
// By default Σ' stays frozen. With `reopen_variants` a VariantTracker
// delta-maintains per-variant δ_l/δ_u repair-cost bounds over the
// accumulated *dirty* instance and re-opens the variant search (the same
// Algorithm 1 candidate loop, CVTolerantSearchWithFacts) only when some
// rival's lower bound reaches the incumbent's realized cost — so a
// drifting stream recovers the scratch-optimal variant without
// re-evaluating every variant every batch. A switch rebuilds the index.

#include <cstdint>
#include <memory>
#include <vector>

#include "dc/incremental.h"
#include "repair/cvtolerant.h"

namespace cvrepair {

/// Options of a StreamingRepairer.
struct StreamingOptions {
  /// Configuration of the initial whole-instance repair (which chooses the
  /// variant) and of every per-batch component re-solve — threads, cost
  /// model, solver budgets all come from here. Only the initial repair and
  /// variant reopens use threads; a batch re-solve is serial.
  CVTolerantOptions repair;
  /// Unfreeze Σ': track per-variant cost bounds across batches and re-open
  /// the variant search when a rival's lower bound reaches the incumbent's
  /// realized cost. Off by default (frozen incumbent).
  bool reopen_variants = false;
  /// Ignored; see the frozen-perfbench block in StreamTotals.
  int num_shards = 1;
};

/// Outcome of one ApplyBatch call.
struct StreamBatchResult {
  int edits = 0;         ///< RowEdits in the batch
  int rows_touched = 0;  ///< distinct rows the edits touched
  int violations = 0;    ///< delta-detected violations after the edits
  int dirty_rows = 0;    ///< touched rows ∪ rows sharing a violation
  int components = 0;    ///< dirty components re-solved
  int cells_changed = 0; ///< cells whose stored value actually changed
  /// Row re-scans this batch (detection + repair application) — the work
  /// that scales with the batch, not with the accumulated instance.
  int64_t rows_rechecked = 0;
  double repair_cost = 0.0;  ///< summed cost of this batch's fixes
  // Variant tracking (reopen_variants only).
  bool reopened = false;          ///< the variant search ran this batch
  bool variant_switched = false;  ///< ... and adopted a different Σ'
  int bound_updates = 0;          ///< per-constraint δ bound recomputations
  /// Δ(dirty, current) after the batch, priced under the run's strategy
  /// (StrategyRepairCost).
  double realized_cost = 0.0;
  double rival_bound = 0.0;       ///< best rival lower bound after the batch
  double elapsed_seconds = 0.0;
};

/// Cumulative counters over a stream; mirrored into the global
/// MetricsRegistry under the "stream." prefix (work counters, CI-gated).
struct StreamTotals {
  int64_t batches = 0;
  int64_t edits = 0;
  int64_t rows_ingested = 0;        ///< distinct touched rows, summed
  int64_t rows_rechecked = 0;
  int64_t components_resolved = 0;
  int64_t cells_changed = 0;
  int64_t variant_reopens = 0;      ///< variant searches re-run mid-stream
  int64_t variant_switches = 0;     ///< ... that adopted a different Σ'
  int64_t bound_updates = 0;        ///< per-constraint δ bound recomputations

  // Frozen-perfbench block. perfbench/src/main.cc, frozen outside
  // benchmark changes, sets StreamingOptions::num_shards and reads these
  // three counters. The engine ignores the option and leaves the counters
  // at 0; nothing outside perfbench/ reads or writes any of the four. They
  // go together with EvalIndex and the ShardedSession/ServeTotals aliases
  // of serve/server.h (ROADMAP.md, item 3).
  int64_t shard_local_components = 0;
  int64_t cross_shard_components = 0;
  int64_t rows_migrated = 0;
};

/// Delta-maintained per-variant repair-cost bounds over the accumulated
/// dirty instance (DESIGN.md §11). Holds the VariantFamily of (Σ, D) and
/// owns a copy of the dirty instance D — the stream's edits *before* any
/// repair — plus one ViolationIndex over the family's distinct
/// constraints. Ingest mirrors each batch into D and recomputes δ_l/δ_u
/// facts for exactly the constraints whose violation set changed (the
/// per-batch work counter behind stream.bound_updates); the facts feed
/// CVTolerantSearchWithFacts, and BestRivalBound answers the reopen
/// trigger. Facts come from the same BuildVariantFacts as those of
/// ScanVariantFacts, position for position, so they are structurally
/// identical to what it computes from scratch on D — the drift tests pin
/// this.
class VariantTracker {
 public:
  /// Enumerates the variant family of (Σ, dirty) once — the family is
  /// fixed for the stream's lifetime — and builds the facts of every
  /// distinct constraint.
  VariantTracker(const Relation& dirty, const ConstraintSet& sigma,
                 const CVTolerantOptions& options);

  /// Mirrors one batch of raw edits into the dirty instance and refreshes
  /// the facts of every constraint whose violations changed (solved-cost
  /// records of variants containing such a constraint are invalidated).
  /// Returns the number of per-constraint bound recomputations.
  int Ingest(const std::vector<RowEdit>& edits);

  /// Records the outcomes of a search's candidates: a solved variant's
  /// lower bound is lifted from δ_l to its realized cost, and an aborted
  /// one's to the δ_min threshold its cost provably exceeds — in both
  /// cases until one of the variant's constraints' facts change again.
  void RecordSearch(const VariantSearchResult& result);

  /// min over variants other than `incumbent` of that variant's lower
  /// bound: max(δ_l, recorded solved cost); +inf for hopeless variants and
  /// when no rival exists.
  double BestRivalBound(const ConstraintSet& incumbent) const;

  /// The accumulated dirty instance D.
  const Relation& dirty() const { return index_->relation(); }
  /// DomainStats of D, for the facts and for a search over D. Rebuilt at
  /// most once per Ingest that changes D, when first needed.
  const DomainStats& stats();
  /// Coded mirror of D.
  const EncodedRelation& encoded() const { return *index_->encoded(); }
  /// The variant family, enumerated once against the starting D.
  const VariantFamily& family() const { return family_; }
  /// The facts of D, aligned with family().constraints.
  const std::vector<VariantFacts>& facts() const { return facts_; }

 private:
  void RefreshFacts(size_t k);

  CVTolerantOptions options_;
  VariantFamily family_;
  std::unique_ptr<ViolationIndex> index_;  // over (D, family_.constraints)
  DomainStats stats_;                      // of D unless stale
  bool stats_stale_ = true;                // D changed since stats_
  std::vector<VariantFacts> facts_;        // per family position
  std::vector<int64_t> seen_epochs_;       // ViolationEpochOf at last refresh
  std::vector<int64_t> changed_gen_;       // generation of last facts change
  std::vector<double> solved_costs_;       // per variant (NaN = none)
  std::vector<int64_t> solved_gen_;        // generation when solved
  std::vector<double> abort_bounds_;       // per variant (NaN = none)
  std::vector<int64_t> abort_gen_;         // generation when aborted
  int64_t generation_ = 0;
};

/// Owns a repaired instance and its delta-maintained violation state, and
/// keeps it violation-free under the current variant as batches of edits
/// stream in. Construction runs the full variant search on (I, Σ);
/// afterwards ApplyBatch re-solves dirty components under the incumbent
/// and — with reopen_variants — re-runs the variant search whenever a
/// rival's maintained lower bound reaches the incumbent's realized cost.
/// All engine knobs (threads, cost model, solver budgets) come from
/// StreamingOptions::repair.
class StreamingRepairer {
 public:
  StreamingRepairer(const Relation& I, const ConstraintSet& sigma,
                    const StreamingOptions& options = {});

  /// The maintained instance: violation-free under variant() after
  /// construction and after every ApplyBatch.
  const Relation& current() const { return index_->relation(); }
  /// The current variant Σ' (frozen unless reopen_variants).
  const ConstraintSet& variant() const { return variant_; }
  /// Stats of the initial whole-instance repair.
  const RepairStats& initial_stats() const { return initial_stats_; }
  const StreamTotals& totals() const { return totals_; }
  /// The bound tracker, or nullptr unless reopen_variants.
  const VariantTracker* tracker() const { return tracker_.get(); }
  /// Δ(dirty, current) under the run's cost model and strategy
  /// (StrategyRepairCost; reopen_variants only).
  double realized_cost() const { return realized_cost_; }
  /// True iff the index holds no violation — the invariant ApplyBatch
  /// re-establishes after every batch.
  bool IsViolationFree() const { return !index_->HasViolations(); }

  /// Ingests one batch: applies the edits through the index (which
  /// delta-re-checks the touched rows), localizes the dirty components of
  /// the live violations, re-solves them under the current variant, and
  /// writes the fixes back. The result is bit-identical in cost — and
  /// identical cell-for-cell modulo fresh-variable ids — to
  /// SolveDirtyComponents run from scratch on the accumulated instance, at
  /// any thread count. With reopen_variants, finishes by updating the
  /// tracker's bounds and re-opening the variant search when a rival's
  /// lower bound reaches the incumbent's realized cost.
  StreamBatchResult ApplyBatch(const std::vector<RowEdit>& edits);

 private:
  /// Adopts `repaired` as the held instance under variant_: continues the
  /// fresh-id counter past its ids, then rebuilds the index over Σ'.
  void Adopt(const Relation& repaired);
  /// Row re-scans since construction, replaced indexes included.
  int64_t RowsRechecked() const;
  void MaybeReopen(StreamBatchResult* out);

  StreamingOptions options_;
  ConstraintSet variant_;
  RepairStats initial_stats_;
  /// The authoritative working copy (and its coded mirror, the inputs of
  /// every re-solve) plus delta detection over Σ'.
  std::unique_ptr<ViolationIndex> index_;
  int64_t retired_rechecked_ = 0;  // rows_rechecked of replaced indexes
  std::unique_ptr<VariantTracker> tracker_;  // reopen_variants only
  double realized_cost_ = 0.0;               // Δ(dirty, current)
  int64_t fresh_counter_ = 1;  // continues past the initial repair's ids
  StreamTotals totals_;
};

/// A deterministic replay workload for the streaming drivers (the CLI's
/// --stream-batches mode, bench/micro_stream_repair, tests): holds out a
/// tail of `dirty`'s rows and replays them as inserts, interleaved with
/// update edits that copy another tuple's value into a random cell (the
/// same typo-style noise the synthetic generators plant).
struct ReplayWorkload {
  Relation base;  ///< the prefix the StreamingRepairer starts from
  std::vector<std::vector<RowEdit>> batches;
};

/// Splits `dirty` into a ReplayWorkload of `num_batches` batches of
/// `batch_size` edits each. At most half the edits (and a quarter of the
/// rows) are insert replays, spread evenly over the stream; the rest are
/// updates of rows live at apply time. Deterministic in (dirty, shape,
/// seed). An instance with no rows or no attributes has nothing to edit:
/// the base is `dirty` itself and all `num_batches` batches are empty.
ReplayWorkload MakeReplayWorkload(const Relation& dirty, int num_batches,
                                  int batch_size, uint64_t seed = 42);

/// A drifting variation of MakeReplayWorkload for the variant-drift bench
/// and tests: update edits draw their source values from a sliding window
/// of `dirty`'s rows that moves from the head of the relation to its tail
/// as the stream progresses, so per-attribute value frequencies — and with
/// them the Eq. 2 weighted variation costs and the per-variant repair
/// bounds — skew over time instead of staying stationary. Same shape,
/// determinism and empty-instance behaviour as MakeReplayWorkload.
ReplayWorkload MakeDriftWorkload(const Relation& dirty, int num_batches,
                                 int batch_size, uint64_t seed = 42);

}  // namespace cvrepair

#endif  // CVREPAIR_REPAIR_STREAMING_H_
