#ifndef CVREPAIR_DC_INCREMENTAL_H_
#define CVREPAIR_DC_INCREMENTAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dc/violation.h"
#include "relation/encoded.h"

namespace cvrepair {

/// One edit of a streaming batch (repair/streaming.h): either an update
/// of one existing cell or the insertion of a whole new tuple. Updates
/// address rows by their index in the instance *at apply time* — inserts
/// earlier in the same batch extend the index space, so an update may
/// target a row inserted by the same batch.
struct RowEdit {
  static RowEdit Update(int row, AttrId attr, Value value) {
    RowEdit e;
    e.row = row;
    e.attr = attr;
    e.value = std::move(value);
    return e;
  }
  static RowEdit Insert(std::vector<Value> values) {
    RowEdit e;
    e.insert = true;
    e.values = std::move(values);
    return e;
  }

  bool insert = false;
  // Update fields.
  int row = 0;
  AttrId attr = 0;
  Value value;
  // Insert fields: one value per attribute.
  std::vector<Value> values;
};

/// Incrementally maintained violation set: instead of re-scanning the
/// instance after every edit (O(|I|^ell)), only the tuple lists touching a
/// changed row are re-evaluated. Used by the streaming session engine:
/// StreamingRepairer detects each batch's violations over Σ' with one, and
/// VariantTracker keeps the facts of the variant family's distinct
/// constraints current with another (repair/streaming.h).
///
/// The index owns a working copy of the instance; all modifications must
/// go through ApplyChange so the equality-join groups and the violation
/// lists stay consistent.
class ViolationIndex {
 public:
  /// Builds the initial violation set for (I, sigma). The index keeps a
  /// dictionary-coded mirror of its working copy and re-checks rows
  /// through integer-code evaluators. The third parameter is ignored: it
  /// is kept only for the benchmark's staged replica (perfbench/), and is
  /// deleted together with EvalIndex in the next benchmark change.
  ViolationIndex(const Relation& I, const ConstraintSet& sigma,
                 bool use_encoded = true);

  // The coded mirror points into relation_, so the index is pinned.
  ViolationIndex(const ViolationIndex&) = delete;
  ViolationIndex& operator=(const ViolationIndex&) = delete;

  const Relation& relation() const { return relation_; }
  const ConstraintSet& sigma() const { return sigma_; }

  /// The dictionary-coded mirror of the working copy; never null. Always
  /// in_sync() outside of ApplyChange/ApplyBatch — consumers (suspect
  /// scans, component solves) may scan it between mutations.
  const EncodedRelation* encoded() const { return &encoded_; }

  /// Applies one cell modification and delta-maintains the violations:
  /// ApplyBatch of the one update, which re-scans the row once.
  void ApplyChange(const Cell& cell, Value value);

  /// Applies a whole batch of updates/inserts and delta-maintains the
  /// violations, returning the touched row ids (sorted, deduplicated;
  /// inserts report their new index). The final violation set is exactly
  /// what per-edit ApplyChange calls would produce, but each touched row
  /// is re-scanned once after all edits instead of once per edit, and a
  /// tuple list between two touched rows is re-checked from only one of
  /// them. Empty batches, repeated edits of one cell (last wins), and
  /// no-op edits are all legal.
  std::vector<int> ApplyBatch(const std::vector<RowEdit>& edits);

  /// Current violations (compacted on demand).
  std::vector<Violation> CurrentViolations();

  /// Live violations of constraint `k`, sorted by rows (canonical order).
  std::vector<Violation> ViolationsOf(int k) const;

  bool HasViolations();

  /// Number of live violations of constraint `k`.
  int64_t ViolationCountOf(int k) const { return alive_by_constraint_[k]; }

  /// Mutation stamp of constraint `k`'s violation set: bumped whenever a
  /// violation of `k` is added or removed. Bound maintainers (streaming
  /// VariantTracker) recompute δ_l/δ_u for exactly the constraints whose
  /// stamp moved since they last looked.
  int64_t ViolationEpochOf(int k) const { return violation_epochs_[k]; }

  /// Rows re-evaluated since construction — the work metric that shows
  /// the incremental advantage over full re-detection.
  int64_t rows_rechecked() const { return rows_rechecked_; }

  /// Per-constraint evaluator (re)compilations since construction. Keyed
  /// on the per-attribute epochs the evaluators actually cache: a repair
  /// that grows attribute X's dictionary recompiles only the constraints
  /// reading X, not the whole set.
  int64_t evals_recompiled() const { return evals_recompiled_; }

 private:
  struct StoredViolation {
    Violation violation;
    bool alive = false;
  };

  void RemoveViolationsOfRow(int row);
  void AddViolation(Violation v);
  // Re-evaluates all tuple lists involving `row` for constraint k and adds
  // the violating ones, except pairs whose other row is marked in
  // `skip_partner`: touched rows already re-scanned, whose scan covered
  // both orientations of the pair.
  void ScanRow(size_t k, int row, const std::vector<char>& skip_partner);
  // Appends one tuple (values.size() == num_attributes) to the working
  // copy and every derived structure except the violation lists; the
  // caller re-scans the new row. Returns the new row index.
  int AppendRowInternal(std::vector<Value> values);

  // Per-constraint equality-join group index (key values -> rows).
  struct GroupIndex {
    std::vector<AttrId> attrs;  // empty = no equality join (full scans)
    std::unordered_map<size_t, std::vector<int>> rows_by_hash;
  };
  size_t GroupHash(size_t k, int row, bool* usable) const;
  void GroupInsert(size_t k, int row);
  void GroupErase(size_t k, int row);
  // Recompiles exactly the per-constraint code evaluators whose cached
  // state went stale (valid_for: the structural epoch plus the epochs of
  // the attributes each predicate reads) — not all of them.
  void EnsureEvalsCurrent();

  Relation relation_;
  ConstraintSet sigma_;
  EncodedRelation encoded_;  // coded mirror of relation_
  std::vector<EncodedConstraintEval> evals_;
  bool evals_built_ = false;
  int64_t evals_recompiled_ = 0;
  std::vector<GroupIndex> groups_;
  std::vector<StoredViolation> store_;
  std::vector<int> free_slots_;
  std::unordered_map<int, std::vector<int>> by_row_;  // row -> store ids
  int alive_count_ = 0;
  std::vector<int64_t> alive_by_constraint_;   // per sigma_ index
  std::vector<int64_t> violation_epochs_;      // per sigma_ index
  int64_t rows_rechecked_ = 0;
};

}  // namespace cvrepair

#endif  // CVREPAIR_DC_INCREMENTAL_H_
