#ifndef CVREPAIR_DC_VIOLATION_H_
#define CVREPAIR_DC_VIOLATION_H_

#include <functional>
#include <span>
#include <unordered_set>
#include <vector>

#include "dc/constraint.h"
#include "relation/relation.h"

namespace cvrepair {

class EncodedRelation;  // relation/encoded.h
struct EvalCounters;    // dc/eval_counters.h

/// A set of cell addresses (the changing set C, covers, truth sets, ...).
using CellSet = std::unordered_set<Cell, CellHash>;

/// One violating (or suspect) tuple list of a constraint: rows[i]
/// instantiates tuple variable t_i of sigma[constraint_index].
struct Violation {
  int constraint_index = 0;
  std::vector<int> rows;

  friend bool operator==(const Violation& a, const Violation& b) {
    return a.constraint_index == b.constraint_index && a.rows == b.rows;
  }
};

/// A violation set split by constraint: entry i views the violations of
/// sigma[i] (their constraint_index fields are not read). Every DataRepair
/// round reads its violations this way: the candidate search as views over
/// the per-constraint facts it shares between candidates, other callers as
/// slices of one list (ViewsByPosition).
using ViolationsByPosition = std::vector<std::span<const Violation>>;

/// Slices `violations`, in the canonical (constraint_index, rows) order of
/// CanonicalizeViolations, into one view per position 0..positions-1
/// without a copy. A position with no violations gets an empty view. The
/// views point into `violations`, which must outlive them.
ViolationsByPosition ViewsByPosition(const std::vector<Violation>& violations,
                                     size_t positions);

/// The distinct cells cell(t_i, t_j, ...; φ) involved in the predicates of
/// the constraint instantiated on `rows` (Section 3.2.1).
std::vector<Cell> ViolationCells(const DenialConstraint& constraint,
                                 const std::vector<int>& rows);

/// Computes viol(I, Σ) on the dictionary-coded columns of I: every tuple
/// list (single rows for 1-tuple DCs, ordered pairs of distinct rows for
/// 2-tuple DCs) satisfying all predicates of some φ ∈ Σ (Definition 5).
/// E must be in_sync() with its backing relation.
///
/// Predicates evaluate as integer code/rank compares (counted as
/// EvalCounters::code_predicate_evals; only cross-attribute two-cell
/// predicates still touch Values) through the block kernels of
/// dc/scan_kernels.h, with zone-map skips. Two-tuple constraints with
/// equality predicates t0.A = t1.A are evaluated with hash partitioning on
/// those attributes, so FD-style constraints cost roughly
/// O(|I| + Σ_blocks |block|²) instead of O(|I|²).
///
/// Every scan is serial: the thread pool runs only Algorithm 1's outer
/// loops, which call these scans (repair/cvtolerant.h). The output, order
/// included, depends on the instance and Σ alone.
std::vector<Violation> FindViolations(const EncodedRelation& E,
                                      const ConstraintSet& sigma);

/// Violations of one constraint (see FindViolations); constraint_index is
/// set to `constraint_index` in the result.
std::vector<Violation> FindViolationsOf(const EncodedRelation& E,
                                        const DenialConstraint& constraint,
                                        int constraint_index = 0);

/// Like FindViolationsOf, but stops once `max_violations` have been
/// collected, setting *truncated. Used to abandon hopeless constraint
/// variants early (a variant violated quadratically often can never carry
/// the minimum repair). The result is the first `max_violations` of
/// FindViolationsOf's order.
std::vector<Violation> FindViolationsOfCapped(
    const EncodedRelation& E, const DenialConstraint& constraint,
    int constraint_index, int64_t max_violations, bool* truncated);

/// True iff I ⊨ Σ (no violations). Short-circuits on the first violation.
bool Satisfies(const EncodedRelation& E, const ConstraintSet& sigma);

/// FindViolations / Satisfies for callers that hold only the Relation:
/// encode I once, then run the scan above.
std::vector<Violation> FindViolations(const Relation& I,
                                      const ConstraintSet& sigma);
bool Satisfies(const Relation& I, const ConstraintSet& sigma);

/// Receives one suspect tuple list. The reference is only valid during the
/// call (the scan reuses one buffer for every suspect).
using SuspectVisitor = std::function<void(const Violation&)>;

/// Computes susp(C, φ) for every φ ∈ Σ (Definition 6): tuple lists that
/// satisfy all predicates *not* involving cells from C. Only suspects with
/// at least one predicate on a C cell are emitted — tuple lists whose
/// predicates never touch C contribute no repair-context constraints and
/// cannot become violations when only C changes. By Lemma 4, the result is
/// a superset of the violations that involve C.
///
/// Each suspect goes to `visit` instead of into a list, so a consumer such
/// as RepairContext::BuildFromScan never holds the suspect list. The scan's
/// zone-map consults are added to `*zone_counts` when given, else to the
/// process-wide eval counters: a caller that may discard the scan's result
/// carries the counts and publishes them once it commits.
///
/// `changing` may hold duplicates, in any order: the suspects and their
/// order depend only on the set. Cells outside [0, |I|) × [0, m) lie in no
/// tuple list, so they are ignored. The predicate-on-C test reads a dense
/// row × m bitmap of C built once per call.
void ForEachSuspect(const EncodedRelation& E, const ConstraintSet& sigma,
                    const std::vector<Cell>& changing,
                    const SuspectVisitor& visit,
                    EvalCounters* zone_counts = nullptr);

/// The suspects of ForEachSuspect on the cells of `changing`, collected in
/// emission order.
std::vector<Violation> FindSuspects(const EncodedRelation& E,
                                    const ConstraintSet& sigma,
                                    const CellSet& changing);

}  // namespace cvrepair

#endif  // CVREPAIR_DC_VIOLATION_H_
