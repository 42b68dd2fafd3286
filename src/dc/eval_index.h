#ifndef CVREPAIR_DC_EVAL_INDEX_H_
#define CVREPAIR_DC_EVAL_INDEX_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "dc/constraint.h"
#include "dc/eval_counters.h"
#include "dc/violation.h"
#include "relation/encoded.h"
#include "relation/relation.h"

namespace cvrepair {

/// A shared evaluation index: built once per *base* constraint φ, reused
/// by every variant φ' of it (Algorithm 1 enumerates hundreds of variants
/// that differ from φ by a handful of predicates; re-running violation
/// detection from scratch on each re-pays work the base already paid —
/// the same sharing argument as the paper's §3.2 bound pruning and §4.2
/// materialized solutions, applied one level down, to detection itself).
///
/// Two memoized structures:
///
///  1. **Hash partitions keyed by the equality-join attribute set.** The
///     base's partition is built once; a variant that inserts equality
///     predicates gets its partition by *refining* blocks (splitting on
///     the new attributes), a variant that deletes them by *merging*
///     blocks (projecting keys and re-admitting rows that were excluded
///     for NULL/fresh values on the dropped attributes) — never by
///     re-scanning the relation.
///  2. **A per-tuple-list verdict memo** for the base's non-partition
///     predicates: each candidate pair (or row, for 1-tuple constraints)
///     stores one bit per predicate. A variant then only evaluates its
///     *delta* predicates — the ones not shared with the base.
///
/// Not on the repair path: CVTolerantRepair detects each distinct
/// constraint with one capped scan (ScanVariantFacts), which also keeps
/// the zone maps in play. The index remains only for the benchmark's
/// staged mirror of Algorithm 1 (perfbench/src/staged.cc), and is deleted
/// in the next benchmark change.
///
/// Thread safety: construction and Prepare() are serial; afterwards every
/// method is const and the index may be shared read-only across pool
/// threads. Every scan is serial (the thread pool runs only Algorithm 1's
/// outer loops, repair/cvtolerant.h). FindViolationsCapped() is
/// bit-identical — result order, capped prefix, and truncated flag — to
/// FindViolationsOfCapped().
class EvalIndex {
 public:
  /// Candidate tuple lists are memoized only while their count stays
  /// within this budget (a no-equality-join base has |I|² candidate
  /// pairs; memoizing that would trade quadratic time for quadratic
  /// memory with no cap to stop it).
  static constexpr int64_t kDefaultMemoBudget = int64_t{1} << 22;

  /// `encoded` must mirror `I` (in_sync) and outlive the index:
  /// partitions are keyed on dictionary codes and memo/delta predicates
  /// evaluate on codes (EvalCounters::code_predicate_evals).
  EvalIndex(const Relation& I, const DenialConstraint& base,
            int64_t memo_budget, const EncodedRelation* encoded);

  /// Derives (and caches) the partition a variant with these predicates
  /// scans. Call serially for every variant before concurrent
  /// FindViolationsCapped use; afterwards the index is read-only.
  void Prepare(const DenialConstraint& variant);

  /// viol(I, variant) with exactly the semantics of
  /// FindViolationsOfCapped: same violation order, same capped prefix,
  /// same truncated flag.
  std::vector<Violation> FindViolationsCapped(const DenialConstraint& variant,
                                              int constraint_index,
                                              int64_t cap,
                                              bool* truncated) const;

  const DenialConstraint& base() const { return base_; }

  /// Introspection for tests: number of distinct partitions held.
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  bool pair_memo_built() const { return pair_memo_built_; }

 private:
  struct Partition {
    /// Row-id blocks, members ascending, blocks sorted by first member —
    /// the canonical enumeration order of dc/violation.cc. Singleton
    /// blocks are kept (they matter for refine/merge) and skipped by the
    /// pair enumeration. A block's key on the partition attributes is
    /// recoverable from any member row, so keys are not stored.
    std::vector<std::vector<int>> blocks;
  };

  int64_t PairKey(int i, int j) const {
    return static_cast<int64_t>(i) * n_ + j;
  }

  const Partition& GetOrDerive(const std::vector<AttrId>& attrs);
  Partition BuildByScan(const std::vector<AttrId>& attrs,
                        EvalCounters* local) const;
  Partition RefineFrom(const Partition& src,
                       const std::vector<AttrId>& src_attrs,
                       const std::vector<AttrId>& target) const;
  Partition MergeFrom(const Partition& src,
                      const std::vector<AttrId>& src_attrs,
                      const std::vector<AttrId>& target);
  const std::vector<int>& NullRows(AttrId attr);
  void BuildMemo();

  /// Splits the variant's predicates into the partition-handled equality
  /// joins, the base-shared memoized predicates (as a bitmask over
  /// memo_preds_), and the live delta predicates.
  void SplitPredicates(const DenialConstraint& variant, uint32_t* shared_mask,
                       std::vector<const Predicate*>* shared,
                       std::vector<const Predicate*>* delta) const;

  /// shared/delta are the code-compiled shared and delta predicates.
  bool ViolatedViaIndex(const std::vector<int>& rows, uint32_t shared_mask,
                        const std::vector<EncodedPredicateEval>& shared,
                        const std::vector<EncodedPredicateEval>& delta,
                        EvalCounters* local) const;

  const EncodedRelation* E_;  // coded mirror of the indexed relation
  DenialConstraint base_;
  int n_ = 0;
  int64_t memo_budget_ = 0;
  std::vector<AttrId> base_eq_;

  /// Base predicates not handled by the partition (all predicates for
  /// 1-tuple constraints); memo bit j corresponds to memo_preds_[j].
  std::vector<Predicate> memo_preds_;

  std::map<std::vector<AttrId>, Partition> partitions_;

  /// 2-tuple: verdict bits per candidate pair of the base partition.
  std::unordered_map<int64_t, uint32_t> pair_memo_;
  bool pair_memo_built_ = false;

  /// 1-tuple: verdict bits per row (always dense).
  std::vector<uint32_t> row_memo_;
  bool row_memo_built_ = false;

  std::map<AttrId, std::vector<int>> null_rows_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_DC_EVAL_INDEX_H_
