#ifndef CVREPAIR_RELATION_ENCODED_H_
#define CVREPAIR_RELATION_ENCODED_H_

// Dictionary-encoded columnar view of a Relation.
//
// Every scan in the system (violation detection, the shared evaluation
// index, suspect enumeration, incremental maintenance) runs on this
// integer-coded mirror, never on the row-major boxed Values; the Relation
// stays the storage and mutation interface. This header provides:
//
//  * a per-attribute, order-preserving `Dictionary` mapping each distinct
//    value (one code per EvalOp-equality class) to a stable int32 code and
//    a rank within its comparison class, so `=`/`!=` become code compares
//    and `<`/`<=`/`>`/`>=` become rank compares;
//  * an `EncodedRelation` column store kept consistent with repairs
//    through an epoch/ApplyChange protocol — new values are *appended* to
//    the dictionary (codes are stable) and their rank is recovered by
//    binary search into the sorted order, so order predicates stay
//    correct without a full re-encode;
//  * compiled predicate/constraint evaluators (`EncodedPredicateEval`,
//    `EncodedConstraintEval`) that evaluate DC predicates on codes with
//    exactly EvalOp's semantics, falling back to Value evaluation only
//    for shapes codes cannot answer (cross-attribute two-cell predicates,
//    whose operands live in different dictionaries).
//
// Block layout (see DESIGN.md): each column is a sequence of fixed-size
// segments of kBlockSize codes carved out of an arena owned by the
// relation. Segments never move once allocated — ApplyChange writes the
// re-encoded cell in place — and row r of attribute a lives at
// segments(a)[r >> kBlockShift][r & kBlockMask]. Every (attribute, block)
// pair carries a zone map (`BlockMeta`): the min/max packed rank over the
// block's non-sentinel codes and a NULL/fresh-sentinel presence bit. Zone
// maps are maintained *eagerly* — they
// are always current — so concurrent read-only scans may consult them
// without synchronization: an ApplyChange that grows no dictionary
// recomputes only the touched block's meta (O(kBlockSize)); one that does
// grow a dictionary recomputes that column's metas (ranks above the
// insertion point shifted), which is rare and already O(dictionary) in
// the dictionary itself.
//
// Epochs: `attr_epoch(a)` advances when attribute a's dictionary grows
// (its rank array may reallocate and existing packed ranks may shift);
// `structural_epoch()` advances when AppendRow extends the relation (the
// per-column segment tables may reallocate). Compiled evaluators record
// the epochs of exactly the state they cache and report staleness
// per-predicate through valid_for — a dictionary growing on attribute X
// does not invalidate evaluators compiled against attribute Y.
//
// Sentinel codes: NULL cells encode to kNullCode and fresh variables to
// kFreshCode — both negative, so a single sign test reproduces the
// "NULL/fv satisfies no predicate" rule (Section 2.1) before any compare.
// Note that kFreshCode deliberately conflates distinct fresh variables:
// no predicate ever distinguishes them, and repair bookkeeping that does
// (fv_i == fv_i storage equality) reads the row-major Relation, which
// remains the sole mutation interface and the source of truth.
//
// Semantics note: codes identify *EvalOp-equality* classes — the equality
// Definition 5 evaluates — so Int(1) and Double(1.0) share a code and join
// wherever '=' holds between them. Double NaN is not representable (EvalOp
// gives NaN != NaN, which no total order can encode): the CSV reader and
// the DC parser never produce it, and a debug assert rejects it.

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dc/op.h"  // Op only; dc/op.h depends just on relation/value.h
#include "relation/relation.h"
#include "relation/value.h"

namespace cvrepair {

class Predicate;
class DenialConstraint;

/// Integer code of one cell under its attribute's dictionary.
using Code = int32_t;

inline constexpr Code kNullCode = -1;   ///< cell is NULL
inline constexpr Code kFreshCode = -2;  ///< cell is a fresh variable fv
inline constexpr Code kAbsentCode = -3; ///< lookup miss / unsatisfiable

/// Order-preserving dictionary for one attribute.
///
/// Codes are stable append-ordered ids (a value keeps its code for the
/// dictionary's lifetime); the semantic order lives in a separate packed
/// rank per code: (comparison class << kRankBits) | rank-within-class,
/// where class 0 holds numeric values ordered by numeric() and class 1
/// holds strings ordered lexicographically. Two codes are comparable iff
/// their classes match (EvalOp: type-mismatched operands satisfy nothing,
/// not even `!=`).
class Dictionary {
 public:
  static constexpr int kRankBits = 30;
  static constexpr int32_t kRankMask = (int32_t{1} << kRankBits) - 1;

  /// Comparison class of a (non-NULL, non-fresh) value: 0 numeric,
  /// 1 string.
  static int32_t ClassOf(const Value& v) {
    return v.kind() == ValueKind::kString ? 1 : 0;
  }

  /// Semantic three-way compare within one class (numeric() widening for
  /// numerics, lexicographic for strings).
  static int Compare(const Value& a, const Value& b);

  /// Code of `v`, inserting it if absent. NULL / fresh map to their
  /// sentinels without touching the dictionary. Insertion appends (codes
  /// already handed out never change) and bumps the ranks of entries
  /// ordered after the new value — O(dictionary size), paid only when a
  /// repair introduces a genuinely new value.
  Code EncodeInsert(const Value& v);

  /// Code of `v`, or kAbsentCode if it was never inserted (NULL / fresh
  /// still map to their sentinels).
  Code Lookup(const Value& v) const;

  /// Packed (class << kRankBits) | rank of a non-sentinel code.
  int32_t rank(Code code) const {
    return rank_of_[static_cast<size_t>(code)];
  }
  const int32_t* rank_data() const { return rank_of_.data(); }

  /// Representative value of a non-sentinel code.
  const Value& value(Code code) const {
    return values_[static_cast<size_t>(code)];
  }

  int size() const { return static_cast<int>(values_.size()); }

  /// Precomputed thresholds for a constant predicate `cell op c`:
  /// with e_0 < e_1 < ... the class-`cls` entries in semantic order,
  /// lower = #{i : e_i < c} and upper = #{i : e_i <= c}, so for a cell of
  /// rank r in that class:  v < c  iff r < lower,   v <= c iff r < upper,
  ///                        v > c  iff r >= upper,  v >= c iff r >= lower.
  /// Stale after any insertion into this dictionary — recompute when the
  /// owning EncodedRelation's attr_epoch moves.
  struct ConstantBounds {
    Code eq = kAbsentCode;  ///< code of c, or kAbsentCode
    int32_t cls = -1;       ///< -1: c is NULL/fresh — satisfies nothing
    int32_t lower = 0;
    int32_t upper = 0;
  };
  ConstantBounds BoundsOf(const Value& c) const;

 private:
  // Position in sorted_[cls] where `v` belongs (first entry not
  // semantically less than v); *found reports an exact semantic match.
  size_t SortedPos(int32_t cls, const Value& v, bool* found) const;

  std::vector<Value> values_;    // code -> representative (append order)
  std::vector<int32_t> rank_of_; // code -> packed class|rank
  std::vector<Code> sorted_[2];  // per class: codes in semantic order
};

/// Column store of integer codes mirroring one Relation, laid out in
/// fixed-size arena-backed blocks with an eagerly maintained per-block
/// zone map (see the header comment).
///
/// The Relation stays the sole mutation interface: callers first mutate
/// it (SetValue), then notify the mirror with ApplyChange(row, attr),
/// which re-encodes that single cell in place. `in_sync()` cross-checks
/// against Relation::version() so a forgotten ApplyChange is detectable.
class EncodedRelation {
 public:
  static constexpr int kBlockShift = 10;
  static constexpr int kBlockSize = 1 << kBlockShift;  ///< codes per block
  static constexpr int kBlockMask = kBlockSize - 1;

  /// Zone map of one (attribute, block): packed-rank extrema over the
  /// block's non-sentinel codes (min > max means the block holds only
  /// sentinels — no predicate matches anything in it) and whether any
  /// NULL/fresh sentinel is present.
  struct BlockMeta {
    int32_t min_rank = std::numeric_limits<int32_t>::max();
    int32_t max_rank = std::numeric_limits<int32_t>::min();
    bool has_sentinel = false;

    bool all_sentinel() const { return min_rank > max_rank; }
  };

  explicit EncodedRelation(const Relation& I);

  const Relation& relation() const { return *I_; }
  int num_rows() const { return n_; }
  int num_attributes() const {
    return static_cast<int>(col_segs_.size());
  }

  Code code(int row, AttrId attr) const {
    return col_segs_[static_cast<size_t>(attr)]
                    [static_cast<size_t>(row >> kBlockShift)]
                    [row & kBlockMask];
  }
  const Dictionary& dict(AttrId attr) const {
    return dicts_[static_cast<size_t>(attr)];
  }

  // --- Block-granular access (the scan kernels' interface). -------------
  int num_blocks() const {
    return n_ == 0 ? 0 : ((n_ - 1) >> kBlockShift) + 1;
  }
  /// Rows resident in block b (kBlockSize except a shorter tail block).
  int block_rows(int b) const {
    int begin = b << kBlockShift;
    int left = n_ - begin;
    return left < kBlockSize ? left : kBlockSize;
  }
  /// Codes of block b of attribute a (block_rows(b) valid entries; the
  /// unused tail of the segment is kNullCode-filled, never scanned).
  const Code* block_codes(AttrId a, int b) const {
    return col_segs_[static_cast<size_t>(a)][static_cast<size_t>(b)];
  }
  /// The column's segment table, for compiled evaluators that index rows
  /// directly. Invalidated by AppendRow (structural_epoch moves).
  const Code* const* segments(AttrId a) const {
    return col_segs_[static_cast<size_t>(a)].data();
  }
  const BlockMeta& block_meta(AttrId a, int b) const {
    return metas_[static_cast<size_t>(a)][static_cast<size_t>(b)];
  }

  /// Re-encodes one cell from the backing relation in place. Call exactly
  /// once after each Relation::SetValue. Row deletion is not supported
  /// (repairs modify values only, Definition 1); streaming ingestion
  /// appends rows through AppendRow below. Refreshes the touched block's
  /// zone map — or the whole column's when the dictionary grew (ranks
  /// shifted).
  void ApplyChange(int row, AttrId attr);

  /// Mirrors one Relation::AddRow: encodes the backing relation's newest
  /// row into every column. Call exactly once after each AddRow, before
  /// any further ApplyChange. Always advances the structural epoch:
  /// appending can reallocate the per-column segment tables, and compiled
  /// evaluators cache raw table pointers.
  void AppendRow();

  /// Advances when attribute a's dictionary grows; evaluators compiled
  /// against that dictionary hold stale ranks/thresholds.
  uint64_t attr_epoch(AttrId a) const {
    return attr_epochs_[static_cast<size_t>(a)];
  }
  /// Advances when AppendRow extends the relation (segment tables may
  /// have reallocated).
  uint64_t structural_epoch() const { return structural_epoch_; }

  /// True iff every Relation mutation has been mirrored (each SetValue
  /// paired with one ApplyChange).
  bool in_sync() const { return synced_version_ == I_->version(); }

 private:
  /// Hands out the next kBlockSize-code segment from the arena,
  /// kNullCode-filled. Chunks hold several segments to keep allocation
  /// traffic low; handed-out segments never move or shrink.
  Code* AllocateSegment();
  void AppendSegmentToColumn(AttrId a);
  void RecomputeBlockMeta(AttrId a, int b);
  void RecomputeColumnMetas(AttrId a);

  static constexpr int kSegmentsPerChunk = 8;

  const Relation* I_;
  int n_ = 0;
  std::vector<Dictionary> dicts_;
  /// Column-major: col_segs_[a][b] points at the kBlockSize-code segment
  /// holding rows [b << kBlockShift, ...) of attribute a.
  std::vector<std::vector<Code*>> col_segs_;
  std::vector<std::vector<BlockMeta>> metas_;   // [attr][block]
  std::vector<std::unique_ptr<Code[]>> arena_;  // chunked segment storage
  int arena_used_ = kSegmentsPerChunk;          // segments used in back()
  std::vector<uint64_t> attr_epochs_;
  uint64_t structural_epoch_ = 0;
  uint64_t synced_version_ = 0;
};

/// One DC predicate compiled against an EncodedRelation.
///
/// Same-attribute two-cell predicates and constant predicates evaluate
/// purely on codes/ranks; cross-attribute two-cell predicates (operands
/// in different dictionaries) fall back to Predicate::Eval on the backing
/// relation — on_codes() tells callers which work counter an evaluation
/// belongs to. Valid only while the epochs of the state it caches stand
/// still: the lhs attribute's dictionary (attr_epoch) and the segment
/// tables (structural_epoch). valid_for is keyed per attribute, so growth
/// in an unrelated dictionary does not invalidate this evaluator.
class EncodedPredicateEval {
 public:
  EncodedPredicateEval(const EncodedRelation& E, const Predicate& p);

  bool on_codes() const { return mode_ != Mode::kFallback; }
  bool is_constant() const { return mode_ == Mode::kConstant; }
  bool is_same_attr() const { return mode_ == Mode::kSameAttr; }
  bool valid_for(const EncodedRelation& E) const {
    if (mode_ == Mode::kFallback) return true;  // nothing cached
    return structural_epoch_ == E.structural_epoch() &&
           attr_epoch_ == E.attr_epoch(lattr_);
  }

  Op op() const { return op_; }
  AttrId lhs_attr() const { return lattr_; }
  int lhs_tuple() const { return lt_; }
  int rhs_tuple() const { return rt_; }  // kSameAttr only
  const Dictionary::ConstantBounds& bounds() const { return bounds_; }
  const int32_t* ranks() const { return ranks_; }

  bool Eval(const std::vector<int>& rows) const;

 private:
  enum class Mode : uint8_t { kSameAttr, kConstant, kFallback };

  Code at(const Code* const* segs, int row) const {
    return segs[row >> EncodedRelation::kBlockShift]
               [row & EncodedRelation::kBlockMask];
  }

  Mode mode_ = Mode::kFallback;
  Op op_ = Op::kEq;
  int lt_ = 0, rt_ = 0;            // tuple variable of lhs / rhs operand
  AttrId lattr_ = 0;               // lhs (== rhs for kSameAttr) attribute
  const Code* const* lsegs_ = nullptr;  // lhs column segment table
  const Code* const* rsegs_ = nullptr;  // rhs column segment table
  const int32_t* ranks_ = nullptr; // lhs dictionary packed ranks
  Dictionary::ConstantBounds bounds_;  // kConstant
  const Predicate* p_ = nullptr;
  const Relation* I_ = nullptr;    // kFallback
  uint64_t structural_epoch_ = 0;
  uint64_t attr_epoch_ = 0;
};

/// A whole constraint compiled against an EncodedRelation; evaluates with
/// the same predicate order and short-circuit as
/// DenialConstraint::IsViolated. It counts nothing: the scans that count
/// predicate evaluations (dc/violation.cc) walk predicate_evals()
/// themselves.
class EncodedConstraintEval {
 public:
  EncodedConstraintEval(const EncodedRelation& E, const DenialConstraint& c);

  const DenialConstraint& constraint() const { return *c_; }
  const std::vector<EncodedPredicateEval>& predicate_evals() const {
    return evals_;
  }

  /// True iff every compiled predicate is still current for E. Keyed per
  /// attribute epoch: growth in a dictionary none of this constraint's
  /// predicates read does not force a recompile.
  bool valid_for(const EncodedRelation& E) const {
    for (const EncodedPredicateEval& ev : evals_) {
      if (!ev.valid_for(E)) return false;
    }
    return true;
  }

  bool IsViolated(const std::vector<int>& rows) const;

 private:
  const DenialConstraint* c_ = nullptr;
  std::vector<EncodedPredicateEval> evals_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_RELATION_ENCODED_H_
