#include "relation/encoded.h"

#include <algorithm>
#include <cmath>

#include "dc/constraint.h"
#include "dc/predicate.h"

namespace cvrepair {

namespace {

bool IsNanDouble(const Value& v) {
  return v.kind() == ValueKind::kDouble && std::isnan(v.as_double());
}

}  // namespace

int Dictionary::Compare(const Value& a, const Value& b) {
  if (a.kind() == ValueKind::kString) {
    int cmp = a.as_string().compare(b.as_string());
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  double x = a.numeric();
  double y = b.numeric();
  return x < y ? -1 : (y < x ? 1 : 0);
}

size_t Dictionary::SortedPos(int32_t cls, const Value& v, bool* found) const {
  const std::vector<Code>& order = sorted_[cls];
  size_t lo = 0;
  size_t hi = order.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (Compare(values_[static_cast<size_t>(order[mid])], v) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *found = lo < order.size() &&
           Compare(values_[static_cast<size_t>(order[lo])], v) == 0;
  return lo;
}

Code Dictionary::EncodeInsert(const Value& v) {
  if (v.is_null()) return kNullCode;
  if (v.is_fresh()) return kFreshCode;
  // EvalOp gives NaN != NaN — no total order can encode that; the
  // generators, the CSV reader and the DC parser never produce NaN.
  assert(!IsNanDouble(v));
  int32_t cls = ClassOf(v);
  bool found = false;
  size_t pos = SortedPos(cls, v, &found);
  if (found) return sorted_[cls][pos];
  Code code = static_cast<Code>(values_.size());
  values_.push_back(v);
  rank_of_.push_back(0);  // patched below
  std::vector<Code>& order = sorted_[cls];
  order.insert(order.begin() + static_cast<ptrdiff_t>(pos), code);
  // Rank recovery: every entry ordered at or after the insertion point
  // shifts up by one; codes stay put.
  for (size_t i = pos; i < order.size(); ++i) {
    rank_of_[static_cast<size_t>(order[i])] =
        (cls << kRankBits) | static_cast<int32_t>(i);
  }
  return code;
}

Code Dictionary::Lookup(const Value& v) const {
  if (v.is_null()) return kNullCode;
  if (v.is_fresh()) return kFreshCode;
  if (IsNanDouble(v)) return kAbsentCode;
  int32_t cls = ClassOf(v);
  bool found = false;
  size_t pos = SortedPos(cls, v, &found);
  return found ? sorted_[cls][pos] : kAbsentCode;
}

Dictionary::ConstantBounds Dictionary::BoundsOf(const Value& c) const {
  ConstantBounds b;
  if (c.is_null() || c.is_fresh() || IsNanDouble(c)) return b;  // cls = -1
  b.cls = ClassOf(c);
  bool found = false;
  size_t pos = SortedPos(b.cls, c, &found);
  b.lower = static_cast<int32_t>(pos);
  b.upper = static_cast<int32_t>(pos) + (found ? 1 : 0);
  b.eq = found ? sorted_[b.cls][pos] : kAbsentCode;
  return b;
}

Code* EncodedRelation::AllocateSegment() {
  if (arena_used_ == kSegmentsPerChunk) {
    arena_.push_back(std::make_unique<Code[]>(
        static_cast<size_t>(kSegmentsPerChunk) * kBlockSize));
    arena_used_ = 0;
  }
  Code* seg = arena_.back().get() +
              static_cast<size_t>(arena_used_) * kBlockSize;
  ++arena_used_;
  // Unused tail lanes stay kNullCode: deterministic, and a stray read of
  // an unfilled lane behaves like a sentinel instead of garbage.
  std::fill_n(seg, kBlockSize, kNullCode);
  return seg;
}

void EncodedRelation::AppendSegmentToColumn(AttrId a) {
  col_segs_[static_cast<size_t>(a)].push_back(AllocateSegment());
  metas_[static_cast<size_t>(a)].emplace_back();
}

void EncodedRelation::RecomputeBlockMeta(AttrId a, int b) {
  BlockMeta m;
  const Code* seg = block_codes(a, b);
  const Dictionary& d = dicts_[static_cast<size_t>(a)];
  int rows = block_rows(b);
  for (int i = 0; i < rows; ++i) {
    Code v = seg[i];
    if (v < 0) {
      m.has_sentinel = true;
      continue;
    }
    int32_t r = d.rank(v);
    m.min_rank = std::min(m.min_rank, r);
    m.max_rank = std::max(m.max_rank, r);
  }
  metas_[static_cast<size_t>(a)][static_cast<size_t>(b)] = m;
}

void EncodedRelation::RecomputeColumnMetas(AttrId a) {
  int blocks = num_blocks();
  for (int b = 0; b < blocks; ++b) RecomputeBlockMeta(a, b);
}

EncodedRelation::EncodedRelation(const Relation& I)
    : I_(&I),
      n_(I.num_rows()),
      dicts_(static_cast<size_t>(I.num_attributes())),
      col_segs_(static_cast<size_t>(I.num_attributes())),
      metas_(static_cast<size_t>(I.num_attributes())),
      attr_epochs_(static_cast<size_t>(I.num_attributes()), 0),
      synced_version_(I.version()) {
  int blocks = num_blocks();
  for (AttrId a = 0; a < I.num_attributes(); ++a) {
    Dictionary& dict = dicts_[static_cast<size_t>(a)];
    col_segs_[static_cast<size_t>(a)].reserve(static_cast<size_t>(blocks));
    for (int b = 0; b < blocks; ++b) {
      AppendSegmentToColumn(a);
      Code* seg = col_segs_[static_cast<size_t>(a)].back();
      int begin = b << kBlockShift;
      int rows = block_rows(b);
      for (int i = 0; i < rows; ++i) {
        seg[i] = dict.EncodeInsert(I.Get(begin + i, a));
      }
    }
    // One pass after all inserts: building meta per insert would be
    // quadratic while the dictionary is still growing.
    RecomputeColumnMetas(a);
  }
}

void EncodedRelation::ApplyChange(int row, AttrId attr) {
  assert(I_->num_rows() == n_);
  Dictionary& dict = dicts_[static_cast<size_t>(attr)];
  int before = dict.size();
  col_segs_[static_cast<size_t>(attr)]
           [static_cast<size_t>(row >> kBlockShift)][row & kBlockMask] =
      dict.EncodeInsert(I_->Get(row, attr));
  if (dict.size() != before) {
    ++attr_epochs_[static_cast<size_t>(attr)];
    // The insert shifted the ranks of every entry ordered after the new
    // value; all of this column's zone maps may be stale.
    RecomputeColumnMetas(attr);
  } else {
    RecomputeBlockMeta(attr, row >> kBlockShift);
  }
  synced_version_ = I_->version();
}

void EncodedRelation::AppendRow() {
  assert(I_->num_rows() == n_ + 1);
  int row = n_;
  int b = row >> kBlockShift;
  std::vector<bool> grew(static_cast<size_t>(num_attributes()), false);
  for (AttrId a = 0; a < I_->num_attributes(); ++a) {
    if ((row & kBlockMask) == 0) AppendSegmentToColumn(a);
    Dictionary& dict = dicts_[static_cast<size_t>(a)];
    int before = dict.size();
    col_segs_[static_cast<size_t>(a)][static_cast<size_t>(b)]
             [row & kBlockMask] = dict.EncodeInsert(I_->Get(row, a));
    if (dict.size() != before) {
      grew[static_cast<size_t>(a)] = true;
      ++attr_epochs_[static_cast<size_t>(a)];
    }
  }
  ++n_;
  // Unconditional: push_back may have reallocated a segment table, and
  // compiled evaluators hold raw table pointers (see header).
  ++structural_epoch_;
  for (AttrId a = 0; a < I_->num_attributes(); ++a) {
    if (grew[static_cast<size_t>(a)]) {
      RecomputeColumnMetas(a);  // ranks shifted under this column
    } else {
      RecomputeBlockMeta(a, b);
    }
  }
  synced_version_ = I_->version();
}

EncodedPredicateEval::EncodedPredicateEval(const EncodedRelation& E,
                                           const Predicate& p)
    : op_(p.op()),
      p_(&p),
      I_(&E.relation()),
      structural_epoch_(E.structural_epoch()) {
  lt_ = p.lhs().tuple;
  lattr_ = p.lhs().attr;
  lsegs_ = E.segments(lattr_);
  ranks_ = E.dict(lattr_).rank_data();
  attr_epoch_ = E.attr_epoch(lattr_);
  if (p.has_constant()) {
    mode_ = Mode::kConstant;
    bounds_ = E.dict(lattr_).BoundsOf(p.constant());
  } else if (p.rhs_cell().attr == p.lhs().attr) {
    mode_ = Mode::kSameAttr;
    rt_ = p.rhs_cell().tuple;
    rsegs_ = lsegs_;
  } else {
    // Cross-attribute operands live in different dictionaries; codes are
    // not comparable across them, so evaluate on values.
    mode_ = Mode::kFallback;
  }
}

bool EncodedPredicateEval::Eval(const std::vector<int>& rows) const {
  switch (mode_) {
    case Mode::kSameAttr: {
      Code a = at(lsegs_, rows[static_cast<size_t>(lt_)]);
      Code b = at(rsegs_, rows[static_cast<size_t>(rt_)]);
      if ((a | b) < 0) return false;  // NULL/fresh satisfies nothing
      if (op_ == Op::kEq) return a == b;
      int32_t ra = ranks_[a];
      int32_t rb = ranks_[b];
      // Comparison classes must match (type-mismatched operands satisfy
      // nothing, '!=' included); within a class the packed rank compare
      // is the semantic compare.
      if ((ra ^ rb) >> Dictionary::kRankBits) return false;
      switch (op_) {
        case Op::kNeq: return a != b;
        case Op::kGt: return ra > rb;
        case Op::kLt: return ra < rb;
        case Op::kGeq: return ra >= rb;
        case Op::kLeq: return ra <= rb;
        default: return false;
      }
    }
    case Mode::kConstant: {
      Code a = at(lsegs_, rows[static_cast<size_t>(lt_)]);
      if (a < 0 || bounds_.cls < 0) return false;
      int32_t ra = ranks_[a];
      if ((ra >> Dictionary::kRankBits) != bounds_.cls) return false;
      if (op_ == Op::kEq) return a == bounds_.eq;
      if (op_ == Op::kNeq) return a != bounds_.eq;
      int32_t r = ra & Dictionary::kRankMask;
      switch (op_) {
        case Op::kLt: return r < bounds_.lower;
        case Op::kLeq: return r < bounds_.upper;
        case Op::kGt: return r >= bounds_.upper;
        case Op::kGeq: return r >= bounds_.lower;
        default: return false;
      }
    }
    case Mode::kFallback:
      return p_->Eval(*I_, rows);
  }
  return false;
}

EncodedConstraintEval::EncodedConstraintEval(const EncodedRelation& E,
                                             const DenialConstraint& c)
    : c_(&c) {
  evals_.reserve(c.predicates().size());
  for (const Predicate& p : c.predicates()) evals_.emplace_back(E, p);
}

bool EncodedConstraintEval::IsViolated(const std::vector<int>& rows) const {
  for (const EncodedPredicateEval& ev : evals_) {
    if (!ev.Eval(rows)) return false;
  }
  return !evals_.empty();
}

}  // namespace cvrepair
