#ifndef CVREPAIR_DC_PREDICATE_H_
#define CVREPAIR_DC_PREDICATE_H_

#include <optional>
#include <string>
#include <vector>

#include "dc/op.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "relation/value.h"

namespace cvrepair {

/// Index of a tuple variable within a denial constraint: 0 = t_alpha,
/// 1 = t_beta. Constraints in this library involve at most two tuple
/// variables (ell <= 2, covering FDs, CFDs, and linear/binary DCs, the
/// classes the paper evaluates).
using TupleVar = int;

/// One side of a predicate that references a cell: t_x.A.
struct CellRef {
  TupleVar tuple = 0;
  AttrId attr = 0;

  friend bool operator==(const CellRef& a, const CellRef& b) {
    return a.tuple == b.tuple && a.attr == b.attr;
  }
  friend bool operator<(const CellRef& a, const CellRef& b) {
    return a.tuple != b.tuple ? a.tuple < b.tuple : a.attr < b.attr;
  }
};

/// A denial-constraint predicate P: either `t_x.A op t_y.B` (two-cell) or
/// `t_x.A op c` (cell-constant). Section 2 of the paper.
class Predicate {
 public:
  Predicate() = default;

  /// Builds a two-cell predicate t_{lt}.la op t_{rt}.ra.
  static Predicate TwoCell(TupleVar lt, AttrId la, Op op, TupleVar rt,
                           AttrId ra) {
    Predicate p;
    p.lhs_ = {lt, la};
    p.op_ = op;
    p.rhs_cell_ = CellRef{rt, ra};
    return p;
  }

  /// Builds a cell-constant predicate t_{lt}.la op c.
  static Predicate WithConstant(TupleVar lt, AttrId la, Op op, Value c) {
    Predicate p;
    p.lhs_ = {lt, la};
    p.op_ = op;
    p.constant_ = std::move(c);
    return p;
  }

  const CellRef& lhs() const { return lhs_; }
  Op op() const { return op_; }
  bool has_constant() const { return constant_.has_value(); }
  const Value& constant() const { return *constant_; }
  const CellRef& rhs_cell() const { return *rhs_cell_; }

  /// True for the common "binary DC" shape t_alpha.A op t_beta.A used by
  /// FDs and by every predicate the variant generator may insert.
  bool IsSameAttributeAcrossTuples() const {
    return rhs_cell_.has_value() && rhs_cell_->attr == lhs_.attr &&
           rhs_cell_->tuple != lhs_.tuple;
  }

  /// True if both sides refer to the same operand pair (same cells, or same
  /// cell and equal constant), irrespective of the operator. Predicates on
  /// the same operands are the ones Imp/Contradicts reason about.
  bool SameOperands(const Predicate& other) const;

  /// Evaluates the predicate on the tuple list (rows[0] = t_alpha,
  /// rows[1] = t_beta) over instance `I`.
  bool Eval(const Relation& I, const std::vector<int>& rows) const;

  /// The distinct cells this predicate touches when instantiated on `rows`.
  std::vector<Cell> Cells(const std::vector<int>& rows) const;

  /// Highest tuple-variable index used (0 or 1).
  TupleVar MaxTupleVar() const {
    TupleVar m = lhs_.tuple;
    if (rhs_cell_ && rhs_cell_->tuple > m) m = rhs_cell_->tuple;
    return m;
  }

  /// Returns a copy with the operator replaced.
  Predicate WithOp(Op op) const {
    Predicate p = *this;
    p.op_ = op;
    return p;
  }

  /// e.g. "t0.Income>t1.Income" or "t0.Age>=18". A constant prints so that
  /// ParseConstraint reads back the same value: a string is quoted
  /// ('New York ') where its bare text would parse as something else.
  std::string ToString(const Schema& schema) const;

  friend bool operator==(const Predicate& a, const Predicate& b) {
    if (!(a.lhs_ == b.lhs_) || a.op_ != b.op_) return false;
    if (a.constant_.has_value() != b.constant_.has_value()) return false;
    if (a.constant_ && !(*a.constant_ == *b.constant_)) return false;
    if (a.rhs_cell_.has_value() != b.rhs_cell_.has_value()) return false;
    if (a.rhs_cell_ && !(*a.rhs_cell_ == *b.rhs_cell_)) return false;
    return true;
  }
  friend bool operator!=(const Predicate& a, const Predicate& b) {
    return !(a == b);
  }
  friend bool operator<(const Predicate& a, const Predicate& b);

 private:
  CellRef lhs_;
  Op op_ = Op::kEq;
  std::optional<CellRef> rhs_cell_;
  std::optional<Value> constant_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_DC_PREDICATE_H_
