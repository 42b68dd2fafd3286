#ifndef CVREPAIR_RELATION_VALUE_H_
#define CVREPAIR_RELATION_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace cvrepair {

/// Kind of a cell value. A relation cell holds either a concrete typed
/// value, a NULL, or a *fresh variable* `fv` — a placeholder outside the
/// currently known domain that, by definition (Chu et al. [8], Section 2.1
/// of the paper), does not satisfy any predicate.
enum class ValueKind {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kFresh = 4,
};

/// A dynamically typed cell value.
///
/// Values are small, copyable, and totally ordered within a kind. Fresh
/// variables carry an identifier so that distinct fresh assignments remain
/// distinguishable (fv_1, fv_2, ...), but two fresh variables never satisfy
/// any comparison predicate, not even equality with themselves.
class Value {
 public:
  /// Constructs a NULL value.
  Value() : rep_(NullTag{}) {}

  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }
  /// A fresh variable with identifier `id` (see ValueKind::kFresh).
  static Value Fresh(int64_t id) { return Value(Rep(FreshVar{id})); }
  static Value Null() { return Value(); }

  ValueKind kind() const {
    switch (rep_.index()) {
      case 0: return ValueKind::kNull;
      case 1: return ValueKind::kInt;
      case 2: return ValueKind::kDouble;
      case 3: return ValueKind::kString;
      default: return ValueKind::kFresh;
    }
  }

  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_fresh() const { return kind() == ValueKind::kFresh; }
  bool is_numeric() const {
    return kind() == ValueKind::kInt || kind() == ValueKind::kDouble;
  }

  /// Integer payload; only valid when kind() == kInt.
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  /// Double payload; only valid when kind() == kDouble.
  double as_double() const { return std::get<double>(rep_); }
  /// String payload; only valid when kind() == kString.
  const std::string& as_string() const { return std::get<std::string>(rep_); }
  /// Fresh-variable id; only valid when kind() == kFresh.
  int64_t fresh_id() const { return std::get<FreshVar>(rep_).id; }

  /// Numeric payload widened to double (kInt or kDouble only).
  double numeric() const {
    return kind() == ValueKind::kInt ? static_cast<double>(as_int())
                                     : as_double();
  }

  /// Exact representational equality (NULL == NULL, fv_i == fv_i). This is
  /// *storage* equality used by containers and repair bookkeeping; predicate
  /// semantics (where fv never satisfies "=") live in EvalOp (dc/op.h).
  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Total order for use in ordered containers; orders first by kind, then
  /// by payload. Not a semantic comparison.
  friend bool operator<(const Value& a, const Value& b) {
    if (a.rep_.index() != b.rep_.index()) return a.rep_.index() < b.rep_.index();
    return a.rep_ < b.rep_;
  }

  /// Human-readable rendering ("NULL", "fv_3", "42", "3.14", "abc"). A
  /// double prints with the fewest significant digits (at least %g's 6)
  /// that read back (strtod) as the same double, so the CSV writer and the
  /// constraint rendering lose no precision.
  std::string ToString() const;

  /// Hash compatible with operator==.
  size_t Hash() const;

 private:
  struct NullTag {
    friend bool operator==(const NullTag&, const NullTag&) { return true; }
    friend bool operator<(const NullTag&, const NullTag&) { return false; }
  };
  struct FreshVar {
    int64_t id = 0;
    friend bool operator==(const FreshVar& a, const FreshVar& b) {
      return a.id == b.id;
    }
    friend bool operator<(const FreshVar& a, const FreshVar& b) {
      return a.id < b.id;
    }
  };
  using Rep = std::variant<NullTag, int64_t, double, std::string, FreshVar>;

  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

/// std::hash adapter so Value can key unordered containers.
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace cvrepair

#endif  // CVREPAIR_RELATION_VALUE_H_
