#include "dc/predicate.h"

#include <cctype>
#include <string>

namespace cvrepair {

bool Predicate::SameOperands(const Predicate& other) const {
  if (!(lhs_ == other.lhs_)) return false;
  if (rhs_cell_.has_value() && other.rhs_cell_.has_value()) {
    return *rhs_cell_ == *other.rhs_cell_;
  }
  if (constant_.has_value() && other.constant_.has_value()) {
    return *constant_ == *other.constant_;
  }
  return false;
}

bool Predicate::Eval(const Relation& I, const std::vector<int>& rows) const {
  const Value& left = I.Get(rows[lhs_.tuple], lhs_.attr);
  if (constant_) return EvalOp(left, op_, *constant_);
  const Value& right = I.Get(rows[rhs_cell_->tuple], rhs_cell_->attr);
  return EvalOp(left, op_, right);
}

std::vector<Cell> Predicate::Cells(const std::vector<int>& rows) const {
  std::vector<Cell> cells;
  cells.push_back({rows[lhs_.tuple], lhs_.attr});
  if (rhs_cell_) {
    Cell rc{rows[rhs_cell_->tuple], rhs_cell_->attr};
    if (!(rc == cells[0])) cells.push_back(rc);
  }
  return cells;
}

namespace {

// True iff the DC parser, reading `text` as an operand, finds each '&' and
// ';' of it inside the quote that opens at its first byte and closes at
// its next one, and so splits no predicate or constraint there.
bool SeparatorsQuoted(const std::string& text) {
  const size_t last = text.find_last_of("&;");
  if (last == std::string::npos) return true;
  const size_t close = text.find('\'', 1);
  return text[0] == '\'' && close != std::string::npos && last < close;
}

// The text of a constant on an attribute of type `type` that the DC parser
// reads back as the same value. A string stays bare unless the parser
// would take its bare text for something else — a number, a quoted or
// trimmed string, a longer operator, a tuple variable — and is quoted
// then. One that holds a separator ('&', ';') is quoted, unless its own
// leading quote holds every separator and it ends unquoted, as the parser
// reads "'a&b'c"; then it stays bare. A quote inside a quoted constant
// has no escape, so some such strings, "x'y&z" or "'a;b'", have no text
// that reads back; the parser yields none of them.
std::string ConstantText(const Value& c, AttrType type) {
  if (c.kind() != ValueKind::kString) return c.ToString();
  const std::string& s = c.as_string();
  const std::string kSpace = " \t\r\n";
  const bool unpadded = type == AttrType::kString && !s.empty() &&
                        kSpace.find(s.front()) == std::string::npos &&
                        kSpace.find(s.back()) == std::string::npos;
  const bool bare =
      s.find_first_of("&;") == std::string::npos
          ? unpadded &&
                std::string("'=<>!").find(s.front()) == std::string::npos &&
                !(s.size() >= 2 && s[0] == 't' &&
                  std::isdigit(static_cast<unsigned char>(s[1])))
          : unpadded && s.back() != '\'' && SeparatorsQuoted(s);
  return bare ? s : "'" + s + "'";
}

}  // namespace

std::string Predicate::ToString(const Schema& schema) const {
  std::string out = "t" + std::to_string(lhs_.tuple) + "." + schema.name(lhs_.attr);
  out += OpToString(op_);
  if (constant_) {
    out += ConstantText(*constant_, schema.type(lhs_.attr));
  } else {
    out += "t" + std::to_string(rhs_cell_->tuple) + "." +
           schema.name(rhs_cell_->attr);
  }
  return out;
}

bool operator<(const Predicate& a, const Predicate& b) {
  if (!(a.lhs_ == b.lhs_)) return a.lhs_ < b.lhs_;
  if (a.op_ != b.op_) return a.op_ < b.op_;
  bool ac = a.rhs_cell_.has_value();
  bool bc = b.rhs_cell_.has_value();
  if (ac != bc) return ac < bc;
  if (ac && bc && !(*a.rhs_cell_ == *b.rhs_cell_)) {
    return *a.rhs_cell_ < *b.rhs_cell_;
  }
  bool ak = a.constant_.has_value();
  bool bk = b.constant_.has_value();
  if (ak != bk) return ak < bk;
  if (ak && bk) return *a.constant_ < *b.constant_;
  return false;
}

}  // namespace cvrepair
