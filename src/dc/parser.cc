#include "dc/parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

namespace cvrepair {

namespace {

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

// The byte length of the comparison operator that starts at s[i], or 0 if
// none does: two bytes for "<=", ">=", "!=", "==" and "<>", three for the
// UTF-8 operators ≠ / ≥ / ≤ (0xE2 0x89 ...), else one for ! < > =.
// FindOperator stops at the first such token, valid or not.
size_t OperatorBytes(const std::string& s, size_t i) {
  const char c = s[i];
  if (static_cast<unsigned char>(c) == 0xE2) {
    return i + 2 < s.size() && static_cast<unsigned char>(s[i + 1]) == 0x89
               ? 3
               : 0;
  }
  if (c != '!' && c != '<' && c != '>' && c != '=') return 0;
  const char next = i + 1 < s.size() ? s[i + 1] : '\0';
  return next == '=' || (c == '<' && next == '>') ? 2 : 1;
}

// Finds the operator token in a predicate string, preferring two-character
// operators, and skipping quoted sections.
bool FindOperator(const std::string& s, size_t* pos, size_t* len, Op* op) {
  bool quoted = false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\'') quoted = !quoted;
    if (quoted) continue;
    const size_t l = OperatorBytes(s, i);
    if (l == 0) continue;
    const std::string token = s.substr(i, l);
    if (token == "!") return false;  // "!" alone is not an operator
    if (!ParseOp(token, op)) return false;
    *pos = i;
    *len = l;
    return true;
  }
  return false;
}

// Splits `s` at every `sep` outside a quoted constant, so that a constant
// may hold the separator. A quote opens only where ParseConstant reads a
// quoted operand, at the first non-blank byte after a predicate's
// operator, and the next single quote closes it: inside, '' is an escaped
// quote. An apostrophe anywhere else (in a bare constant, a name or a
// comment) hides no separator. Predicates start at the front of `s` and
// after each '&', or, in a constraint set (`statements`), at a
// statement's "not(". When `s` ends inside quotes, they close nowhere, and
// `s` splits at every `sep`.
std::vector<std::string> SplitOutsideQuotes(const std::string& s, char sep,
                                            bool statements) {
  // Before a statement's "not(", in a predicate's left operand, before the
  // first non-blank byte of its right operand, in a bare right operand, or
  // inside a quoted one.
  enum class At { kStatement, kLeft, kOperand, kBare, kQuoted };
  const At start = statements ? At::kStatement : At::kLeft;
  std::vector<std::string> parts(1);
  At at = start;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == sep && at != At::kQuoted) {
      parts.emplace_back();
      at = start;
      continue;
    }
    std::string& part = parts.back();
    part += c;
    switch (at) {
      case At::kStatement:
        if (part.ends_with("not(") && Trim(part)[0] != '#') at = At::kLeft;
        break;
      case At::kLeft:
        if (const size_t len = OperatorBytes(s, i); len > 0) {
          part.append(s, i + 1, len - 1);  // never a separator
          i += len - 1;
          at = At::kOperand;
        }
        break;
      case At::kOperand:
        if (c == '\'') {
          at = At::kQuoted;
        } else if (c == '&') {
          at = At::kLeft;
        } else if (std::string(" \t\r\n").find(c) == std::string::npos) {
          at = At::kBare;
        }
        break;
      case At::kBare:
        if (c == '&') at = At::kLeft;
        break;
      case At::kQuoted:
        if (c == '\'' && i + 1 < s.size() && s[i + 1] == '\'') {
          part += s[++i];  // '' stands for one quote
        } else if (c == '\'') {
          at = At::kBare;
        }
        break;
    }
  }
  return at == At::kQuoted ? Split(s, sep) : parts;
}

// Parses "t0.Name" into a CellRef. Returns false if not of that shape; a
// token that starts like one ('t', a digit, then a '.') but whose tuple
// variable is not exactly t0 or t1 is an error, not a constant.
bool ParseCellRef(const Schema& schema, const std::string& text, CellRef* ref,
                  std::string* error) {
  std::string s = Trim(text);
  if (s.size() < 4 || s[0] != 't' ||
      !std::isdigit(static_cast<unsigned char>(s[1]))) {
    return false;
  }
  size_t dot = s.find('.');
  if (dot == std::string::npos) return false;
  std::string var = s.substr(0, dot);
  if (var != "t0" && var != "t1") {
    *error = "tuple variable '" + var + "' in '" + s + "' must be t0 or t1";
    return false;
  }
  int tuple = var[1] - '0';
  std::string attr = s.substr(dot + 1);
  std::optional<AttrId> id = schema.Find(attr);
  if (!id) {
    *error = "unknown attribute '" + attr + "'";
    return false;
  }
  ref->tuple = tuple;
  ref->attr = *id;
  return true;
}

bool ParseConstant(const Schema& schema, AttrId lhs_attr,
                   const std::string& text, Value* out, std::string* error) {
  std::string s = Trim(text);
  if (s.empty()) {
    *error = "empty operand";
    return false;
  }
  if (s.front() == '\'' && s.back() == '\'' && s.size() >= 2) {
    // A quoted string; '' inside stands for one quote.
    std::string unquoted;
    for (size_t i = 1; i + 1 < s.size(); ++i) {
      unquoted += s[i];
      if (s[i] == '\'' && s[i + 1] == '\'' && i + 2 < s.size()) ++i;
    }
    *out = Value::String(std::move(unquoted));
    return true;
  }
  switch (schema.type(lhs_attr)) {
    case AttrType::kString:
      *out = Value::String(s);
      return true;
    case AttrType::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(s.c_str(), &end, 10);
      if (*end != '\0' || errno == ERANGE) {
        *error = "cannot parse integer constant '" + s + "'";
        return false;
      }
      *out = Value::Int(v);
      return true;
    }
    case AttrType::kDouble: {
      // Only finite numbers: nan, inf and overflowing literals would
      // break the order every scan relies on (EvalOp gives NaN != NaN).
      char* end = nullptr;
      double v = std::strtod(s.c_str(), &end);
      if (*end != '\0' || !std::isfinite(v)) {
        *error = "cannot parse finite numeric constant '" + s + "'";
        return false;
      }
      *out = Value::Double(v);
      return true;
    }
  }
  *error = "unsupported attribute type";
  return false;
}

bool ParsePredicate(const Schema& schema, const std::string& text,
                    Predicate* out, std::string* error) {
  std::string s = Trim(text);
  size_t pos = 0, len = 0;
  Op op = Op::kEq;
  if (!FindOperator(s, &pos, &len, &op)) {
    *error = "no comparison operator in predicate '" + s + "'";
    return false;
  }
  std::string left = Trim(s.substr(0, pos));
  std::string right = Trim(s.substr(pos + len));
  CellRef lhs;
  if (!ParseCellRef(schema, left, &lhs, error)) {
    if (error->empty()) *error = "left operand must be t<k>.<Attr> in '" + s + "'";
    return false;
  }
  CellRef rhs;
  std::string rhs_err;
  if (ParseCellRef(schema, right, &rhs, &rhs_err)) {
    *out = Predicate::TwoCell(lhs.tuple, lhs.attr, op, rhs.tuple, rhs.attr);
    return true;
  }
  if (!rhs_err.empty()) {
    *error = rhs_err;
    return false;
  }
  Value c;
  if (!ParseConstant(schema, lhs.attr, right, &c, error)) return false;
  *out = Predicate::WithConstant(lhs.tuple, lhs.attr, op, std::move(c));
  return true;
}

ParseConstraintResult ParseFdForm(const Schema& schema, const std::string& text,
                                  const std::string& name) {
  ParseConstraintResult result;
  size_t arrow = text.find("->");
  std::string lhs_text = text.substr(0, arrow);
  std::string rhs_text = Trim(text.substr(arrow + 2));
  std::vector<AttrId> lhs;
  for (const std::string& part : Split(lhs_text, ',')) {
    std::string attr = Trim(part);
    if (attr.empty()) continue;
    std::optional<AttrId> id = schema.Find(attr);
    if (!id) {
      result.error = "unknown attribute '" + attr + "' in FD";
      return result;
    }
    lhs.push_back(*id);
  }
  if (lhs.empty()) {
    result.error = "FD has empty left-hand side";
    return result;
  }
  std::optional<AttrId> rhs = schema.Find(rhs_text);
  if (!rhs) {
    result.error = "unknown attribute '" + rhs_text + "' in FD";
    return result;
  }
  result.constraint = DenialConstraint::FromFd(lhs, *rhs, name);
  return result;
}

}  // namespace

ParseConstraintResult ParseConstraint(const Schema& schema,
                                      const std::string& text) {
  ParseConstraintResult result;
  std::string s = Trim(text);

  // Optional "name:" prefix (the name must not contain parens or '.').
  std::string name;
  size_t colon = s.find(':');
  if (colon != std::string::npos) {
    std::string prefix = s.substr(0, colon);
    if (prefix.find('(') == std::string::npos &&
        prefix.find('.') == std::string::npos) {
      name = Trim(prefix);
      s = Trim(s.substr(colon + 1));
    }
  }

  if (s.find("->") != std::string::npos && s.find("not(") == std::string::npos) {
    return ParseFdForm(schema, s, name);
  }

  if (s.rfind("not(", 0) != 0 || s.back() != ')') {
    result.error = "constraint must be 'not(...)' or an FD 'A,B -> C'";
    return result;
  }
  std::string body = s.substr(4, s.size() - 5);
  std::vector<Predicate> preds;
  for (const std::string& part : SplitOutsideQuotes(body, '&', false)) {
    std::string ptext = Trim(part);
    if (ptext.empty()) {
      result.error = "empty predicate in '" + text + "'";
      return result;
    }
    Predicate p;
    std::string error;
    if (!ParsePredicate(schema, ptext, &p, &error)) {
      result.error = error;
      return result;
    }
    preds.push_back(p);
  }
  if (preds.empty()) {
    result.error = "denial constraint requires at least one predicate";
    return result;
  }
  result.constraint = DenialConstraint(std::move(preds), name);
  return result;
}

ParseSetResult ParseConstraintSet(const Schema& schema,
                                  const std::string& text) {
  ParseSetResult result;
  ConstraintSet set;
  // One constraint per line, or several separated by ';' (outside quoted
  // constants); '#' starts a comment.
  for (const std::string& rawline : Split(text, '\n')) {
    for (const std::string& statement :
         SplitOutsideQuotes(rawline, ';', true)) {
      std::string line = Trim(statement);
      if (line.empty() || line[0] == '#') continue;
      ParseConstraintResult one = ParseConstraint(schema, line);
      if (!one.ok()) {
        result.error = "in '" + line + "': " + one.error;
        return result;
      }
      set.push_back(std::move(*one.constraint));
    }
  }
  result.constraints = std::move(set);
  return result;
}

}  // namespace cvrepair
