#ifndef CVREPAIR_DC_PARSER_H_
#define CVREPAIR_DC_PARSER_H_

#include <optional>
#include <string>

#include "dc/constraint.h"
#include "relation/schema.h"

namespace cvrepair {

/// Result of parsing one constraint: the constraint or an error message.
struct ParseConstraintResult {
  std::optional<DenialConstraint> constraint;
  std::string error;

  bool ok() const { return constraint.has_value(); }
};

/// Parses a denial constraint in the textual form produced by
/// DenialConstraint::ToString, e.g.
///
///   not(t0.Name=t1.Name & t0.CP!=t1.CP)
///   not(t0.Income>t1.Income & t0.Tax<=t1.Tax)
///   not(t0.Age<18)
///
/// Operands are `t<k>.<AttrName>` or a constant (quoted string, or a
/// number matching the attribute's type). Operators: = != < > <= >= (and
/// their Unicode variants). An optional `name:` prefix names the DC.
/// A quote that opens an operand runs to the next quote, and a '&' or ';'
/// inside it separates nothing ('A&B'); an apostrophe inside a bare
/// constant (O'Brien) opens no quote.
///
/// Also accepts functional dependencies in the form
///
///   A,B -> C
///
/// which desugars to not(t0.A=t1.A & t0.B=t1.B & t0.C!=t1.C).
ParseConstraintResult ParseConstraint(const Schema& schema,
                                      const std::string& text);

/// Parses a newline- or semicolon-separated list of constraints; empty
/// lines and lines starting with '#' are skipped. On error, `error`
/// identifies the offending line.
struct ParseSetResult {
  std::optional<ConstraintSet> constraints;
  std::string error;

  bool ok() const { return constraints.has_value(); }
};
ParseSetResult ParseConstraintSet(const Schema& schema,
                                  const std::string& text);

}  // namespace cvrepair

#endif  // CVREPAIR_DC_PARSER_H_
