#include "dc/predicate_space.h"

#include <algorithm>

namespace cvrepair {

std::vector<Predicate> BuildPredicateSpace(
    const Schema& schema, const PredicateSpaceOptions& options) {
  std::vector<Predicate> space;
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (schema.is_key(a)) continue;
    if (std::find(options.excluded_attrs.begin(), options.excluded_attrs.end(),
                  a) != options.excluded_attrs.end()) {
      continue;
    }
    space.push_back(Predicate::TwoCell(0, a, Op::kEq, 1, a));
    if (schema.is_numeric(a)) {
      space.push_back(Predicate::TwoCell(0, a, Op::kLt, 1, a));
      space.push_back(Predicate::TwoCell(0, a, Op::kGt, 1, a));
    }
  }
  return space;
}

std::vector<AttrId> EqualityJoinAttrs(const std::vector<Predicate>& preds) {
  std::vector<AttrId> attrs;
  for (const Predicate& p : preds) {
    if (!p.has_constant() && p.op() == Op::kEq &&
        p.IsSameAttributeAcrossTuples()) {
      attrs.push_back(p.lhs().attr);
    }
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

}  // namespace cvrepair
