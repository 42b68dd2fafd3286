#ifndef CVREPAIR_DC_PREDICATE_SPACE_H_
#define CVREPAIR_DC_PREDICATE_SPACE_H_

#include <vector>

#include "dc/predicate.h"
#include "relation/schema.h"

namespace cvrepair {

/// Options controlling which predicates may be proposed for insertion.
struct PredicateSpaceOptions {
  /// Skip attributes whose ids appear here (e.g., attributes known to be
  /// identifiers beyond declared keys).
  std::vector<AttrId> excluded_attrs;
};

/// The predicate space P of *insertable* predicates over a schema
/// (Section 2.2.1). Only same-attribute two-tuple predicates
/// t0.A op t1.A are proposed: predicates with constants would trivialize
/// DCs over the active data, and joins across unrelated attributes are the
/// province of DC discovery [7], not repair. Declared key attributes are
/// excluded (t0.K = t1.K makes every two-tuple DC trivially satisfied).
/// Categorical attributes contribute only '=', numeric attributes
/// contribute '=', '<', '>': insertable operators are restricted to
/// {<, >, =} because variants inserting <=, >=, != are never maximal
/// (Proposition 2).
std::vector<Predicate> BuildPredicateSpace(
    const Schema& schema, const PredicateSpaceOptions& options = {});

/// The sorted, deduplicated attributes joined with equality across the two
/// tuple variables (predicates of the form t0.A = t1.A). This is the
/// grouping structure shared by hash-partitioned violation detection
/// (dc/violation.cc, dc/incremental.cc) and the variant generator's
/// conditional-support sampling: two rows can only instantiate a violation
/// of the constraint if they agree on every one of these attributes.
std::vector<AttrId> EqualityJoinAttrs(const std::vector<Predicate>& preds);

}  // namespace cvrepair

#endif  // CVREPAIR_DC_PREDICATE_SPACE_H_
