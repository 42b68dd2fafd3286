#ifndef CVREPAIR_DC_EVAL_INDEX_H_
#define CVREPAIR_DC_EVAL_INDEX_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "dc/constraint.h"
#include "dc/eval_counters.h"  // the staged replica reads EvalCounters
#include "dc/violation.h"
#include "relation/encoded.h"
#include "relation/relation.h"

namespace cvrepair {

/// Frozen-perfbench adapter. perfbench/src/staged.cc, frozen outside
/// benchmark changes, stages Algorithm 1 with one EvalIndex per base
/// constraint: it constructs them, Prepares every variant and detects
/// through FindViolationsCapped. This class keeps exactly that surface and
/// detects with the library's own capped scan, so every result — order,
/// capped prefix and truncated flag — is FindViolationsOfCapped's. The
/// library itself calls FindViolationsOfCapped once per distinct
/// constraint (ScanVariantFacts). Deleted in the next benchmark change
/// (ROADMAP.md, item 3).
class EvalIndex {
 public:
  /// Ignored by the constructor; the staged replica passes it.
  static constexpr int64_t kDefaultMemoBudget = int64_t{1} << 22;

  /// `encoded` must mirror `I` (in_sync) and outlive the adapter. `base`
  /// and `memo_budget` are ignored.
  EvalIndex([[maybe_unused]] const Relation& I,
            const DenialConstraint& /*base*/, int64_t /*memo_budget*/,
            const EncodedRelation* encoded)
      : E_(encoded) {
    assert(&E_->relation() == &I && E_->in_sync());
  }

  /// No-op.
  void Prepare(const DenialConstraint& /*variant*/) {}

  std::vector<Violation> FindViolationsCapped(const DenialConstraint& variant,
                                              int constraint_index,
                                              int64_t cap,
                                              bool* truncated) const {
    return FindViolationsOfCapped(*E_, variant, constraint_index, cap,
                                  truncated);
  }

 private:
  const EncodedRelation* E_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_DC_EVAL_INDEX_H_
