#ifndef PERFBENCH_STAGED_H_
#define PERFBENCH_STAGED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dc/incremental.h"
#include "repair/cvtolerant.h"
#include "spans.h"

namespace perfbench {

/// Per-layer work counts of staged operations, keyed by metric name.
using Counts = std::map<std::string, double>;

/// The outcome of a staged θ-tolerant repair, with the figures the
/// equivalence guard compares against CVTolerantRepair's RepairStats.
struct StagedResult {
  cvrepair::ConstraintSet variant;  ///< Σ'
  cvrepair::Relation repaired;
  double cost = 0.0;
  int variants = 0;
  int initial_violations = 0;  ///< violations of Σ itself
  int calls = 0;               ///< DataRepair calls
  int pruned = 0;              ///< hopeless + bound-pruned candidates
};

/// Algorithm 1 as CVTolerantRepair runs it at one thread with the CLI's
/// defaults (update strategy, Vfree engine, cross-variant sharing, bound
/// pruning, shared evaluation indexes, encoded scans, no decomposition),
/// staged through the library's public calls so that each layer gets its
/// own span, in CVTolerantRepair's order:
///   1. generate the variants;
///   2. encode the input (EncodedRelation + DomainStats);
///   3. build the indexes (EvalIndex + Prepare);
///   4. detect violations and compute bounds per distinct constraint;
///   5. per surviving candidate: hypergraph + cover, FindSuspects, context,
///      decompose, cache lookup or Solve + Store, copy, RepairCost.
/// The result must equal CVTolerantRepair(I, sigma, options) cell for cell
/// (fresh ids included); the traced run checks it does. `options` must be
/// the defaults apart from the variant space and threads = 1.
StagedResult StagedCVTolerantRepair(const cvrepair::Relation& I,
                                    const cvrepair::ConstraintSet& sigma,
                                    const cvrepair::CVTolerantOptions& options,
                                    SpanRecorder* rec, Counts* counts);

/// An unsharded replica of a served session: one ViolationIndex over the
/// whole instance and Σ', fed the same batches, with ShardedSession's
/// per-batch re-solve (fresh DomainStats, cold component cache, the
/// session's fresh counter) staged through the graph, dc and solver calls.
class ReplicaSession {
 public:
  /// `repaired` and `variant` are the served session's state after open.
  ReplicaSession(const cvrepair::Relation& repaired,
                 const cvrepair::ConstraintSet& variant,
                 const cvrepair::CVTolerantOptions& options, SpanRecorder* rec);

  void ApplyBatch(const std::vector<cvrepair::RowEdit>& edits,
                  SpanRecorder* rec, Counts* counts);

  const cvrepair::Relation& current() const { return index_->relation(); }

 private:
  cvrepair::ConstraintSet variant_;
  cvrepair::VfreeOptions vfree_;
  std::unique_ptr<cvrepair::ViolationIndex> index_;
  int64_t fresh_counter_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_STAGED_H_
