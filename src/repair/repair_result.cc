#include "repair/repair_result.h"

#include <sstream>

#include "util/metrics.h"

namespace cvrepair {

std::string RepairStats::ToString() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " solver_calls=" << solver_calls
     << " cache_hits=" << cache_hits << " fresh=" << fresh_assignments
     << " changed=" << changed_cells << " cost=" << repair_cost
     << " violations=" << initial_violations;
  if (rows_deleted > 0) os << " rows_deleted=" << rows_deleted;
  if (giant_component_cells > 0 || components_split > 0) {
    os << " components_split=" << components_split
       << " stitch_merges=" << stitch_merges
       << " giant_cells=" << giant_component_cells;
  }
  if (variants_enumerated > 0) {
    os << " variants=" << variants_enumerated;
    if (variants_capped) os << " variants_capped=1";
    os << " pruned_bounds=" << variants_pruned_bounds
       << " datarepair_calls=" << datarepair_calls
       << " partition_builds=" << index_partition_builds
       << " predicate_evals=" << index_predicate_evals
       << " code_evals=" << index_code_evals
       << " truncated_scans=" << index_truncated_scans
       << " blocks_scanned=" << index_blocks_scanned
       << " blocks_skipped=" << index_blocks_skipped
       << " bound_memo_hits=" << bound_memo_hits;
  }
  os << " time=" << elapsed_seconds << "s";
  return os.str();
}

void PublishRepairStats(const RepairStats& stats) {
  MetricsRegistry& r = MetricsRegistry::Global();
  r.GetCounter("repair.rounds")->Add(stats.rounds);
  r.GetCounter("repair.solver_calls")->Add(stats.solver_calls);
  r.GetCounter("repair.cache_hits")->Add(stats.cache_hits);
  r.GetCounter("repair.fresh_assignments")->Add(stats.fresh_assignments);
  r.GetCounter("repair.changed_cells")->Add(stats.changed_cells);
  r.GetCounter("repair.initial_violations")->Add(stats.initial_violations);
  r.GetCounter("repair.suspects")->Add(stats.suspects);
  r.GetCounter("repair.rows_deleted")->Add(stats.rows_deleted);
  r.GetCounter("repair.variants_enumerated")->Add(stats.variants_enumerated);
  r.GetCounter("repair.variants_pruned_nonmaximal")
      ->Add(stats.variants_pruned_nonmaximal);
  r.GetCounter("repair.variants_pruned_bounds")
      ->Add(stats.variants_pruned_bounds);
  r.GetCounter("repair.variants_hopeless")->Add(stats.variants_hopeless);
  r.GetCounter("repair.datarepair_calls")->Add(stats.datarepair_calls);
  r.GetCounter("repair.bound_memo_hits")->Add(stats.bound_memo_hits);
  // The decomposition fields (components_split / stitch_merges /
  // giant_component_cells) are deliberately *not* republished: the vfree
  // engine already increments the "solve.*" registry counters at the
  // moment it splits or stitches, exactly like the eval-index fields.
}

}  // namespace cvrepair
