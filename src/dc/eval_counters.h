#ifndef CVREPAIR_DC_EVAL_COUNTERS_H_
#define CVREPAIR_DC_EVAL_COUNTERS_H_

#include <cstdint>

namespace cvrepair {

/// Process-wide evaluation counters of the scans (dc/violation.cc,
/// dc/incremental.cc). They make detection work *checkable*:
/// RepairStats::index_* report a run's delta, and the eval.* metrics
/// baselines pin them.
struct EvalCounters {
  int64_t partition_builds = 0;   ///< hash partitions built by a full scan
  int64_t predicate_evals = 0;    ///< single-predicate evals on boxed Values
  int64_t code_predicate_evals = 0;  ///< single-predicate evals on int codes
  int64_t truncated_scans = 0;    ///< capped scans that hit their cap
  int64_t blocks_scanned = 0;     ///< zone-map consults that ran the block
  int64_t blocks_skipped = 0;     ///< zone-map consults that pruned it

  // Frozen-perfbench block. perfbench/src/staged.cc, frozen outside
  // benchmark changes, reads these four, and every bench/baselines file
  // pins their eval.* metrics at 0. Nothing increments them: the EvalIndex
  // adapter (dc/eval_index.h) derives no partitions and keeps no memo.
  // They go together with EvalIndex (ROADMAP.md, item 3).
  int64_t partition_refines = 0;
  int64_t partition_merges = 0;
  int64_t partition_hits = 0;
  int64_t memo_hits = 0;

  EvalCounters& operator+=(const EvalCounters& o) {
    partition_builds += o.partition_builds;
    partition_refines += o.partition_refines;
    partition_merges += o.partition_merges;
    partition_hits += o.partition_hits;
    predicate_evals += o.predicate_evals;
    code_predicate_evals += o.code_predicate_evals;
    memo_hits += o.memo_hits;
    truncated_scans += o.truncated_scans;
    blocks_scanned += o.blocks_scanned;
    blocks_skipped += o.blocks_skipped;
    return *this;
  }
  EvalCounters& operator-=(const EvalCounters& o) {
    partition_builds -= o.partition_builds;
    partition_refines -= o.partition_refines;
    partition_merges -= o.partition_merges;
    partition_hits -= o.partition_hits;
    predicate_evals -= o.predicate_evals;
    code_predicate_evals -= o.code_predicate_evals;
    memo_hits -= o.memo_hits;
    truncated_scans -= o.truncated_scans;
    blocks_scanned -= o.blocks_scanned;
    blocks_skipped -= o.blocks_skipped;
    return *this;
  }
  friend EvalCounters operator+(EvalCounters a, const EvalCounters& b) {
    a += b;
    return a;
  }
  friend EvalCounters operator-(EvalCounters a, const EvalCounters& b) {
    a -= b;
    return a;
  }
};

namespace eval_counters {

/// Current process-wide totals. Exact once the scans being measured have
/// returned (counters live in the MetricsRegistry as relaxed atomics,
/// bulk-flushed per scan, so the hot loops never touch an atomic).
EvalCounters Snapshot();

/// Zeroes the totals (tests only; scans never read them).
void Reset();

/// Bulk-adds a scan's locally accumulated counts.
void Add(const EvalCounters& delta);

/// Flushes a finished capped scan's counts. Truncated scans contribute
/// only `truncated_scans` (their eval counts are discarded), so an eval
/// counter counts only the work of scans that ran to completion. Whether a
/// scan truncates is a function of the workload alone (the cap-th surplus
/// violation either exists or not), so the totals are too — the property
/// the metrics.json CI contract rests on.
void AddScan(const EvalCounters& delta, bool truncated);

}  // namespace eval_counters

}  // namespace cvrepair

#endif  // CVREPAIR_DC_EVAL_COUNTERS_H_
