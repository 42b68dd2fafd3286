#include "dc/eval_counters.h"

#include "util/metrics.h"
#include "util/trace.h"

namespace cvrepair {

namespace eval_counters {
namespace {

// Process-wide totals, registered in the MetricsRegistry under the "eval."
// prefix so metrics.json carries them. Handles are resolved once; the
// relaxed-atomic bulk-add discipline (scans flush local counts, readers
// only look after the scans they measure have returned) is unchanged.
struct Handles {
  MetricCounter* partition_builds;
  MetricCounter* partition_refines;
  MetricCounter* partition_merges;
  MetricCounter* partition_hits;
  MetricCounter* predicate_evals;
  MetricCounter* code_predicate_evals;
  MetricCounter* memo_hits;
  MetricCounter* truncated_scans;
  MetricCounter* blocks_scanned;
  MetricCounter* blocks_skipped;
};

const Handles& H() {
  static const Handles* h = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    Handles* fresh = new Handles();
    fresh->partition_builds = r.GetCounter("eval.partition_builds");
    fresh->partition_refines = r.GetCounter("eval.partition_refines");
    fresh->partition_merges = r.GetCounter("eval.partition_merges");
    fresh->partition_hits = r.GetCounter("eval.partition_hits");
    fresh->predicate_evals = r.GetCounter("eval.predicate_evals");
    fresh->code_predicate_evals = r.GetCounter("eval.code_predicate_evals");
    fresh->memo_hits = r.GetCounter("eval.memo_hits");
    fresh->truncated_scans = r.GetCounter("eval.truncated_scans");
    fresh->blocks_scanned = r.GetCounter("eval.blocks_scanned");
    fresh->blocks_skipped = r.GetCounter("eval.blocks_skipped");
    return fresh;
  }();
  return *h;
}

}  // namespace

EvalCounters Snapshot() {
  const Handles& h = H();
  EvalCounters c;
  c.partition_builds = h.partition_builds->value();
  c.partition_refines = h.partition_refines->value();
  c.partition_merges = h.partition_merges->value();
  c.partition_hits = h.partition_hits->value();
  c.predicate_evals = h.predicate_evals->value();
  c.code_predicate_evals = h.code_predicate_evals->value();
  c.memo_hits = h.memo_hits->value();
  c.truncated_scans = h.truncated_scans->value();
  c.blocks_scanned = h.blocks_scanned->value();
  c.blocks_skipped = h.blocks_skipped->value();
  return c;
}

void Reset() {
  const Handles& h = H();
  h.partition_builds->Reset();
  h.partition_refines->Reset();
  h.partition_merges->Reset();
  h.partition_hits->Reset();
  h.predicate_evals->Reset();
  h.code_predicate_evals->Reset();
  h.memo_hits->Reset();
  h.truncated_scans->Reset();
  h.blocks_scanned->Reset();
  h.blocks_skipped->Reset();
}

void Add(const EvalCounters& d) {
  const Handles& h = H();
  if (d.partition_builds) h.partition_builds->Add(d.partition_builds);
  if (d.partition_refines) h.partition_refines->Add(d.partition_refines);
  if (d.partition_merges) h.partition_merges->Add(d.partition_merges);
  if (d.partition_hits) h.partition_hits->Add(d.partition_hits);
  if (d.predicate_evals) h.predicate_evals->Add(d.predicate_evals);
  if (d.code_predicate_evals)
    h.code_predicate_evals->Add(d.code_predicate_evals);
  if (d.memo_hits) h.memo_hits->Add(d.memo_hits);
  if (d.truncated_scans) h.truncated_scans->Add(d.truncated_scans);
  if (d.blocks_scanned) h.blocks_scanned->Add(d.blocks_scanned);
  if (d.blocks_skipped) h.blocks_skipped->Add(d.blocks_skipped);
  if (Tracer::enabled()) {
    Tracer::AddCounterDelta("eval.partition_builds", d.partition_builds);
    Tracer::AddCounterDelta("eval.partition_refines", d.partition_refines);
    Tracer::AddCounterDelta("eval.partition_merges", d.partition_merges);
    Tracer::AddCounterDelta("eval.partition_hits", d.partition_hits);
    Tracer::AddCounterDelta("eval.predicate_evals", d.predicate_evals);
    Tracer::AddCounterDelta("eval.code_predicate_evals",
                            d.code_predicate_evals);
    Tracer::AddCounterDelta("eval.memo_hits", d.memo_hits);
    Tracer::AddCounterDelta("eval.truncated_scans", d.truncated_scans);
    Tracer::AddCounterDelta("eval.blocks_scanned", d.blocks_scanned);
    Tracer::AddCounterDelta("eval.blocks_skipped", d.blocks_skipped);
  }
}

void AddScan(const EvalCounters& delta, bool truncated) {
  if (!truncated) {
    Add(delta);
    return;
  }
  EvalCounters only_truncation;
  only_truncation.truncated_scans = 1;
  Add(only_truncation);
}

}  // namespace eval_counters

}  // namespace cvrepair
