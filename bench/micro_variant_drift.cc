// Microbench for the unfrozen cross-batch variant search
// (repair/streaming.h VariantTracker): streams a drifting HOSP edit
// workload — update values drawn from a window sliding over the instance,
// so per-attribute value frequencies and with them the per-variant repair
// bounds skew over time — and compares three regimes:
//
//   frozen    PR-5 behaviour, the initial Σ' held for the whole stream
//   unfrozen  reopen_variants: delta-maintained bounds re-open the search
//   scratch   per-batch full re-evaluation (ScanVariantFacts + the full
//             candidate loop on the accumulated dirty instance)
//
// The acceptance claims: the unfrozen stream ends on the variant the
// from-scratch search would choose for the final instance (the frozen
// baseline diverges from it), and the bound maintenance gets there on
// measurably less detection work than per-batch full re-evaluation — the
// checked-in baseline pins stream.variant_reopens nonzero and the eval
// counters exact for the perf-regression CI gate. Appends wall-clock and
// counter records to BENCH_variant_drift.json.
#include "bench_util.h"

#include <optional>

#include "relation/encoded.h"
#include "repair/streaming.h"
#include "variation/variant_generator.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

constexpr int kBatches = 6;
constexpr int kBatchSize = 10;
constexpr uint64_t kSeed = 29;

void ApplyEditsToRelation(const std::vector<RowEdit>& edits, Relation* D) {
  for (const RowEdit& e : edits) {
    if (e.insert) {
      D->AddRow(e.values);
    } else {
      D->SetValue(e.row, e.attr, e.value);
    }
  }
}

struct ScratchStream {
  VariantSearchResult final_result;         ///< the last batch's search
  std::vector<ConstraintSet> per_batch;     ///< chosen Σ' after each batch
};

/// One per-batch full re-evaluation pass over the whole stream: raw edits
/// accumulate into D, and every batch pays full detection scans plus the
/// full candidate loop.
ScratchStream RunScratchPerBatch(const ReplayWorkload& replay,
                                 const VariantFamily& family,
                                 const CVTolerantOptions& options) {
  Relation D = replay.base;
  ScratchStream out;
  int64_t fresh = 1000000;
  for (const std::vector<RowEdit>& batch : replay.batches) {
    ApplyEditsToRelation(batch, &D);
    EncodedRelation E(D);
    const DomainStats stats_of_D(D);
    const std::vector<VariantFacts> facts =
        ScanVariantFacts(D, stats_of_D, family, options, E);
    out.final_result = CVTolerantSearchWithFacts(D, stats_of_D, family, facts,
                                                 options, &fresh, E);
    out.per_batch.push_back(out.final_result.variant);
  }
  return out;
}

}  // namespace

int main() {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoisyData noisy = MakeDirtyHosp(hosp, 0.06);
  const ConstraintSet& sigma = hosp.given_oversimplified;
  ReplayWorkload replay =
      MakeDriftWorkload(noisy.dirty, kBatches, kBatchSize, kSeed);

  BenchJsonWriter json("BENCH_variant_drift.json");

  StreamingOptions unfrozen_options;
  unfrozen_options.repair = HospCvOptions(hosp, 1.0);
  unfrozen_options.reopen_variants = true;

  // Deterministic work-counter snapshot for the perf-regression CI gate
  // (tools/check_metrics.py vs bench/baselines/micro_variant_drift.json):
  // one serial unfrozen streamed replay. The baseline pins
  // stream.variant_reopens nonzero — the trigger going silent would mean
  // the drift no longer re-opens the search and the bench is vacuous — and
  // the eval.* detection counters exact.
  std::optional<StreamingRepairer> unfrozen;
  MetricsSnapshot snapshot =
      WriteWorkMetrics("micro_variant_drift.metrics.json", [&] {
        StreamingOptions options = unfrozen_options;
        options.repair.threads = 1;
        unfrozen.emplace(replay.base, sigma, options);
        for (const std::vector<RowEdit>& batch : replay.batches) {
          unfrozen->ApplyBatch(batch);
        }
        PublishRepairStats(unfrozen->initial_stats());
      });
  const int64_t streamed_evals = snapshot.at("eval.code_predicate_evals");
  const int64_t reopens = snapshot.at("stream.variant_reopens");

  // The same family the tracker enumerated, for the scratch twins.
  const VariantFamily& family = unfrozen->tracker()->family();

  // Per-batch full re-evaluation: same edits, same family, but full
  // detection scans and a full candidate loop every batch. Counted with
  // the same registry (reset first; the CI metrics file is already
  // written) so the two regimes' detection work is directly comparable.
  CVTolerantOptions scratch_options = unfrozen_options.repair;
  scratch_options.threads = 1;
  MetricsRegistry::Global().ResetAll();
  ScratchStream scratch = RunScratchPerBatch(replay, family, scratch_options);
  const VariantSearchResult& scratch_final = scratch.final_result;
  const int64_t scratch_evals =
      MetricsRegistry::Global().SnapshotWork().at("eval.code_predicate_evals");

  // Frozen baseline: the PR-5 stream that never re-opens.
  StreamingOptions frozen_options = unfrozen_options;
  frozen_options.reopen_variants = false;
  frozen_options.repair.threads = 1;
  StreamingRepairer frozen(replay.base, sigma, frozen_options);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    frozen.ApplyBatch(batch);
  }

  const bool unfrozen_optimal =
      scratch_final.have_result &&
      unfrozen->variant() == scratch_final.variant;
  // Batches where the frozen incumbent was NOT the scratch-optimal choice
  // — the divergence an unfrozen stream exists to repair. (The drift can
  // swing back: the final optimum may coincide with the initial choice
  // again, so divergence is counted per batch, not at the end.)
  int64_t frozen_divergences = 0;
  for (const ConstraintSet& optimal : scratch.per_batch) {
    if (!(frozen.variant() == optimal)) ++frozen_divergences;
  }
  std::cout << "variant_drift: reopens " << reopens << ", switches "
            << unfrozen->totals().variant_switches << ", bound updates "
            << snapshot.at("stream.bound_updates") << "\n"
            << "variant_drift: unfrozen ends scratch-optimal: "
            << (unfrozen_optimal ? "yes" : "NO")
            << ", frozen diverged on " << frozen_divergences << "/"
            << scratch.per_batch.size() << " batches\n"
            << "variant_drift: detection work " << streamed_evals
            << " code predicate evals streamed vs " << scratch_evals
            << " for per-batch full re-evaluation\n";
  json.RecordCounters(
      "variant_drift/tracking",
      {{"variants", static_cast<int64_t>(family.variants.size())},
       {"batches", snapshot.at("stream.batches")},
       {"variant_reopens", reopens},
       {"variant_switches", unfrozen->totals().variant_switches},
       {"bound_updates", snapshot.at("stream.bound_updates")},
       {"streamed_code_evals", streamed_evals},
       {"scratch_code_evals", scratch_evals},
       {"unfrozen_scratch_optimal", unfrozen_optimal ? 1 : 0},
       {"frozen_divergences", frozen_divergences}});
  if (reopens == 0) {
    std::cerr << "FATAL: the drift stream never re-opened the search\n";
    return 1;
  }
  if (unfrozen->totals().variant_switches == 0) {
    std::cerr << "FATAL: the drift stream never switched variants\n";
    return 1;
  }
  if (!unfrozen_optimal) {
    std::cerr << "FATAL: unfrozen stream did not end on the scratch-optimal "
                 "variant\n";
    return 1;
  }
  if (frozen_divergences == 0) {
    std::cerr << "FATAL: frozen baseline never diverged from the "
                 "scratch-optimal variant — the drift workload no longer "
                 "exercises a switch\n";
    return 1;
  }
  if (streamed_evals * 2 > scratch_evals) {
    std::cerr << "FATAL: streamed detection work did not stay under half of "
                 "per-batch full re-evaluation\n";
    return 1;
  }
  if (MetricsOnly()) return 0;

  // ---- Wall clock: frozen vs unfrozen vs per-batch full re-evaluation,
  // best of three, at 1 and 4 threads. The initial whole-instance repair
  // (identical across regimes) runs outside the timed region only for the
  // scratch loop, which has none; the streamed regimes' constructors are
  // excluded explicitly.
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    double best_frozen = 0.0, best_unfrozen = 0.0, best_scratch = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      StreamingOptions options = frozen_options;
      options.repair.threads = threads;
      StreamingRepairer f(replay.base, sigma, options);
      WallTimer timer;
      for (const std::vector<RowEdit>& batch : replay.batches) {
        f.ApplyBatch(batch);
      }
      double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_frozen) best_frozen = ms;

      options.reopen_variants = true;
      StreamingRepairer u(replay.base, sigma, options);
      timer.Reset();
      for (const std::vector<RowEdit>& batch : replay.batches) {
        u.ApplyBatch(batch);
      }
      ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_unfrozen) best_unfrozen = ms;

      CVTolerantOptions so = options.repair;
      timer.Reset();
      RunScratchPerBatch(replay, family, so);
      ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_scratch) best_scratch = ms;
    }
    std::cout << "variant_drift/frozen    threads=" << threads
              << "  ms=" << best_frozen << "\n"
              << "variant_drift/unfrozen  threads=" << threads
              << "  ms=" << best_unfrozen << "\n"
              << "variant_drift/scratch   threads=" << threads
              << "  ms=" << best_scratch << "\n";
    json.Record("variant_drift/frozen", threads, best_frozen);
    json.Record("variant_drift/unfrozen", threads, best_unfrozen);
    json.Record("variant_drift/scratch", threads, best_scratch);
  }
  ThreadPool::SetNumThreads(1);
  return 0;
}
