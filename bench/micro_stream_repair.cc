// Microbench for the streaming batch-repair subsystem
// (repair/streaming.h): replays held-out HOSP rows plus synthetic edits
// as batches through a StreamingRepairer and compares the detection work
// and wall clock against the from-scratch alternative (full re-detection
// of the accumulated instance every batch, same scoped solve). Appends
// everything to BENCH_stream_repair.json.
//
// The acceptance claim lives in the stream.* counters: delta detection
// must re-check far fewer (constraint, row) pairs than one full scan per
// batch — stream.rows_rechecked << batches * rows * |sigma| — which the
// checked-in baseline pins for the perf-regression CI gate.
#include "bench_util.h"

#include <limits>

#include "dc/violation.h"
#include "relation/encoded.h"
#include "repair/streaming.h"
#include "repair/vfree.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

constexpr int kBatches = 8;
constexpr int kBatchSize = 16;

void ApplyEditsToRelation(const std::vector<RowEdit>& edits, Relation* W) {
  for (const RowEdit& e : edits) {
    if (e.insert) {
      W->AddRow(e.values);
    } else {
      W->SetValue(e.row, e.attr, e.value);
    }
  }
}

}  // namespace

int main() {
  HospConfig config;
  config.num_hospitals = 24;
  config.measures_per_hospital = 16;
  HospData hosp = MakeHosp(config);
  NoisyData noisy = MakeDirtyHosp(hosp, 0.05);
  const ConstraintSet& sigma = hosp.given_oversimplified;
  ReplayWorkload replay =
      MakeReplayWorkload(noisy.dirty, kBatches, kBatchSize);

  BenchJsonWriter json("BENCH_stream_repair.json");

  StreamingOptions stream_options;
  stream_options.repair = HospCvOptions(hosp, 1.0);
  stream_options.repair.max_datarepair_calls = 8;

  // Deterministic work-counter snapshot for the perf-regression CI gate
  // (tools/check_metrics.py vs bench/baselines/micro_stream_repair.json):
  // one serial streamed replay. The baseline pins stream.rows_rechecked —
  // detection work ballooning back toward full rescans is exactly the
  // regression dirty-component localization exists to prevent.
  int64_t final_rows = 0;
  MetricsSnapshot snapshot =
      WriteWorkMetrics("micro_stream_repair.metrics.json", [&] {
        StreamingOptions options = stream_options;
        options.repair.threads = 1;
        StreamingRepairer streamer(replay.base, sigma, options);
        for (const std::vector<RowEdit>& batch : replay.batches) {
          streamer.ApplyBatch(batch);
        }
        final_rows = streamer.current().num_rows();
        PublishRepairStats(streamer.initial_stats());
      });

  // The localization floor, enforced even in metrics-only CI runs: a full
  // re-detection per batch would scan rows * |sigma| pairs each time.
  const int64_t full_rescans =
      static_cast<int64_t>(kBatches) * final_rows *
      static_cast<int64_t>(sigma.size());
  const int64_t rechecked = snapshot.at("stream.rows_rechecked");
  std::cout << "stream detection: " << rechecked << " row rechecks vs "
            << full_rescans << " for per-batch full scans\n";
  json.RecordCounters(
      "stream_repair/detection",
      {{"rows", final_rows},
       {"batches", snapshot.at("stream.batches")},
       {"edits", snapshot.at("stream.edits")},
       {"rows_ingested", snapshot.at("stream.rows_ingested")},
       {"rows_rechecked", rechecked},
       {"full_rescan_equivalent", full_rescans},
       {"components_resolved", snapshot.at("stream.components_resolved")},
       {"cells_changed", snapshot.at("stream.cells_changed")}});
  if (rechecked * 4 > full_rescans) {
    std::cerr << "FATAL: streamed detection did not stay under 1/4 of "
                 "per-batch full rescans\n";
    return 1;
  }
  if (MetricsOnly()) return 0;

  // ---- Wall clock: streamed replay vs from-scratch per-batch repair
  // (full re-detection on the accumulated instance, same scoped solve),
  // best of three, at 1 and 4 threads. The initial whole-instance repair
  // is identical in both modes and runs outside the timed region.
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    double best_streamed = 0.0;
    double best_scratch = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      StreamingOptions options = stream_options;
      options.repair.threads = threads;
      StreamingRepairer streamer(replay.base, sigma, options);
      WallTimer timer;
      for (const std::vector<RowEdit>& batch : replay.batches) {
        streamer.ApplyBatch(batch);
      }
      double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_streamed) best_streamed = ms;

      CVTolerantOptions scratch_options = options.repair;
      RepairResult initial =
          CVTolerantRepair(replay.base, sigma, scratch_options);
      Relation W = initial.repaired;
      int64_t fresh = 1000000;
      timer.Reset();
      for (const std::vector<RowEdit>& batch : replay.batches) {
        ApplyEditsToRelation(batch, &W);
        EncodedRelation E(W);  // rebuilt per batch, like the detection
        const ConstraintSet& sigma_prime = initial.satisfied_constraints;
        std::vector<Violation> violations = FindViolations(E, sigma_prime);
        CanonicalizeViolations(&violations);
        DomainStats stats_of_W(W);
        RepairStats stats;
        std::optional<ScopedRepair> fix = SolveDirtyComponents(
            W, stats_of_W, sigma_prime,
            ViewsByPosition(violations, sigma_prime.size()),
            std::numeric_limits<double>::infinity(), scratch_options.vfree,
            /*cache=*/nullptr, &stats, &fresh, E);
        for (auto& [cell, value] : fix->assignments) {
          W.SetValue(cell, std::move(value));
        }
      }
      ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_scratch) best_scratch = ms;
    }
    std::cout << "stream_repair/streamed  threads=" << threads
              << "  ms=" << best_streamed << "\n"
              << "stream_repair/scratch   threads=" << threads
              << "  ms=" << best_scratch << "\n";
    json.Record("stream_repair/streamed", threads, best_streamed);
    json.Record("stream_repair/scratch", threads, best_scratch);
  }
  ThreadPool::SetNumThreads(1);
  return 0;
}
