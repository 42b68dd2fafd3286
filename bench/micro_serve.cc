// Microbench for the repair-as-a-service subsystem (serve/server.h):
// hosts a HOSP replay behind a RepairServer session, then drives the same
// stream through a backpressured (watermark 2) session with the
// closed-loop submit/pump retry discipline the load generator uses.
// Appends latency percentiles and throughput to BENCH_serve.json.
//
// The acceptance claims live in the serve.* counters, which
// ServeSession::Pump publishes from each batch result: admission control
// must reject deterministically at the watermark
// (serve.batches_rejected), and the checked-in baseline pins it with the
// rest of the work counters for the serve_smoke CI gate. A FATAL guard
// re-runs the stream through a directly driven StreamingRepairer and
// requires the served final instance to match cell for cell, fresh ids
// included: admission may delay batches, never change them.
#include "bench_util.h"

#include "repair/streaming.h"
#include "serve/server.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

constexpr int kBatches = 8;
constexpr int kBatchSize = 16;

/// Cell-for-cell equality, fresh ids included — the bench-side mirror of
/// the serve tests' bit-identity expectation.
bool SameRelation(const Relation& a, const Relation& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId c = 0; c < a.num_attributes(); ++c) {
      if (!(a.Get(r, c) == b.Get(r, c))) return false;
    }
  }
  return true;
}

/// One closed-loop replay against a server-hosted session: submit every
/// batch in order, pumping the queue until a rejected batch is admitted
/// (the retry discipline rejected clients follow), then flush the tail.
/// Returns the final repaired instance.
Relation DriveClosedLoop(RepairServer* server, const std::string& name,
                         const Relation& base, const ConstraintSet& sigma,
                         const ServeOptions& options,
                         const std::vector<std::vector<RowEdit>>& batches,
                         std::vector<double>* batch_seconds = nullptr) {
  ServeSession* session = server->Open(name, base, sigma, options);
  if (session == nullptr) {
    std::cerr << "FATAL: session name collision for " << name << "\n";
    std::exit(1);
  }
  for (const std::vector<RowEdit>& batch : batches) {
    while (!session->Submit(batch).admitted) session->Pump();
  }
  session->Flush();
  if (batch_seconds != nullptr) *batch_seconds = session->batch_seconds();
  std::optional<Relation> final_instance = server->Close(name);
  if (!final_instance) {
    std::cerr << "FATAL: Close lost session " << name << "\n";
    std::exit(1);
  }
  return *std::move(final_instance);
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

  BenchJsonWriter json("BENCH_serve.json");

  ServeOptions serve_options;
  serve_options.session.repair = HospCvOptions(hosp, 1.0);
  serve_options.session.repair.max_datarepair_calls = 8;

  // Deterministic work-counter snapshot for the serve_smoke CI gate
  // (tools/check_metrics.py vs bench/baselines/micro_serve.json). Two
  // scenarios, one registry snapshot: (A) the replay behind a generous
  // watermark — every batch admitted on the first try; (B) the same
  // stream against a watermark-2 queue with the closed-loop retry
  // discipline — with 8 batches and a synchronous drain, batches 2..7 are
  // each rejected exactly once, so serve.batches_rejected pins admission
  // control as actually engaged.
  Relation served_final;
  MetricsSnapshot snapshot =
      WriteWorkMetrics("micro_serve.metrics.json", [&] {
        ServeOptions options = serve_options;
        options.session.repair.threads = 1;
        options.admission.queue_watermark = kBatches;  // scenario A
        RepairServer server;
        served_final = DriveClosedLoop(&server, "hosp_served", replay.base,
                                       sigma, options, replay.batches);
        ServeOptions pressured = options;  // scenario B
        pressured.admission.queue_watermark = 2;
        Relation pressured_final =
            DriveClosedLoop(&server, "hosp_backpressure", replay.base, sigma,
                            pressured, replay.batches);
        if (!SameRelation(served_final, pressured_final)) {
          std::cerr << "FATAL: backpressure changed the repaired instance "
                       "(admission must only delay batches, not reorder "
                       "or drop them)\n";
          std::exit(1);
        }
      });

  const int64_t rejected = snapshot.at("serve.batches_rejected");
  std::cout << "serve: " << rejected << " backpressure rejections\n";
  json.RecordCounters(
      "serve/detection",
      {{"batches_admitted", snapshot.at("serve.batches_admitted")},
       {"batches_rejected", rejected},
       {"batches_applied", snapshot.at("serve.batches_applied")},
       {"cells_changed", snapshot.at("serve.cells_changed")}});
  if (rejected <= 0) {
    std::cerr << "FATAL: the watermark-2 scenario rejected nothing — "
                 "admission control silently disengaged\n";
    return 1;
  }

  // Correctness guard, enforced even in metrics-only CI runs: the served
  // final instance must match a directly driven StreamingRepairer replay
  // of the same stream cell for cell, fresh ids included — admission may
  // delay batches, never change them.
  {
    StreamingOptions stream_options;
    stream_options.repair = serve_options.session.repair;
    stream_options.repair.threads = 1;
    StreamingRepairer streamer(replay.base, sigma, stream_options);
    for (const std::vector<RowEdit>& batch : replay.batches) {
      streamer.ApplyBatch(batch);
    }
    if (!SameRelation(served_final, streamer.current())) {
      std::cerr << "FATAL: the served replay diverged from the directly "
                   "driven StreamingRepairer result\n";
      return 1;
    }
    std::cout << "equivalence: served == direct ("
              << served_final.num_rows() << " rows)\n";
  }
  if (MetricsOnly()) return 0;

  // ---- Wall clock: closed-loop replay latency at 1 and 4 engine
  // threads, best-of-one (the histogram already smooths over 8 batches).
  // p50/p99 come from the per-batch latency sample the session records;
  // edits/sec is the sustained apply throughput over the busy time.
  for (int threads : {1, 4}) {
    ThreadPool::SetNumThreads(threads);
    ServeOptions options = serve_options;
    options.session.repair.threads = threads;
    options.admission.queue_watermark = kBatches;
    RepairServer server;
    std::vector<double> batch_seconds;
    DriveClosedLoop(&server, "hosp_timed", replay.base, sigma, options,
                    replay.batches, &batch_seconds);
    LatencyHistogram latency;
    latency.RecordAll(batch_seconds);
    const double busy = latency.TotalSeconds();
    const double edits_per_sec =
        busy > 0.0 ? kBatches * kBatchSize / busy : 0.0;
    std::cout << "serve/replay  threads=" << threads
              << "  p50_ms=" << latency.p50() * 1e3
              << "  p99_ms=" << latency.p99() * 1e3
              << "  edits_per_sec=" << edits_per_sec << "\n";
    json.Record("serve/p50", threads, latency.p50() * 1e3);
    json.Record("serve/p99", threads, latency.p99() * 1e3);
    json.Record("serve/edits_per_sec", threads, edits_per_sec);
  }
  ThreadPool::SetNumThreads(1);
  return 0;
}
