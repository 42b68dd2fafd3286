// Repair-as-a-service (serve/): a RepairServer session is admission
// control over one StreamingRepairer. The admission edge must reject at
// the watermark deterministically, re-admit after a drain, never lose an
// accepted batch, even across Close, and never change a batch: a served
// session ends bit-identical — fresh ids included — to the same engine
// driven directly, at 1 and 4 engine threads, with the reference oracle
// confirming the final instance violation-free.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/violation.h"
#include "reference_scan.h"
#include "repair/streaming.h"
#include "util/metrics.h"

namespace cvrepair {
namespace {

struct Workload {
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

Workload MakeHospWorkload() {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified,
          hosp.space};
}

Workload MakeCensusWorkload() {
  CensusConfig config;
  config.num_rows = 120;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = census.noise_attrs;
  return {InjectNoise(census.clean, noise).dirty, census.given, {}};
}

void ExpectExactlyEqual(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId at = 0; at < a.num_attributes(); ++at) {
      EXPECT_TRUE(a.Get(r, at) == b.Get(r, at))
          << "cell (" << r << "," << at << "): " << a.Get(r, at).ToString()
          << " vs " << b.Get(r, at).ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control

ServeOptions SmallServeOptions(const Workload& w, int watermark) {
  ServeOptions options;
  options.session.repair.variants.space = w.space;
  options.admission.queue_watermark = watermark;
  return options;
}

// At the watermark, Submit rejects — deterministically, with a retry hint
// and no ticket — and a drained queue re-admits.
TEST(ServeTest, SubmitRejectsAtWatermarkAndReadmitsAfterDrain) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 5, 4, /*seed=*/9);
  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma,
                                      SmallServeOptions(w, /*watermark=*/2));
  ASSERT_NE(session, nullptr);
  std::vector<SubmitOutcome> outcomes;
  for (const std::vector<RowEdit>& batch : replay.batches) {
    outcomes.push_back(session->Submit(batch));
  }
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].admitted);
  EXPECT_TRUE(outcomes[1].admitted);
  EXPECT_EQ(outcomes[0].ticket, 0);
  EXPECT_EQ(outcomes[1].ticket, 1);
  for (size_t i = 2; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].admitted);
    EXPECT_EQ(outcomes[i].ticket, -1);
    EXPECT_GT(outcomes[i].retry_after_seconds, 0.0);
    EXPECT_EQ(outcomes[i].queue_depth, 2);
  }
  EXPECT_EQ(session->depth(), 2);
  EXPECT_EQ(session->rejected(), 3);

  EXPECT_EQ(session->Flush(), 2);
  EXPECT_EQ(session->depth(), 0);
  EXPECT_EQ(session->applied(), 2);

  // Drained queue re-admits: the previously rejected batches go through.
  for (size_t i = 2; i < replay.batches.size(); ++i) {
    SubmitOutcome again = session->Submit(replay.batches[i]);
    EXPECT_TRUE(again.admitted);
    session->Pump();
  }
  EXPECT_EQ(session->applied(), 5);
  // One latency sample per applied batch, in ticket order.
  EXPECT_EQ(session->batch_seconds().size(), 5u);
  EXPECT_TRUE(FindViolations(session->repair().current(),
                             session->repair().variant())
                  .empty());
}

// Close flushes the accepted-but-unapplied tail: the final instance equals
// a directly driven session over the same batches, nothing is lost.
TEST(ServeTest, CloseFlushesAcceptedBatchesWithoutLoss) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 6, /*seed=*/17);
  ServeOptions options = SmallServeOptions(w, /*watermark=*/8);

  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    ASSERT_TRUE(session->Submit(batch).admitted);
  }
  EXPECT_EQ(session->applied(), 0);  // everything still queued
  std::optional<Relation> final_instance = server.Close("hosp");
  ASSERT_TRUE(final_instance.has_value());
  EXPECT_EQ(server.Find("hosp"), nullptr);

  StreamingRepairer twin(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    twin.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, twin.current());
}

// The background worker drains the queue in ticket order; the close still
// hands back the same instance as a synchronous twin.
TEST(ServeTest, BackgroundWorkerMatchesSynchronousDrain) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 6, /*seed=*/23);
  ServeOptions options = SmallServeOptions(w, /*watermark=*/8);
  options.admission.background = true;

  RepairServer server;
  ServeSession* session = server.Open("hosp", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    ASSERT_TRUE(session->Submit(batch).admitted);
  }
  std::optional<Relation> final_instance = server.Close("hosp");
  ASSERT_TRUE(final_instance.has_value());

  options.admission.background = false;
  StreamingRepairer twin(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    twin.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, twin.current());
}

// Client threads against the background worker: 4 clients submit
// update-only batches over base rows (valid in any admission order) into a
// watermark-2 queue, retrying after each reject. Every batch is admitted
// exactly once, the worker and Close apply them all in ticket order, and
// the counters agree with what the clients saw.
TEST(ServeTest, ConcurrentClientsWithBackgroundWorker) {
  constexpr int kClients = 4;
  constexpr int kBatchesPerClient = 3;
  constexpr int kEditsPerBatch = 4;
  Workload w = MakeHospWorkload();
  const int n = w.dirty.num_rows();
  const int m = w.dirty.num_attributes();
  std::mt19937_64 rng(31);
  std::vector<std::vector<std::vector<RowEdit>>> batches_of(kClients);
  for (std::vector<std::vector<RowEdit>>& batches : batches_of) {
    batches.resize(kBatchesPerClient);
    for (std::vector<RowEdit>& batch : batches) {
      for (int e = 0; e < kEditsPerBatch; ++e) {
        const int row = static_cast<int>(rng() % static_cast<uint64_t>(n));
        const AttrId attr =
            static_cast<AttrId>(rng() % static_cast<uint64_t>(m));
        const int src = static_cast<int>(rng() % static_cast<uint64_t>(n));
        batch.push_back(RowEdit::Update(row, attr, w.dirty.Get(src, attr)));
      }
    }
  }

  ServeOptions options = SmallServeOptions(w, /*watermark=*/2);
  options.admission.background = true;
  options.admission.retry_after_seconds = 0.001;
  const MetricsSnapshot before = MetricsRegistry::Global().SnapshotWork();
  RepairServer server;
  ServeSession* session = server.Open("hosp", w.dirty, w.sigma, options);
  ASSERT_NE(session, nullptr);
  // Σ' stays frozen (no reopen), so it can be read before the worker runs.
  const ConstraintSet variant = session->repair().variant();

  std::vector<int64_t> rejects_seen(kClients, 0);
  // (ticket, batch) of each client's admissions.
  std::vector<std::vector<std::pair<int64_t, int>>> tickets_of(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int b = 0; b < kBatchesPerClient; ++b) {
        for (;;) {
          SubmitOutcome out = session->Submit(batches_of[c][b]);
          if (out.admitted) {
            tickets_of[c].emplace_back(out.ticket, b);
            break;
          }
          ++rejects_seen[c];
          std::this_thread::sleep_for(
              std::chrono::duration<double>(out.retry_after_seconds));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const int64_t sent = kClients * kBatchesPerClient;
  int64_t rejected = 0;
  for (int64_t r : rejects_seen) rejected += r;
  EXPECT_EQ(session->admitted(), sent);
  EXPECT_EQ(session->rejected(), rejected);

  std::optional<Relation> final_instance = server.Close("hosp");
  ASSERT_TRUE(final_instance.has_value());
  const MetricsSnapshot delta =
      MetricsDiff(MetricsRegistry::Global().SnapshotWork(), before);
  EXPECT_EQ(delta.at("serve.batches_admitted"), sent);
  EXPECT_EQ(delta.at("serve.batches_applied"), sent);
  EXPECT_EQ(delta.at("serve.batches_rejected"), rejected);
  EXPECT_TRUE(reference::ReferenceViolations(*final_instance, variant).empty());

  // Tickets are unique and dense, and the session applied the batches in
  // ticket order: a directly driven engine replaying that order lands on
  // the same instance, fresh ids included.
  std::vector<std::vector<RowEdit>> by_ticket(static_cast<size_t>(sent));
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [ticket, b] : tickets_of[c]) {
      ASSERT_GE(ticket, 0);
      ASSERT_LT(ticket, sent);
      ASSERT_TRUE(by_ticket[static_cast<size_t>(ticket)].empty());
      by_ticket[static_cast<size_t>(ticket)] = batches_of[c][b];
    }
  }
  StreamingRepairer twin(w.dirty, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : by_ticket) twin.ApplyBatch(batch);
  ExpectExactlyEqual(*final_instance, twin.current());
}

// A malformed batch is rejected at Submit with a reason and no ticket:
// an update naming a row outside [0, n) — n counts the engine's rows plus
// the inserts admitted ahead of it — or an attribute outside the schema,
// and an insert without one value per attribute. Such a rejection is not
// backpressure: no retry hint, and the rejected count stays put.
TEST(ServeTest, MalformedBatchIsRejectedWithoutTicket) {
  Schema schema;
  schema.AddAttribute("Name", AttrType::kString);
  schema.AddAttribute("Group", AttrType::kString);
  schema.AddAttribute("Value", AttrType::kString);
  Relation base(schema);
  base.AddRow({Value::String("n1"), Value::String("g1"), Value::String("x")});
  base.AddRow({Value::String("n2"), Value::String("g1"), Value::String("x")});
  const ConstraintSet sigma = {DenialConstraint::FromFd({1}, 2)};
  const Value y = Value::String("y");
  auto row = [](const char* name, const char* group, const char* value) {
    return std::vector<Value>{Value::String(name), Value::String(group),
                              Value::String(value)};
  };

  const MetricsSnapshot before = MetricsRegistry::Global().SnapshotWork();
  RepairServer server;
  ServeSession* session = server.Open("probe", base, sigma);
  ASSERT_NE(session, nullptr);
  const std::vector<std::vector<RowEdit>> malformed = {
      {RowEdit::Update(7, 2, y)},
      {RowEdit::Update(-1, 2, y)},
      {RowEdit::Update(0, 9, y)},
      {RowEdit::Insert({Value::String("c")})},
  };
  for (const std::vector<RowEdit>& batch : malformed) {
    SubmitOutcome out = session->Submit(batch);
    EXPECT_FALSE(out.admitted);
    EXPECT_EQ(out.ticket, -1);
    EXPECT_FALSE(out.error.empty());
    EXPECT_EQ(out.retry_after_seconds, 0.0);
    EXPECT_EQ(out.queue_depth, 0);
    EXPECT_EQ(session->depth(), 0);
  }

  // Rows created by inserts admitted ahead, or earlier in the same batch,
  // are valid targets; one past them is not.
  std::vector<std::vector<RowEdit>> admitted = {
      {RowEdit::Insert(row("n3", "g2", "z"))},
      {RowEdit::Update(2, 2, y), RowEdit::Insert(row("n4", "g2", "w")),
       RowEdit::Update(3, 2, y)},
  };
  for (size_t i = 0; i < admitted.size(); ++i) {
    SubmitOutcome out = session->Submit(admitted[i]);
    EXPECT_TRUE(out.admitted) << out.error;
    EXPECT_EQ(out.ticket, static_cast<int64_t>(i));
    EXPECT_TRUE(out.error.empty());
  }
  EXPECT_FALSE(session->Submit({RowEdit::Update(4, 2, y)}).error.empty());
  EXPECT_EQ(session->depth(), 2);
  EXPECT_EQ(session->rejected(), 0);

  EXPECT_EQ(session->Flush(), 2);
  const Relation& served = session->repair().current();
  EXPECT_EQ(served.num_rows(), 4);
  StreamingRepairer direct(base, sigma);
  for (const std::vector<RowEdit>& batch : admitted) direct.ApplyBatch(batch);
  ExpectExactlyEqual(served, direct.current());
  EXPECT_TRUE(
      reference::ReferenceViolations(served, session->repair().variant())
          .empty());
  const MetricsSnapshot delta =
      MetricsDiff(MetricsRegistry::Global().SnapshotWork(), before);
  EXPECT_EQ(delta.at("serve.batches_admitted"), 2);
  EXPECT_EQ(delta.at("serve.batches_rejected"), 0);
}

TEST(ServeTest, ServerHostsMultipleNamedSessions) {
  Workload hosp = MakeHospWorkload();
  Workload census = MakeCensusWorkload();
  RepairServer server;
  ASSERT_NE(server.Open("hosp", hosp.dirty, hosp.sigma,
                        SmallServeOptions(hosp, 4)),
            nullptr);
  ASSERT_NE(server.Open("census", census.dirty, census.sigma,
                        SmallServeOptions(census, 4)),
            nullptr);
  EXPECT_EQ(server.Open("hosp", hosp.dirty, hosp.sigma), nullptr);
  EXPECT_EQ(server.SessionNames(),
            (std::vector<std::string>{"census", "hosp"}));
  EXPECT_NE(server.Find("census"), nullptr);
  // FlushAll drains every session's queue: one no-op batch each.
  for (const char* name : {"hosp", "census"}) {
    ServeSession* session = server.Find(name);
    ASSERT_NE(session, nullptr);
    const Relation& current = session->repair().current();
    ASSERT_TRUE(session
                    ->Submit({RowEdit::Update(0, 0, current.Get(0, 0))})
                    .admitted);
  }
  EXPECT_EQ(server.FlushAll(), 2);
  EXPECT_TRUE(server.Close("census").has_value());
  EXPECT_FALSE(server.Close("census").has_value());
  EXPECT_EQ(server.SessionNames(), (std::vector<std::string>{"hosp"}));
}

// ---------------------------------------------------------------------------
// Latency histogram (bench/bench_util.h)

TEST(ServeTest, LatencyHistogramNearestRankOnFixedSample) {
  bench::LatencyHistogram h;
  EXPECT_EQ(h.Percentile(50.0), 0.0);  // empty
  // 1..100 in a scrambled but fixed order.
  std::vector<double> sample;
  for (int i = 0; i < 100; ++i) {
    sample.push_back(static_cast<double>((i * 37) % 100 + 1));
  }
  h.RecordAll(sample);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.p50(), 50.0);   // nearest-rank: the 50th smallest
  EXPECT_EQ(h.p99(), 99.0);   // the 99th smallest
  EXPECT_EQ(h.Percentile(100.0), 100.0);
  EXPECT_EQ(h.Percentile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.TotalSeconds(), 5050.0);
  bench::LatencyHistogram tiny;
  tiny.Record(3.0);
  EXPECT_EQ(tiny.p50(), 3.0);
  EXPECT_EQ(tiny.p99(), 3.0);
}

// ---------------------------------------------------------------------------
// Fuzz: random engine thread counts × watermarks × batch shapes × pump
// interleavings; the served session (through the full server path) ≡ the
// same engine driven directly.

int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

class ServeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServeFuzz, RandomAdmissionMatchesDirectReplay) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 9973 + 17);
  Workload w = (seed % 2 == 0) ? MakeHospWorkload() : MakeCensusWorkload();
  const int threads = rng() % 2 == 0 ? 1 : 4;
  const int num_batches = 2 + static_cast<int>(rng() % 3);
  const int batch_size = 4 + static_cast<int>(rng() % 6);
  const int watermark = 1 + static_cast<int>(rng() % num_batches);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " threads=" +
               std::to_string(threads) + " batches=" +
               std::to_string(num_batches) + "x" +
               std::to_string(batch_size) + " watermark=" +
               std::to_string(watermark));
  ReplayWorkload replay = MakeReplayWorkload(
      w.dirty, num_batches, batch_size, static_cast<uint64_t>(seed) + 101);

  ServeOptions options;
  options.session.repair.variants.space = w.space;
  options.session.repair.threads = threads;
  options.admission.queue_watermark = watermark;
  RepairServer server;
  ServeSession* session =
      server.Open("fuzz", replay.base, w.sigma, options);
  ASSERT_NE(session, nullptr);
  // Closed-loop with a random pump interleaving: rejected batches pump the
  // queue and retry, so the admitted order — and hence the repaired
  // instance — is the canonical batch order regardless of schedule.
  for (const std::vector<RowEdit>& batch : replay.batches) {
    while (!session->Submit(batch).admitted) session->Pump();
    if (rng() % 2 == 0) session->Pump();
  }
  std::optional<Relation> final_instance = server.Close("fuzz");
  ASSERT_TRUE(final_instance.has_value());

  StreamingRepairer direct(replay.base, w.sigma, options.session);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    direct.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, direct.current());
  EXPECT_TRUE(FindViolations(*final_instance, direct.variant()).empty());
  EXPECT_TRUE(
      reference::ReferenceViolations(*final_instance, direct.variant())
          .empty());
}

INSTANTIATE_TEST_SUITE_P(RandomAdmission, ServeFuzz,
                         ::testing::Range(0, 2 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
