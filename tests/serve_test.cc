// Repair-as-a-service (serve/) and sharded detection (repair/streaming.h):
// a StreamingRepairer with N shards must stay violation-free under Σ' and
// bit-identical — cost, changed cells, components, fresh ids included — to
// a one-shard replay of the same edit sequence, across shard counts and
// thread counts; the admission edge must reject at the
// watermark deterministically, re-admit after a drain, and never lose an
// accepted batch, even across Close.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/predicate_space.h"
#include "dc/violation.h"
#include "reference_scan.h"
#include "repair/streaming.h"

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

StreamingOptions MakeStreamingOptions(const Workload& w, int threads,
                                      int shards = 1) {
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.repair.threads = threads;
  options.num_shards = shards;
  return options;
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

/// Streams the same replay through an N-shard and a one-shard
/// StreamingRepairer and pins batch-by-batch bit-identity: same variant,
/// same violation count, same cost/cells/components, same cells including
/// fresh ids.
void RunShardedVsStreamed(const Workload& w, int threads, int shards) {
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/4,
                                             /*batch_size=*/8, /*seed=*/7);
  StreamingRepairer sharded(replay.base, w.sigma,
                            MakeStreamingOptions(w, threads, shards));
  StreamingRepairer streamer(replay.base, w.sigma,
                             MakeStreamingOptions(w, threads));
  ASSERT_TRUE(sharded.variant() == streamer.variant());
  ASSERT_TRUE(sharded.IsViolationFree());
  ExpectExactlyEqual(sharded.current(), streamer.current());

  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult rs = sharded.ApplyBatch(replay.batches[b]);
    StreamBatchResult rt = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_TRUE(sharded.IsViolationFree());
    EXPECT_EQ(rs.violations, rt.violations);
    EXPECT_EQ(rs.repair_cost, rt.repair_cost);  // bit-identical, not close
    EXPECT_EQ(rs.cells_changed, rt.cells_changed);
    EXPECT_EQ(rs.components, rt.components);
    if (rs.violations == 0) {
      EXPECT_EQ(rs.shard_local_components + rs.cross_shard_components, 0);
    } else {
      EXPECT_GE(rs.shard_local_components + rs.cross_shard_components, 1);
    }
    ExpectExactlyEqual(sharded.current(), streamer.current());
  }
  EXPECT_TRUE(FindViolations(sharded.current(), sharded.variant()).empty());
  // Independent of the engine's own scans: the naive reference.
  EXPECT_TRUE(
      reference::ReferenceViolations(sharded.current(), sharded.variant())
          .empty());
}

// The acceptance matrix: hosp and census, 1 and 4 threads, shard counts 2
// and 4 — every threads × shards pair covered on both datasets.
TEST(ServeTest, HospEncoded1Thread2Shards) {
  RunShardedVsStreamed(MakeHospWorkload(), 1, 2);
}
TEST(ServeTest, HospEncoded4Threads4Shards) {
  RunShardedVsStreamed(MakeHospWorkload(), 4, 4);
}
TEST(ServeTest, HospEncoded1Thread4Shards) {
  RunShardedVsStreamed(MakeHospWorkload(), 1, 4);
}
TEST(ServeTest, HospEncoded4Threads2Shards) {
  RunShardedVsStreamed(MakeHospWorkload(), 4, 2);
}
TEST(ServeTest, CensusEncoded1Thread2Shards) {
  RunShardedVsStreamed(MakeCensusWorkload(), 1, 2);
}
TEST(ServeTest, CensusEncoded4Threads4Shards) {
  RunShardedVsStreamed(MakeCensusWorkload(), 4, 4);
}
TEST(ServeTest, CensusEncoded1Thread4Shards) {
  RunShardedVsStreamed(MakeCensusWorkload(), 1, 4);
}
TEST(ServeTest, CensusEncoded4Threads2Shards) {
  RunShardedVsStreamed(MakeCensusWorkload(), 4, 2);
}

// The plan picks the equality-join key covering the most two-tuple
// constraints. On hosp's oversimplified set the eq-join sets are {Name},
// {Code}, {Code}, {Name,Addr}, {Zip}, {Name,Addr}: HospitalName covers
// three constraints, every rival at most two.
TEST(ServeTest, HospShardPlanPicksBestCoveringKey) {
  Workload w = MakeHospWorkload();
  ShardPlan plan = PlanShards(w.sigma);
  ASSERT_EQ(plan.key.size(), 1u);
  EXPECT_EQ(plan.key[0], HospAttrs::kHospitalName);
  EXPECT_EQ(plan.local.size() + plan.straddling.size(), w.sigma.size());
  // Structural soundness: every local two-tuple constraint's eq-join set
  // contains the key, so two rows violating it share all key values.
  for (int k : plan.local) {
    if (w.sigma[static_cast<size_t>(k)].NumTupleVars() < 2) continue;
    std::vector<AttrId> eq =
        EqualityJoinAttrs(w.sigma[static_cast<size_t>(k)].predicates());
    EXPECT_TRUE(std::includes(eq.begin(), eq.end(), plan.key.begin(),
                              plan.key.end()));
  }
  EXPECT_FALSE(plan.straddling.empty());
}

// Census's given DCs are order comparisons (no equality joins): the plan
// degenerates to round-robin row sharding with only single-tuple
// constraints local — everything else goes through the residual index.
TEST(ServeTest, CensusShardPlanFallsBackToRoundRobin) {
  Workload w = MakeCensusWorkload();
  ShardPlan plan = PlanShards(w.sigma);
  EXPECT_TRUE(plan.key.empty());
  for (int k : plan.local) {
    EXPECT_LT(w.sigma[static_cast<size_t>(k)].NumTupleVars(), 2);
  }
}

// When the shard key covers every constraint, the residual index runs with
// an empty constraint set (it is then purely the master copy) — the
// degenerate plan must still stream correctly.
TEST(ServeTest, AllConstraintsLocalRunsWithEmptyResidual) {
  Workload w = MakeHospWorkload();
  w.sigma = {w.sigma[0]};  // fd_phone_oversimplified alone, eq-join {Name}
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 6, /*seed=*/5);
  StreamingRepairer sharded(replay.base, w.sigma,
                            MakeStreamingOptions(w, 1, 3));
  EXPECT_TRUE(sharded.plan().straddling.empty());
  StreamingRepairer streamer(replay.base, w.sigma,
                             MakeStreamingOptions(w, 1));
  for (const std::vector<RowEdit>& batch : replay.batches) {
    StreamBatchResult rs = sharded.ApplyBatch(batch);
    StreamBatchResult rt = streamer.ApplyBatch(batch);
    EXPECT_EQ(rs.repair_cost, rt.repair_cost);
    EXPECT_EQ(rs.cells_changed, rt.cells_changed);
    EXPECT_TRUE(sharded.IsViolationFree());
  }
  ExpectExactlyEqual(sharded.current(), streamer.current());
  EXPECT_EQ(sharded.totals().cross_shard_components, 0);
}

/// Finds an edit of `target_attr` on some row that provably creates at
/// least one violation spanning two shards (want_cross) or contained in
/// one (want_cross = false), by simulating candidate edits on a copy.
/// Returns false if no candidate qualifies.
bool FindProbeEdit(StreamingRepairer& session, AttrId target_attr,
                   bool want_cross, RowEdit* out) {
  const Relation& W = session.current();
  for (int src = 0; src < W.num_rows(); ++src) {
    for (int dst = 0; dst < W.num_rows(); ++dst) {
      if (src == dst) continue;
      const bool cross = session.HomeOf(src) != session.HomeOf(dst);
      if (cross != want_cross) continue;
      const Value& v = W.Get(src, target_attr);
      if (v.is_null() || v.is_fresh() || W.Get(dst, target_attr) == v) {
        continue;
      }
      Relation probe = W;
      probe.SetValue(dst, target_attr, v);
      std::vector<Violation> violations =
          FindViolations(probe, session.variant());
      for (const Violation& viol : violations) {
        bool straddles = false;
        for (size_t i = 1; i < viol.rows.size(); ++i) {
          if (session.HomeOf(viol.rows[i]) != session.HomeOf(viol.rows[0])) {
            straddles = true;
          }
        }
        if (straddles == want_cross) {
          *out = RowEdit::Update(dst, target_attr, v);
          return true;
        }
      }
    }
  }
  return false;
}

// A violation whose rows live in different shards escapes every shard
// index, is caught by the residual, and is counted as a cross-shard
// component — and the repair still retires it.
TEST(ServeTest, CrossShardComponentIsMergedAndRepaired) {
  Workload w = MakeHospWorkload();
  StreamingRepairer session(w.dirty, w.sigma,
                            MakeStreamingOptions(w, 1, 2));
  // MeasureCode → MeasureName/Condition straddle the Name-keyed shards.
  RowEdit probe;
  ASSERT_TRUE(
      FindProbeEdit(session, HospAttrs::kMeasureCode, /*want_cross=*/true,
                    &probe));
  StreamBatchResult r = session.ApplyBatch({probe});
  EXPECT_GE(r.cross_shard_components, 1);
  EXPECT_TRUE(session.IsViolationFree());
  EXPECT_GE(session.totals().cross_shard_components, 1);
}

// A violation between rows agreeing on the shard key stays inside one
// shard index and is counted shard-local.
TEST(ServeTest, ShardLocalComponentStaysLocal) {
  Workload w = MakeHospWorkload();
  StreamingRepairer session(w.dirty, w.sigma,
                            MakeStreamingOptions(w, 1, 4));
  RowEdit probe;
  ASSERT_TRUE(FindProbeEdit(session, HospAttrs::kPhone, /*want_cross=*/false,
                            &probe));
  StreamBatchResult r = session.ApplyBatch({probe});
  EXPECT_GE(r.shard_local_components, 1);
  EXPECT_TRUE(session.IsViolationFree());
}

// Rewriting a row's shard-key cells re-homes it: the row must land in the
// shard of the rows it now joins with, and the session must stay
// equivalent to the unsharded replay of the same edits. The key attribute
// comes from the session's own plan — the variant search is free to move
// the equality joins (it does on hosp: fd_phone's key becomes Address).
TEST(ServeTest, ShardKeyEditMigratesRow) {
  Workload w = MakeHospWorkload();
  StreamingRepairer sharded(w.dirty, w.sigma,
                            MakeStreamingOptions(w, 1, 4));
  StreamingRepairer streamer(w.dirty, w.sigma,
                             MakeStreamingOptions(w, 1));
  const std::vector<AttrId>& key = sharded.plan().key;
  ASSERT_FALSE(key.empty());
  const Relation& W = sharded.current();
  // Find a donor row homed elsewhere whose key values are all concrete and
  // differ from the victim's in at least one attribute.
  int victim = -1, donor = -1;
  for (int a = 0; a < W.num_rows() && victim < 0; ++a) {
    for (int b = 0; b < W.num_rows(); ++b) {
      if (sharded.HomeOf(a) == sharded.HomeOf(b)) continue;
      bool concrete = true;
      for (AttrId at : key) {
        const Value& v = W.Get(b, at);
        concrete &= !v.is_null() && !v.is_fresh();
      }
      if (concrete) {
        victim = a;
        donor = b;
        break;
      }
    }
  }
  ASSERT_GE(victim, 0);
  std::vector<RowEdit> batch;
  for (AttrId at : key) {
    batch.push_back(RowEdit::Update(victim, at, W.Get(donor, at)));
  }
  StreamBatchResult rs = sharded.ApplyBatch(batch);
  StreamBatchResult rt = streamer.ApplyBatch(batch);
  EXPECT_GE(rs.rows_migrated, 1);
  EXPECT_EQ(rs.repair_cost, rt.repair_cost);
  EXPECT_EQ(rs.cells_changed, rt.cells_changed);
  ExpectExactlyEqual(sharded.current(), streamer.current());
  // Wherever the repair left the victim's key cells, equal keys mean equal
  // homes (the fixes may have rewritten them again, migrating it back).
  bool keys_equal = true;
  for (AttrId at : key) {
    const Value& v = sharded.current().Get(victim, at);
    keys_equal &= !v.is_null() && !v.is_fresh() &&
                  v == sharded.current().Get(donor, at);
  }
  if (keys_equal) EXPECT_EQ(sharded.HomeOf(victim), sharded.HomeOf(donor));
}

// Tombstone re-homing probe: under the delete strategy the per-batch
// re-solve retires violations by tombstoning tuples (all cells NULL). The
// tombstoned row must be retired from its shard's ViolationIndex in place
// — the route table keeps the shard it died in rather than migrating the
// row of NULLs to the round-robin slot its NULL key hashes to (which
// would rebuild two shard indexes per deletion) — and the session must
// stay bit-identical to the unsharded replay.
TEST(ServeTest, DeletedRowStaysHomeAndRetiresFromShardIndex) {
  Workload w = MakeHospWorkload();
  StreamingOptions sharded_options = MakeStreamingOptions(w, 1, 4);
  sharded_options.repair.vfree.strategy = RepairStrategy::kDelete;
  StreamingRepairer sharded(w.dirty, w.sigma, sharded_options);
  StreamingOptions streaming_options = MakeStreamingOptions(w, 1);
  streaming_options.repair.vfree.strategy = RepairStrategy::kDelete;
  StreamingRepairer streamer(w.dirty, w.sigma, streaming_options);
  ASSERT_TRUE(sharded.variant() == streamer.variant());
  ASSERT_TRUE(sharded.IsViolationFree());
  ExpectExactlyEqual(sharded.current(), streamer.current());

  // Provoke a shard-local violation; the delete-strategy re-solve retires
  // it by tombstoning a row of the conflict.
  RowEdit probe;
  ASSERT_TRUE(FindProbeEdit(sharded, HospAttrs::kPhone, /*want_cross=*/false,
                            &probe));
  const Relation before = sharded.current();
  std::vector<int> home_before;
  for (int r = 0; r < before.num_rows(); ++r) {
    home_before.push_back(sharded.HomeOf(r));
  }
  const int64_t migrated_before = sharded.totals().rows_migrated;

  StreamBatchResult rs = sharded.ApplyBatch({probe});
  StreamBatchResult rt = streamer.ApplyBatch({probe});
  EXPECT_EQ(rs.repair_cost, rt.repair_cost);
  EXPECT_EQ(rs.cells_changed, rt.cells_changed);
  ExpectExactlyEqual(sharded.current(), streamer.current());
  EXPECT_TRUE(sharded.IsViolationFree());

  // At least one tuple died, and every tombstone kept its home.
  int deleted = 0;
  for (int r = 0; r < before.num_rows(); ++r) {
    if (!RowDeleted(before, sharded.current(), r)) continue;
    ++deleted;
    EXPECT_EQ(sharded.HomeOf(r), home_before[static_cast<size_t>(r)])
        << "tombstoned row " << r << " migrated";
  }
  EXPECT_GE(deleted, 1);
  // Tombstoning is not a migration: the probe edit touched no shard-key
  // cell and the fixes only wrote NULLs, so the route table is unchanged.
  EXPECT_EQ(sharded.totals().rows_migrated, migrated_before);

  // The shard indexes really retired the rows: a no-op batch detects
  // nothing and changes nothing.
  StreamBatchResult idle = sharded.ApplyBatch({});
  EXPECT_EQ(idle.violations, 0);
  EXPECT_EQ(idle.cells_changed, 0);
}

// The full delete-strategy equivalence sweep: sharded ≡ unsharded
// streamed replay, batch by batch, at both thread counts.
TEST(ServeTest, DeleteStrategyShardedMatchesStreamedReplay) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Workload w = MakeHospWorkload();
    ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/3,
                                               /*batch_size=*/8, /*seed=*/7);
    StreamingOptions sharded_options = MakeStreamingOptions(w, threads, 3);
    sharded_options.repair.vfree.strategy = RepairStrategy::kDelete;
    StreamingRepairer sharded(replay.base, w.sigma, sharded_options);
    StreamingOptions streaming_options = MakeStreamingOptions(w, threads);
    streaming_options.repair.vfree.strategy = RepairStrategy::kDelete;
    StreamingRepairer streamer(replay.base, w.sigma, streaming_options);
    for (const std::vector<RowEdit>& batch : replay.batches) {
      StreamBatchResult rs = sharded.ApplyBatch(batch);
      StreamBatchResult rt = streamer.ApplyBatch(batch);
      EXPECT_EQ(rs.repair_cost, rt.repair_cost);
      EXPECT_EQ(rs.cells_changed, rt.cells_changed);
      EXPECT_TRUE(sharded.IsViolationFree());
    }
    ExpectExactlyEqual(sharded.current(), streamer.current());
    EXPECT_TRUE(FindViolations(sharded.current(), sharded.variant()).empty());
  }
}

// Sharded sessions inherit the unfrozen variant: on the drift stream, 2
// and 4 shards match one shard batch by batch — reopen decisions, variant,
// costs, every cell with fresh ids — and a switch re-plans the shard key
// and re-homes every live row under the new plan.
TEST(ServeTest, ShardedUnfrozenStreamMatchesUnsharded) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  for (int threads : {1, 4}) {
    for (int shards : {2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " shards=" + std::to_string(shards));
      StreamingOptions options = MakeStreamingOptions(w, threads);
      options.reopen_variants = true;
      StreamingRepairer unsharded(replay.base, w.sigma, options);
      options.num_shards = shards;
      StreamingRepairer sharded(replay.base, w.sigma, options);
      int switched = 0;
      for (size_t b = 0; b < replay.batches.size(); ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        StreamBatchResult rs = sharded.ApplyBatch(replay.batches[b]);
        StreamBatchResult ru = unsharded.ApplyBatch(replay.batches[b]);
        EXPECT_TRUE(sharded.IsViolationFree());
        EXPECT_EQ(rs.reopened, ru.reopened);
        EXPECT_EQ(rs.variant_switched, ru.variant_switched);
        EXPECT_TRUE(sharded.variant() == unsharded.variant());
        EXPECT_EQ(sharded.realized_cost(), unsharded.realized_cost());
        EXPECT_EQ(rs.repair_cost, ru.repair_cost);
        ExpectExactlyEqual(sharded.current(), unsharded.current());
        if (!rs.variant_switched) continue;
        ++switched;
        const ShardPlan replanned = PlanShards(sharded.variant());
        EXPECT_EQ(sharded.plan().key, replanned.key);
        EXPECT_EQ(sharded.plan().local, replanned.local);
        EXPECT_EQ(sharded.plan().straddling, replanned.straddling);
        const Relation& W = sharded.current();
        for (int r = 0; r < W.num_rows(); ++r) {
          bool tombstone = true;
          for (AttrId a = 0; a < W.num_attributes(); ++a) {
            tombstone &= W.Get(r, a).is_null();
          }
          if (!tombstone) {
            EXPECT_EQ(sharded.HomeOf(r), sharded.RouteOf(r));
          }
        }
      }
      EXPECT_GT(switched, 0) << "no batch switched variants";
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control

ServeOptions SmallServeOptions(const Workload& w, int watermark) {
  ServeOptions options;
  options.session.repair.variants.space = w.space;
  options.session.num_shards = 2;
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
// Fuzz: random shard counts × batch shapes × pump interleavings, sharded
// (through the full server path) ≡ unsharded streamed replay.

int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

class ServeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ServeFuzz, RandomShardingMatchesUnshardedReplay) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 9973 + 17);
  Workload w = (seed % 2 == 0) ? MakeHospWorkload() : MakeCensusWorkload();
  const int shards = 1 + static_cast<int>(rng() % 5);
  const int num_batches = 2 + static_cast<int>(rng() % 3);
  const int batch_size = 4 + static_cast<int>(rng() % 6);
  const int watermark = 1 + static_cast<int>(rng() % num_batches);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " shards=" +
               std::to_string(shards) + " batches=" +
               std::to_string(num_batches) + "x" +
               std::to_string(batch_size) + " watermark=" +
               std::to_string(watermark));
  ReplayWorkload replay = MakeReplayWorkload(
      w.dirty, num_batches, batch_size, static_cast<uint64_t>(seed) + 101);

  ServeOptions options;
  options.session.repair.variants.space = w.space;
  options.session.num_shards = shards;
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

  StreamingOptions streaming;
  streaming.repair = options.session.repair;
  StreamingRepairer streamer(replay.base, w.sigma, streaming);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    streamer.ApplyBatch(batch);
  }
  ExpectExactlyEqual(*final_instance, streamer.current());
  EXPECT_TRUE(
      FindViolations(*final_instance, streamer.variant()).empty());
}

INSTANTIATE_TEST_SUITE_P(RandomShardings, ServeFuzz,
                         ::testing::Range(0, 2 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
