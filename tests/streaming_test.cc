// Streaming batch repair (repair/streaming.h): the streamed result must be
// violation-free under the frozen variant after every batch, and
// bit-identical in cost — identical cell-for-cell modulo fresh-variable
// ids — to a from-scratch dirty-component repair of the accumulated
// instance, serial and threaded.
#include "repair/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/incremental.h"
#include "dc/violation.h"
#include "reference_scan.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"

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

StreamingOptions MakeOptions(const Workload& w, int threads) {
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.repair.threads = threads;
  return options;
}

void ApplyEditsToRelation(const std::vector<RowEdit>& edits, Relation* W) {
  for (const RowEdit& e : edits) {
    if (e.insert) {
      W->AddRow(e.values);
    } else {
      W->SetValue(e.row, e.attr, e.value);
    }
  }
}

/// Equal cell-for-cell, except that fresh variables only need to match in
/// kind (streamed and scratch runs mint ids from different counters).
void ExpectEqualModuloFresh(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId at = 0; at < a.num_attributes(); ++at) {
      const Value& va = a.Get(r, at);
      const Value& vb = b.Get(r, at);
      if (va.is_fresh() || vb.is_fresh()) {
        EXPECT_TRUE(va.is_fresh() && vb.is_fresh())
            << "cell (" << r << "," << at << "): " << va.ToString()
            << " vs " << vb.ToString();
      } else {
        EXPECT_TRUE(va == vb)
            << "cell (" << r << "," << at << "): " << va.ToString()
            << " vs " << vb.ToString();
      }
    }
  }
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

/// Streams a replay workload and checks every batch against a from-scratch
/// dirty-component repair of the accumulated instance: same violation set,
/// exactly equal cost, same cells modulo fresh ids.
void RunStreamedVsScratch(const Workload& w, int threads) {
  StreamingOptions options = MakeOptions(w, threads);
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/4,
                                             /*batch_size=*/8, /*seed=*/7);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  ASSERT_TRUE(streamer.IsViolationFree());

  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    // Accumulated instance: previous streamed result plus this batch.
    Relation W = streamer.current();
    ApplyEditsToRelation(replay.batches[b], &W);

    StreamBatchResult r = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_TRUE(streamer.IsViolationFree());
    EXPECT_TRUE(FindViolations(streamer.current(), streamer.variant()).empty());
    EXPECT_TRUE(reference::ReferenceViolations(streamer.current(),
                                               streamer.variant())
                    .empty());

    // From-scratch: full detection on W, then the same scoped solve.
    EncodedRelation E(W);
    std::vector<Violation> violations = FindViolations(E, streamer.variant());
    EXPECT_EQ(static_cast<int>(violations.size()), r.violations);

    DomainStats stats_of_W(W);
    RepairStats scratch_stats;
    MaterializedCache cold;
    int64_t scratch_fresh = 1000000;  // disjoint from the streamed ids
    std::optional<ScopedRepair> fix = CVTolerantResolveComponents(
        W, stats_of_W, streamer.variant(), std::move(violations),
        options.repair, &cold, &scratch_stats, &scratch_fresh, E);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->cost, r.repair_cost);  // bit-identical, not just close
    EXPECT_EQ(fix->components, r.components);
    for (auto& [cell, value] : fix->assignments) {
      W.SetValue(cell, std::move(value));
    }
    ExpectEqualModuloFresh(streamer.current(), W);
  }
}

TEST(StreamingTest, HospEncodedMatchesScratch) {
  RunStreamedVsScratch(MakeHospWorkload(), /*threads=*/1);
}

TEST(StreamingTest, CensusEncodedMatchesScratch) {
  RunStreamedVsScratch(MakeCensusWorkload(), /*threads=*/1);
}

TEST(StreamingTest, HospEncodedMatchesScratchAt4Threads) {
  RunStreamedVsScratch(MakeHospWorkload(), /*threads=*/4);
}

TEST(StreamingTest, CensusEncodedMatchesScratchAt4Threads) {
  RunStreamedVsScratch(MakeCensusWorkload(), /*threads=*/4);
}

// Serial and 4-thread streams of the same workload must agree exactly —
// including fresh-variable ids — batch by batch.
TEST(StreamingTest, ThreadCountIsInvisible) {
  Workload w = MakeHospWorkload();
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 3, 10, /*seed=*/11);
  StreamingRepairer serial(replay.base, w.sigma, MakeOptions(w, 1));
  StreamingRepairer threaded(replay.base, w.sigma, MakeOptions(w, 4));
  ExpectExactlyEqual(serial.current(), threaded.current());
  for (const std::vector<RowEdit>& batch : replay.batches) {
    StreamBatchResult rs = serial.ApplyBatch(batch);
    StreamBatchResult rt = threaded.ApplyBatch(batch);
    EXPECT_EQ(rs.repair_cost, rt.repair_cost);
    EXPECT_EQ(rs.cells_changed, rt.cells_changed);
    EXPECT_EQ(rs.components, rt.components);
    EXPECT_EQ(rs.rows_rechecked, rt.rows_rechecked);
    ExpectExactlyEqual(serial.current(), threaded.current());
  }
}

// Delta maintenance through ApplyBatch must land on the same violation set
// as (a) per-edit ApplyChange calls for update-only batches and (b) an
// index rebuilt from the edited instance, for mixed batches with inserts.
TEST(StreamingTest, ApplyBatchMatchesPerEditAndRebuild) {
  Workload w = MakeHospWorkload();
  std::mt19937_64 rng(13);
  {
    ViolationIndex batch_index(w.dirty, w.sigma);
    ViolationIndex edit_index(w.dirty, w.sigma);
    const int n = w.dirty.num_rows();
    const int m = w.dirty.num_attributes();
    // Update-only batch: compare against per-edit ApplyChange.
    std::vector<RowEdit> updates;
    for (int i = 0; i < 12; ++i) {
      int row = static_cast<int>(rng() % static_cast<uint64_t>(n));
      AttrId attr = static_cast<AttrId>(rng() % static_cast<uint64_t>(m));
      Value v = w.dirty.Get(static_cast<int>(rng() % static_cast<uint64_t>(n)),
                            attr);
      updates.push_back(RowEdit::Update(row, attr, v));
    }
    batch_index.ApplyBatch(updates);
    for (const RowEdit& e : updates) {
      edit_index.ApplyChange({e.row, e.attr}, e.value);
    }
    EXPECT_EQ(batch_index.CurrentViolations(), edit_index.CurrentViolations());

    // Mixed batch with inserts: compare against a full rebuild.
    std::vector<RowEdit> mixed;
    mixed.push_back(RowEdit::Insert(w.dirty.row(0)));
    mixed.push_back(RowEdit::Insert(w.dirty.row(n / 2)));
    for (int i = 0; i < 6; ++i) {
      int row = static_cast<int>(rng() % static_cast<uint64_t>(n + 2));
      AttrId attr = static_cast<AttrId>(rng() % static_cast<uint64_t>(m));
      Value v = w.dirty.Get(static_cast<int>(rng() % static_cast<uint64_t>(n)),
                            attr);
      mixed.push_back(RowEdit::Update(row, attr, v));
    }
    std::vector<int> touched = batch_index.ApplyBatch(mixed);
    EXPECT_TRUE(std::is_sorted(touched.begin(), touched.end()));
    ViolationIndex rebuilt(batch_index.relation(), w.sigma);
    EXPECT_EQ(batch_index.CurrentViolations(), rebuilt.CurrentViolations());
  }
}

TEST(StreamingTest, EdgeCaseBatches) {
  Workload w = MakeHospWorkload();
  StreamingOptions options = MakeOptions(w, 1);
  StreamingRepairer streamer(w.dirty, w.sigma, options);
  ASSERT_TRUE(streamer.IsViolationFree());
  const Relation before = streamer.current();
  const int n = before.num_rows();

  // Empty batch: a no-op.
  StreamBatchResult empty = streamer.ApplyBatch({});
  EXPECT_EQ(empty.rows_touched, 0);
  EXPECT_EQ(empty.violations, 0);
  EXPECT_EQ(empty.cells_changed, 0);
  ExpectExactlyEqual(streamer.current(), before);

  // No-op edit: rewrite a cell with its current (non-fresh) value.
  Cell cell{0, HospAttrs::kMeasureCode};
  ASSERT_FALSE(before.Get(cell).is_fresh());
  StreamBatchResult noop =
      streamer.ApplyBatch({RowEdit::Update(cell.row, cell.attr,
                                           before.Get(cell))});
  EXPECT_EQ(noop.rows_touched, 1);
  EXPECT_EQ(noop.cells_changed, 0);
  EXPECT_TRUE(streamer.IsViolationFree());
  ExpectExactlyEqual(streamer.current(), before);

  // Duplicate edits of one cell: last one wins — the stream must end in
  // the same state as a batch carrying only the final edit.
  StreamingRepairer twice(w.dirty, w.sigma, options);
  StreamingRepairer once(w.dirty, w.sigma, options);
  Value v0 = w.dirty.Get(1, HospAttrs::kPhone);
  Value v1 = w.dirty.Get(2, HospAttrs::kPhone);
  twice.ApplyBatch({RowEdit::Update(0, HospAttrs::kPhone, v0),
                    RowEdit::Update(0, HospAttrs::kPhone, v1)});
  once.ApplyBatch({RowEdit::Update(0, HospAttrs::kPhone, v1)});
  ExpectExactlyEqual(twice.current(), once.current());

  // Insert followed by an update of the inserted row in the same batch
  // (inserts extend the index space at apply time).
  StreamBatchResult mixed = streamer.ApplyBatch(
      {RowEdit::Insert(w.dirty.row(0)),
       RowEdit::Update(n, HospAttrs::kCity, w.dirty.Get(1, HospAttrs::kCity))});
  EXPECT_EQ(streamer.current().num_rows(), n + 1);
  EXPECT_GE(mixed.rows_touched, 1);
  EXPECT_TRUE(streamer.IsViolationFree());
}

// An instance with no tuples has no cell to edit: MakeReplayWorkload and
// MakeDriftWorkload return the requested number of empty batches over the
// empty base, and a session streams them violation-free.
TEST(StreamingTest, ReplayBuildersOnEmptyInstance) {
  Schema schema;
  schema.AddAttribute("Name", AttrType::kString);
  schema.AddAttribute("Group", AttrType::kString);
  schema.AddAttribute("Value", AttrType::kString);
  const Relation empty(schema);
  for (bool drift : {false, true}) {
    SCOPED_TRACE(drift ? "drift" : "replay");
    ReplayWorkload replay = drift ? MakeDriftWorkload(empty, 2, 4)
                                  : MakeReplayWorkload(empty, 2, 4);
    EXPECT_EQ(replay.base.num_rows(), 0);
    EXPECT_EQ(replay.base.num_attributes(), 3);
    ASSERT_EQ(replay.batches.size(), 2u);
    for (const std::vector<RowEdit>& batch : replay.batches) {
      EXPECT_TRUE(batch.empty());
    }
    StreamingRepairer streamer(replay.base,
                               {DenialConstraint::FromFd({1}, 2)}, {});
    for (const std::vector<RowEdit>& batch : replay.batches) {
      EXPECT_EQ(streamer.ApplyBatch(batch).violations, 0);
    }
    EXPECT_TRUE(streamer.IsViolationFree());
  }
}

/// Regression for the cross-batch cache staleness bug: with epoch stamps
/// and row/attr eviction, a cached stream must be bit-identical — costs,
/// counters, and every cell including fresh-variable ids — to a stream
/// that solves every batch cold.
void RunCacheOnMatchesOff(const Workload& w) {
  StreamingOptions on = MakeOptions(w, 1);
  on.cross_batch_cache = true;
  StreamingOptions off = on;
  off.cross_batch_cache = false;
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/5,
                                             /*batch_size=*/8, /*seed=*/23);
  StreamingRepairer cached(replay.base, w.sigma, on);
  StreamingRepairer cold(replay.base, w.sigma, off);
  ExpectExactlyEqual(cached.current(), cold.current());
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult rc = cached.ApplyBatch(replay.batches[b]);
    StreamBatchResult rk = cold.ApplyBatch(replay.batches[b]);
    EXPECT_EQ(rc.repair_cost, rk.repair_cost);
    EXPECT_EQ(rc.cells_changed, rk.cells_changed);
    EXPECT_EQ(rc.components, rk.components);
    EXPECT_TRUE(cached.IsViolationFree());
    ExpectExactlyEqual(cached.current(), cold.current());
  }
}

TEST(StreamingTest, CacheOnMatchesOffHospEncoded) {
  RunCacheOnMatchesOff(MakeHospWorkload());
}

TEST(StreamingTest, CacheOnMatchesOffCensusEncoded) {
  RunCacheOnMatchesOff(MakeCensusWorkload());
}

// The same bit-identity must survive the unfrozen path: a drifting stream
// with reopen_variants exercises the variant-switch cache sweep (Def. 7
// refinement check plus diff eviction), and a sweep that keeps one stale
// entry too many would show up as diverging cells here.
TEST(StreamingTest, CacheOnMatchesOffWithReopens) {
  Workload w = MakeHospWorkload();
  StreamingOptions on = MakeOptions(w, 1);
  on.reopen_variants = true;
  on.cross_batch_cache = true;
  StreamingOptions off = on;
  off.cross_batch_cache = false;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  StreamingRepairer cached(replay.base, w.sigma, on);
  StreamingRepairer cold(replay.base, w.sigma, off);
  ExpectExactlyEqual(cached.current(), cold.current());
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult rc = cached.ApplyBatch(replay.batches[b]);
    StreamBatchResult rk = cold.ApplyBatch(replay.batches[b]);
    EXPECT_EQ(rc.repair_cost, rk.repair_cost);
    EXPECT_EQ(rc.reopened, rk.reopened);
    EXPECT_EQ(rc.variant_switched, rk.variant_switched);
    EXPECT_TRUE(cached.variant() == cold.variant());
    ExpectExactlyEqual(cached.current(), cold.current());
  }
  EXPECT_GT(cached.totals().variant_reopens, 0);
}

// Satellite of the unfrozen-Σ' work: after a mid-stream variant switch the
// held instance must match the from-scratch factored search on the
// accumulated dirty instance — same Σ', same cost, same cells modulo
// fresh ids. (tests/variant_drift_test.cc pins the per-batch version.)
TEST(StreamingTest, ScratchEquivalenceHoldsAfterVariantSwitch) {
  Workload w = MakeHospWorkload();
  StreamingOptions options = MakeOptions(w, 1);
  options.reopen_variants = true;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  bool switched = false;
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult r = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_TRUE(streamer.IsViolationFree());
    EXPECT_TRUE(FindViolations(streamer.current(), streamer.variant()).empty());
    if (!r.variant_switched) continue;
    switched = true;
    // From-scratch twin on the accumulated dirty instance D: full
    // per-constraint fact scans feeding the same factored candidate loop.
    const VariantTracker& t = *streamer.tracker();
    EncodedRelation E(t.dirty());
    std::map<DenialConstraint, VariantFacts> facts =
        ScanVariantFacts(t.dirty(), w.sigma, t.variants(), options.repair, E);
    int64_t scratch_fresh = 1000000;  // disjoint from the streamed ids
    VariantSearchResult sr = CVTolerantSearchWithFacts(
        t.dirty(), w.sigma, t.variants(),
        [&facts](const DenialConstraint& c) -> const VariantFacts& {
          return facts.at(c);
        },
        options.repair, &scratch_fresh, E);
    ASSERT_TRUE(sr.have_result);
    EXPECT_TRUE(sr.variant == streamer.variant());
    EXPECT_EQ(sr.cost, streamer.realized_cost());
    ExpectEqualModuloFresh(streamer.current(), sr.repaired);
  }
  EXPECT_TRUE(switched) << "drift stream never forced a variant switch — "
                           "retune MakeDriftWorkload parameters";
}

// When every candidate is hopeless under the violation cap, the unfrozen
// constructor must take CVTolerantRepair's repair-of-Σ fallback, exactly
// like the frozen path, instead of starting from the unrepaired input.
TEST(StreamingTest, UnfrozenStreamFallsBackToRepairOfSigma) {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.target_attrs = hosp.noise_attrs;
  Relation dirty = InjectNoise(hosp.clean, noise).dirty;
  StreamingOptions options;
  options.repair.variants.space = hosp.space;
  options.repair.max_violations_per_tuple = 0.01;
  StreamingRepairer frozen(dirty, hosp.given_oversimplified, options);
  options.reopen_variants = true;
  StreamingRepairer unfrozen(dirty, hosp.given_oversimplified, options);

  ASSERT_EQ(unfrozen.initial_stats().datarepair_calls, 0)
      << "the cap no longer makes every candidate hopeless";
  EXPECT_TRUE(unfrozen.IsViolationFree());
  EXPECT_GT(frozen.initial_stats().repair_cost, 0.0);
  EXPECT_EQ(unfrozen.initial_stats().repair_cost,
            frozen.initial_stats().repair_cost);
  EXPECT_EQ(unfrozen.realized_cost(), frozen.initial_stats().repair_cost);
  EXPECT_TRUE(unfrozen.variant() == hosp.given_oversimplified);
  ExpectEqualModuloFresh(unfrozen.current(), frozen.current());
}

// Cross-batch solution reuse keeps the invariant after every batch (the
// bit-identity to the cold default is pinned by CacheOnMatchesOff*).
TEST(StreamingTest, CrossBatchCacheStaysViolationFree) {
  Workload w = MakeHospWorkload();
  StreamingOptions options = MakeOptions(w, 1);
  options.cross_batch_cache = true;
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 4, 8, /*seed=*/17);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    streamer.ApplyBatch(batch);
    EXPECT_TRUE(streamer.IsViolationFree());
    EXPECT_TRUE(FindViolations(streamer.current(), streamer.variant()).empty());
  }
}

// The localization claim behind the subsystem: streamed detection work
// stays well below one full re-detection per batch.
TEST(StreamingTest, RecheckWorkIsLocalizedToBatches) {
  Workload w = MakeCensusWorkload();
  StreamingOptions options = MakeOptions(w, 1);
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, 5, 6, /*seed=*/19);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    streamer.ApplyBatch(batch);
  }
  const StreamTotals& t = streamer.totals();
  // Full re-detection scans every row once per constraint; rows_rechecked
  // counts (constraint, row) scans, so the scratch equivalent is
  // batches * rows * |sigma|.
  const int64_t full_rescans =
      t.batches * streamer.current().num_rows() *
      static_cast<int64_t>(streamer.variant().size());
  EXPECT_LT(t.rows_rechecked, full_rescans / 2) << "no localization win";
  EXPECT_GT(t.rows_ingested, 0);
}

}  // namespace
}  // namespace cvrepair
