// Unfrozen Σ' (repair/streaming.h VariantTracker + cvtolerant.h factored
// search): on a drifting edit stream, the tracker's delta-maintained
// per-constraint facts must stay identical to from-scratch detection scans
// of the accumulated dirty instance after every batch, the held variant
// must always be the one the from-scratch full variant search would
// choose, and on reopen batches the held instance must equal the scratch
// search's repair — cost bit-identical, cells equal modulo fresh ids — at
// 1 and 4 threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "reference_scan.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/streaming.h"
#include "repair/subset.h"

namespace cvrepair {
namespace {

struct Workload {
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

Workload MakeDriftableWorkload() {
  HospConfig config;
  config.num_hospitals = 6;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified,
          hosp.space};
}

void ExpectEqualModuloFresh(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId at = 0; at < a.num_attributes(); ++at) {
      const Value& va = a.Get(r, at);
      const Value& vb = b.Get(r, at);
      if (va.is_fresh() || vb.is_fresh()) {
        EXPECT_TRUE(va.is_fresh() && vb.is_fresh())
            << "cell (" << r << "," << at << "): " << va.ToString() << " vs "
            << vb.ToString();
      } else {
        EXPECT_TRUE(va == vb)
            << "cell (" << r << "," << at << "): " << va.ToString() << " vs "
            << vb.ToString();
      }
    }
  }
}

/// Streams a drift workload with reopen_variants and checks, after every
/// batch, the tracker state against its from-scratch twin on the
/// accumulated dirty instance D.
void RunDriftStreamVsScratch(
    int threads, CoverHeuristic cover = CoverHeuristic::kGreedyDegree) {
  Workload w = MakeDriftableWorkload();
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.repair.vfree.cover = cover;
  options.repair.threads = threads;
  options.reopen_variants = true;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  ASSERT_TRUE(streamer.tracker() != nullptr);
  ASSERT_GT(streamer.tracker()->family().variants.size(), 1u);

  int reopened = 0, switched = 0;
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult r = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_TRUE(streamer.IsViolationFree());
    EXPECT_TRUE(reference::ReferenceViolations(streamer.current(),
                                               streamer.variant())
                    .empty());
    reopened += r.reopened ? 1 : 0;
    switched += r.variant_switched ? 1 : 0;

    const VariantTracker& t = *streamer.tracker();
    EncodedRelation E(t.dirty());
    const DomainStats stats_of_D(t.dirty());

    // Delta-maintained facts == full detection scans on D, family position
    // by family position: violation sets, δ_l/δ_u, hopeless verdicts.
    const std::vector<VariantFacts> scratch_facts = ScanVariantFacts(
        t.dirty(), stats_of_D, t.family(), options.repair, E);
    ASSERT_EQ(scratch_facts.size(), t.facts().size());
    ASSERT_EQ(scratch_facts.size(), t.family().constraints.size());
    for (size_t k = 0; k < scratch_facts.size(); ++k) {
      SCOPED_TRACE("family position " + std::to_string(k));
      const VariantFacts& sf = scratch_facts[k];
      const VariantFacts& tf = t.facts()[k];
      EXPECT_EQ(tf.violations, sf.violations);
      EXPECT_EQ(tf.delta_l, sf.delta_l);
      EXPECT_EQ(tf.delta_u, sf.delta_u);
      EXPECT_EQ(tf.hopeless, sf.hopeless);
    }

    // The full from-scratch variant search over those facts must land on
    // the variant the stream is holding — on every batch, reopened or not
    // (the reopen trigger is what makes skipping the search safe).
    int64_t scratch_fresh = 1000000;  // disjoint from the streamed ids
    VariantSearchResult sr = CVTolerantSearchWithFacts(
        t.dirty(), stats_of_D, t.family(), scratch_facts, options.repair,
        &scratch_fresh, E);
    ASSERT_TRUE(sr.have_result);
    EXPECT_TRUE(sr.variant == streamer.variant())
        << "held variant diverged from the scratch-optimal choice";

    if (r.variant_switched) {
      // A switch adopted the streamed search's result wholesale, and that
      // search ran on the tracker's (equal) facts — so the held state is
      // bit-identical to the scratch search modulo fresh-id numbering.
      // (Between switches the stream holds the cheaper incrementally
      // repaired instance instead, whose realized cost the trigger
      // compares against the rivals' bounds.)
      EXPECT_EQ(sr.cost, streamer.realized_cost());
      ExpectEqualModuloFresh(streamer.current(), sr.repaired);
    }
  }
  // The workload must force real reopens and at least one switch, or the
  // test is vacuous. (Noisy drift batches perturb some family constraint
  // essentially every batch, so the conservative trigger re-opens every
  // batch here; QuietBatchSkipsReopen pins the skip regime.)
  EXPECT_GT(reopened, 0) << "no batch re-opened the search";
  EXPECT_GT(switched, 0) << "no batch switched variants";
  EXPECT_EQ(streamer.totals().variant_reopens, reopened);
  EXPECT_EQ(streamer.totals().variant_switches, switched);
  EXPECT_GT(streamer.totals().bound_updates, 0);
}

TEST(VariantDriftTest, EncodedSerial) {
  RunDriftStreamVsScratch(/*threads=*/1);
}

TEST(VariantDriftTest, EncodedThreaded) {
  RunDriftStreamVsScratch(/*threads=*/4);
}

// δ_u prices the configured cover, so the tracker's facts must match
// ScanVariantFacts' under a non-default cover too.
TEST(VariantDriftTest, LocalRatioCoverFactsMatchScratch) {
  RunDriftStreamVsScratch(/*threads=*/1, CoverHeuristic::kLocalRatio);
}

// A variant switch replaces the detection index in the middle of a batch;
// the batch's re-scan count must still include what the retired index
// did, so every batch reports positive work and the totals add up.
TEST(VariantDriftTest, RecheckCountSurvivesVariantSwitch) {
  Workload w = MakeDriftableWorkload();
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.reopen_variants = true;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, /*num_batches=*/6,
                                            /*batch_size=*/10, /*seed=*/29);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  int64_t rechecked = 0;
  int switched = 0;
  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    StreamBatchResult r = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_GT(r.rows_rechecked, 0);
    rechecked += r.rows_rechecked;
    switched += r.variant_switched ? 1 : 0;
  }
  EXPECT_GT(switched, 0) << "no batch switched variants";
  EXPECT_EQ(streamer.totals().rows_rechecked, rechecked);
}

// The skip regime of the reopen trigger: a batch whose edits change no
// cell — rewriting values the dirty instance and the held instance both
// already carry — moves no violation epoch, so every rival bound keeps
// its post-search lift (solved cost or abort threshold) and the trigger
// must NOT re-open the search. Census keeps the variant family small
// enough for the initial search to process every candidate; hosp's family
// outnumbers max_datarepair_calls, leaving budget-cut rivals at δ_l and
// the trigger legitimately hot on every batch.
TEST(VariantDriftTest, QuietBatchSkipsReopen) {
  CensusConfig config;
  config.num_rows = 120;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = census.noise_attrs;
  Workload w{InjectNoise(census.clean, noise).dirty, census.given, {}};
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.reopen_variants = true;
  StreamingRepairer streamer(w.dirty, w.sigma, options);
  const ConstraintSet held = streamer.variant();
  const double realized = streamer.realized_cost();

  // A cell the initial repair left untouched: its value agrees between the
  // dirty instance (the tracker's D) and the repaired instance.
  std::vector<RowEdit> quiet;
  for (int r = 0; r < w.dirty.num_rows() && quiet.size() < 3; ++r) {
    for (AttrId a = 0; a < w.dirty.num_attributes() && quiet.size() < 3; ++a) {
      if (w.dirty.Get(r, a) == streamer.current().Get(r, a) &&
          !w.dirty.Get(r, a).is_fresh()) {
        quiet.push_back(RowEdit::Update(r, a, w.dirty.Get(r, a)));
      }
    }
  }
  ASSERT_EQ(quiet.size(), 3u);

  StreamBatchResult r = streamer.ApplyBatch(quiet);
  EXPECT_FALSE(r.reopened);
  EXPECT_FALSE(r.variant_switched);
  EXPECT_EQ(r.bound_updates, 0);
  EXPECT_EQ(r.cells_changed, 0);
  EXPECT_TRUE(streamer.variant() == held);
  EXPECT_EQ(streamer.realized_cost(), realized);
  EXPECT_EQ(streamer.totals().variant_reopens, 0);
}

// The reopen trigger compares the realized cost with the rivals' solved
// costs, which the search prices under the run's strategy, so the realized
// cost must be priced the same way: under delete and hybrid a tombstoned
// row costs its deletion weight, not its cells' distances. Streams the
// CLI's `--generate hosp --size 12 --stream-batches 3 --batch-size 1
// --reopen-variants 1` workload and checks, after every batch, the price
// and the update contract of RunDriftStreamVsScratch: the held variant is
// the one a from-scratch search on D would choose. Under hybrid a tuple
// costs 1.5 to delete, so that the repairs do delete.
TEST(VariantDriftTest, RealizedCostIsStrategyPriced) {
  HospConfig config;
  config.num_hospitals = 12;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.target_attrs = hosp.noise_attrs;
  const Relation dirty = InjectNoise(hosp.clean, noise).dirty;
  const ReplayWorkload replay =
      MakeReplayWorkload(dirty, /*num_batches=*/3, /*batch_size=*/1);
  for (RepairStrategy strategy :
       {RepairStrategy::kDelete, RepairStrategy::kHybrid}) {
    SCOPED_TRACE(RepairStrategyToString(strategy));
    StreamingOptions options;
    options.repair.variants.space = hosp.space;
    options.repair.vfree.strategy = strategy;
    if (strategy == RepairStrategy::kHybrid) {
      options.repair.vfree.subset.delete_base = 1.5;
    }
    options.reopen_variants = true;
    StreamingRepairer streamer(replay.base, hosp.given_oversimplified,
                               options);
    const VfreeOptions& vfree = options.repair.vfree;
    int deleted = 0;
    for (size_t b = 0; b < replay.batches.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      streamer.ApplyBatch(replay.batches[b]);
      const VariantTracker& t = *streamer.tracker();
      const DomainStats stats_of_D(t.dirty());
      EXPECT_EQ(streamer.realized_cost(),
                StrategyRepairCost(t.dirty(), streamer.current(), vfree.cost,
                                   strategy, vfree.subset, stats_of_D));
      deleted = 0;
      for (int r = 0; r < t.dirty().num_rows(); ++r) {
        deleted +=
            reference::Tombstoned(t.dirty(), streamer.current(), r) ? 1 : 0;
      }

      EncodedRelation E(t.dirty());
      const std::vector<VariantFacts> facts =
          ScanVariantFacts(t.dirty(), stats_of_D, t.family(), options.repair, E);
      int64_t scratch_fresh = 1000000;
      VariantSearchResult sr =
          CVTolerantSearchWithFacts(t.dirty(), stats_of_D, t.family(), facts,
                                    options.repair, &scratch_fresh, E);
      ASSERT_TRUE(sr.have_result);
      EXPECT_TRUE(sr.variant == streamer.variant())
          << "held variant diverged from the scratch-optimal choice";
    }
    // The stream must hold real deletions, or pricing them is not tested.
    EXPECT_GT(deleted, 0);
  }
}

// Thread count must be invisible to the unfrozen path too: serial and
// 4-thread reopened streams agree exactly, fresh ids included.
TEST(VariantDriftTest, ThreadCountIsInvisibleUnderReopens) {
  Workload w = MakeDriftableWorkload();
  StreamingOptions serial_options;
  serial_options.repair.variants.space = w.space;
  serial_options.reopen_variants = true;
  serial_options.repair.threads = 1;
  StreamingOptions threaded_options = serial_options;
  threaded_options.repair.threads = 4;
  ReplayWorkload replay = MakeDriftWorkload(w.dirty, 6, 10, /*seed=*/29);
  StreamingRepairer serial(replay.base, w.sigma, serial_options);
  StreamingRepairer threaded(replay.base, w.sigma, threaded_options);
  for (const std::vector<RowEdit>& batch : replay.batches) {
    StreamBatchResult rs = serial.ApplyBatch(batch);
    StreamBatchResult rt = threaded.ApplyBatch(batch);
    EXPECT_EQ(rs.repair_cost, rt.repair_cost);
    EXPECT_EQ(rs.reopened, rt.reopened);
    EXPECT_EQ(rs.variant_switched, rt.variant_switched);
    EXPECT_EQ(rs.realized_cost, rt.realized_cost);
    EXPECT_EQ(rs.rival_bound, rt.rival_bound);
    EXPECT_TRUE(serial.variant() == threaded.variant());
    ASSERT_EQ(serial.current().num_rows(), threaded.current().num_rows());
    for (int r = 0; r < serial.current().num_rows(); ++r) {
      for (AttrId a = 0; a < serial.current().num_attributes(); ++a) {
        EXPECT_TRUE(serial.current().Get(r, a) == threaded.current().Get(r, a));
      }
    }
  }
  EXPECT_GT(serial.totals().variant_reopens, 0);
}

}  // namespace
}  // namespace cvrepair
