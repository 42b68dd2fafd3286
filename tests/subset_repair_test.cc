// Subset repair (repair/subset.h): tuple deletion as weighted vertex
// cover over the conflict hypergraph's tuple projection, the hybrid
// update-or-delete rule, and the strategy equivalence contracts — delete
// and hybrid must produce violation-free instances on hosp/census, serial
// and threaded, bit-identical across every axis, and the streamed variant
// must match a from-scratch dirty-component solve.
#include "repair/subset.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/parser.h"
#include "dc/violation.h"
#include "reference_scan.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/streaming.h"
#include "repair/vfree.h"

namespace cvrepair {
namespace {

// ---------------------------------------------------------------------------
// Strategy parsing.

TEST(SubsetRepairTest, StrategyParseRoundTrip) {
  for (RepairStrategy s : {RepairStrategy::kUpdate, RepairStrategy::kDelete,
                           RepairStrategy::kHybrid}) {
    RepairStrategy parsed;
    ASSERT_TRUE(ParseRepairStrategy(RepairStrategyToString(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  RepairStrategy out;
  EXPECT_FALSE(ParseRepairStrategy("tombstone", &out));
  EXPECT_FALSE(ParseRepairStrategy("", &out));
}

// ---------------------------------------------------------------------------
// Deletion weights: representation-cost accounting per --repr-attr group.

Relation GroupedRelation() {
  Schema schema;
  schema.AddAttribute("G", AttrType::kString);
  schema.AddAttribute("A", AttrType::kInt);
  Relation rel(schema);
  // Group "big" has 3 rows, group "rare" has 1, plus a NULL-group row.
  rel.AddRow({Value::String("big"), Value::Int(1)});
  rel.AddRow({Value::String("big"), Value::Int(2)});
  rel.AddRow({Value::String("big"), Value::Int(3)});
  rel.AddRow({Value::String("rare"), Value::Int(4)});
  rel.AddRow({Value::Null(), Value::Int(5)});
  return rel;
}

TEST(SubsetRepairTest, DeletionWeightProtectsRareGroups) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  SubsetOptions options;
  options.repr_attr = 0;
  options.alpha = 1.0;
  options.delete_base = 3.0;
  // weight = base * (1 + alpha * (1 - freq/|I|)).
  const double big = RowDeletionWeight(rel, stats, 0, options);
  const double rare = RowDeletionWeight(rel, stats, 3, options);
  const double null_group = RowDeletionWeight(rel, stats, 4, options);
  EXPECT_DOUBLE_EQ(big, 3.0 * (1.0 + (1.0 - 3.0 / 5.0)));
  EXPECT_DOUBLE_EQ(rare, 3.0 * (1.0 + (1.0 - 1.0 / 5.0)));
  EXPECT_LT(big, rare);
  // A NULL group value reads as a vanishing group: maximally protected.
  EXPECT_DOUBLE_EQ(null_group, 3.0 * 2.0);
  EXPECT_GE(null_group, rare);
  // Without a grouping attribute every row costs the flat base.
  SubsetOptions flat;
  EXPECT_DOUBLE_EQ(RowDeletionWeight(rel, stats, 0, flat),
                   flat.delete_base);
  EXPECT_DOUBLE_EQ(RowDeletionWeight(rel, stats, 3, flat),
                   flat.delete_base);
}

// ---------------------------------------------------------------------------
// The greedy weighted cover over the tuple projection.

TEST(SubsetRepairTest, CoverPicksHubRowAndTombstonesIt) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  // Three edges all incident to row 1: {0,1}, {1,2}, {1,3}. Deleting row 1
  // covers everything at one weight.
  std::vector<Violation> violations = {
      {0, {0, 1}}, {0, {1, 2}}, {0, {1, 3}}};
  SubsetOptions options;  // flat weights
  RepairStats repair_stats;
  SubsetRepair result =
      SubsetCoverRepair(rel, stats, violations, options, &repair_stats);
  EXPECT_EQ(result.rows_deleted, 1);
  EXPECT_EQ(repair_stats.rows_deleted, 1);
  EXPECT_DOUBLE_EQ(result.cost, options.delete_base);
  // Every assignment NULLs a cell of row 1, covering both attributes.
  ASSERT_EQ(result.assignments.size(), 2u);
  for (const auto& [cell, value] : result.assignments) {
    EXPECT_EQ(cell.row, 1);
    EXPECT_TRUE(value.is_null());
  }
  // Applying the tombstones retires every violation: NULL satisfies no
  // predicate, so the deleted row can never violate again.
  Relation repaired = rel;
  for (const auto& [cell, value] : result.assignments) {
    repaired.SetValue(cell, value);
  }
  EXPECT_TRUE(RowDeleted(rel, repaired, 1));
  EXPECT_FALSE(RowDeleted(rel, repaired, 0));
}

TEST(SubsetRepairTest, CoverPrefersCheaperRowsUnderWeights) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  // One edge {0, 3}: row 0 ("big" group, cheap) vs row 3 ("rare" group,
  // expensive). The cover must delete the cheap row.
  std::vector<Violation> violations = {{0, {0, 3}}};
  SubsetOptions options;
  options.repr_attr = 0;
  RepairStats repair_stats;
  SubsetRepair result =
      SubsetCoverRepair(rel, stats, violations, options, &repair_stats);
  ASSERT_EQ(result.rows_deleted, 1);
  EXPECT_EQ(result.assignments.front().first.row, 0);
}

TEST(SubsetRepairTest, SingleTupleViolationForcesItsRow) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  std::vector<Violation> violations = {{0, {2}}};
  SubsetRepair result =
      SubsetCoverRepair(rel, stats, violations, SubsetOptions{}, nullptr);
  ASSERT_EQ(result.rows_deleted, 1);
  EXPECT_EQ(result.assignments.front().first.row, 2);
}

// ---------------------------------------------------------------------------
// Hybrid: delete a tuple only when its update cost exceeds its weight.

struct HybridFixture {
  Relation rel;
  ConstraintSet sigma;
};

// Row 0 violates three single-tuple range DCs (three cells must change,
// update cost 3 under the count model); row 1 is clean.
HybridFixture MakeHybridFixture() {
  Schema schema;
  schema.AddAttribute("A", AttrType::kInt);
  schema.AddAttribute("B", AttrType::kInt);
  schema.AddAttribute("C", AttrType::kInt);
  Relation rel(schema);
  rel.AddRow({Value::Int(-1), Value::Int(-2), Value::Int(-3)});
  rel.AddRow({Value::Int(7), Value::Int(8), Value::Int(9)});
  ConstraintSet sigma;
  for (const char* text :
       {"c_a: not(t0.A < 0)", "c_b: not(t0.B < 0)", "c_c: not(t0.C < 0)"}) {
    ParseConstraintResult r = ParseConstraint(rel.schema(), text);
    EXPECT_TRUE(r.ok()) << r.error;
    if (r.ok()) sigma.push_back(*r.constraint);
  }
  return {std::move(rel), std::move(sigma)};
}

TEST(SubsetRepairTest, HybridDeletesRowWhoseUpdateCostExceedsWeight) {
  HybridFixture f = MakeHybridFixture();
  VfreeOptions options;
  options.strategy = RepairStrategy::kHybrid;
  options.subset.delete_base = 1.5;  // update cost 3 > weight 1.5: delete
  RepairResult result = VfreeRepair(f.rel, f.sigma, options);
  EXPECT_EQ(result.stats.rows_deleted, 1);
  EXPECT_TRUE(RowDeleted(f.rel, result.repaired, 0));
  EXPECT_FALSE(RowDeleted(f.rel, result.repaired, 1));
  EXPECT_DOUBLE_EQ(result.stats.repair_cost, 1.5);
  EXPECT_TRUE(FindViolations(result.repaired, f.sigma).empty());
}

TEST(SubsetRepairTest, HybridKeepsRowWhenUpdateIsCheaper) {
  HybridFixture f = MakeHybridFixture();
  VfreeOptions options;
  options.strategy = RepairStrategy::kHybrid;
  options.subset.delete_base = 5.0;  // update cost 3 < weight 5: keep
  RepairResult result = VfreeRepair(f.rel, f.sigma, options);
  EXPECT_EQ(result.stats.rows_deleted, 0);
  EXPECT_FALSE(RowDeleted(f.rel, result.repaired, 0));
  // The interval solver lifts each negative cell to the bound.
  for (AttrId a = 0; a < 3; ++a) {
    EXPECT_TRUE(result.repaired.Get(0, a).is_numeric());
    EXPECT_GE(result.repaired.Get(0, a).numeric(), 0.0);
  }
  EXPECT_TRUE(FindViolations(result.repaired, f.sigma).empty());
}

TEST(SubsetRepairTest, DeleteStrategyTombstonesTheViolatingRow) {
  HybridFixture f = MakeHybridFixture();
  VfreeOptions options;
  options.strategy = RepairStrategy::kDelete;
  RepairResult result = VfreeRepair(f.rel, f.sigma, options);
  EXPECT_EQ(result.stats.rows_deleted, 1);
  EXPECT_TRUE(RowDeleted(f.rel, result.repaired, 0));
  EXPECT_DOUBLE_EQ(result.stats.repair_cost, options.subset.delete_base);
  EXPECT_TRUE(FindViolations(result.repaired, f.sigma).empty());
  // StrategyRepairCost recomputes the same total from the instance pair.
  DomainStats stats(f.rel);
  EXPECT_DOUBLE_EQ(
      StrategyRepairCost(f.rel, result.repaired, options.cost,
                         options.strategy, options.subset, stats),
      result.stats.repair_cost);
}

// ---------------------------------------------------------------------------
// The acceptance matrix: delete and hybrid are violation-free on hosp and
// census, 1 and 4 threads — and bit-identical across both (tombstones are
// concrete NULLs, updates replay serially, so exact equality holds, fresh
// ids included).

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

RepairResult RunCVTolerant(const Workload& w, RepairStrategy strategy,
                           int threads) {
  CVTolerantOptions options;
  options.variants.space = w.space;
  options.threads = threads;
  options.vfree.strategy = strategy;
  return CVTolerantRepair(w.dirty, w.sigma, options);
}

void RunStrategyMatrix(const Workload& w, RepairStrategy strategy) {
  RepairResult baseline = RunCVTolerant(w, strategy, /*threads=*/1);
  EXPECT_TRUE(
      FindViolations(baseline.repaired, baseline.satisfied_constraints)
          .empty());
  if (strategy == RepairStrategy::kDelete) {
    EXPECT_GT(baseline.stats.rows_deleted, 0);
  }
  RepairResult result = RunCVTolerant(w, strategy, /*threads=*/4);
  EXPECT_TRUE(baseline.satisfied_constraints == result.satisfied_constraints);
  EXPECT_EQ(baseline.stats.repair_cost, result.stats.repair_cost);
  EXPECT_EQ(baseline.stats.rows_deleted, result.stats.rows_deleted);
  ExpectExactlyEqual(baseline.repaired, result.repaired);
  EXPECT_TRUE(
      FindViolations(result.repaired, result.satisfied_constraints).empty());
}

TEST(SubsetRepairTest, DeleteMatrixHosp) {
  RunStrategyMatrix(MakeHospWorkload(), RepairStrategy::kDelete);
}
TEST(SubsetRepairTest, DeleteMatrixCensus) {
  RunStrategyMatrix(MakeCensusWorkload(), RepairStrategy::kDelete);
}
TEST(SubsetRepairTest, HybridMatrixHosp) {
  RunStrategyMatrix(MakeHospWorkload(), RepairStrategy::kHybrid);
}
TEST(SubsetRepairTest, HybridMatrixCensus) {
  RunStrategyMatrix(MakeCensusWorkload(), RepairStrategy::kHybrid);
}

// δ_u(Σ) is a bound in cell-update units, so it must not seed δ_min under
// the delete strategy: on tax@300 every candidate's deletion cost exceeds
// it, so every DataRepair call would abort and the search would fall back
// to the repair of Σ. Bound pruning must only skip work, never change the
// cost the search finds.
TEST(SubsetRepairTest, DeleteStrategyPruningKeepsTheUnprunedCost) {
  TaxConfig config;
  config.num_rows = 300;
  TaxData tax = MakeTax(config);
  for (uint64_t seed : {0, 1}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    NoiseConfig noise;
    noise.seed += seed;
    noise.target_attrs = tax.noise_attrs;
    Relation dirty = InjectNoise(tax.clean, noise).dirty;
    CVTolerantOptions options;
    options.vfree.strategy = RepairStrategy::kDelete;
    RepairResult pruned = CVTolerantRepair(dirty, tax.given, options);
    options.enable_bound_pruning = false;
    RepairResult unpruned = CVTolerantRepair(dirty, tax.given, options);
    EXPECT_EQ(pruned.stats.repair_cost, unpruned.stats.repair_cost);
    EXPECT_EQ(pruned.stats.rows_deleted, unpruned.stats.rows_deleted);
    EXPECT_TRUE(
        FindViolations(pruned.repaired, pruned.satisfied_constraints).empty());
  }
}

// ---------------------------------------------------------------------------
// Streamed ≡ scratch under the delete strategy: every batch's streamed
// dirty-component solve matches a from-scratch detection + solve of the
// accumulated instance (the SolveDirtyComponents intercept is the same
// code path either way, so costs and tombstones agree exactly).

void ApplyEditsToRelation(const std::vector<RowEdit>& edits, Relation* W) {
  for (const RowEdit& e : edits) {
    if (e.insert) {
      W->AddRow(e.values);
    } else {
      W->SetValue(e.row, e.attr, e.value);
    }
  }
}

void RunStreamedVsScratchDelete(const Workload& w, int threads) {
  StreamingOptions options;
  options.repair.variants.space = w.space;
  options.repair.threads = threads;
  options.repair.vfree.strategy = RepairStrategy::kDelete;
  ReplayWorkload replay = MakeReplayWorkload(w.dirty, /*num_batches=*/4,
                                             /*batch_size=*/8, /*seed=*/7);
  StreamingRepairer streamer(replay.base, w.sigma, options);
  ASSERT_TRUE(streamer.IsViolationFree());

  for (size_t b = 0; b < replay.batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    Relation W = streamer.current();
    ApplyEditsToRelation(replay.batches[b], &W);

    StreamBatchResult r = streamer.ApplyBatch(replay.batches[b]);
    EXPECT_TRUE(streamer.IsViolationFree());
    EXPECT_TRUE(
        FindViolations(streamer.current(), streamer.variant()).empty());
    EXPECT_TRUE(reference::ReferenceViolations(streamer.current(),
                                               streamer.variant())
                    .empty());

    EncodedRelation E(W);
    std::vector<Violation> violations = FindViolations(E, streamer.variant());
    EXPECT_EQ(static_cast<int>(violations.size()), r.violations);

    DomainStats stats_of_W(W);
    RepairStats scratch_stats;
    MaterializedCache cold;
    int64_t scratch_fresh = 1000000;
    std::optional<ScopedRepair> fix = CVTolerantResolveComponents(
        W, stats_of_W, streamer.variant(), std::move(violations),
        options.repair, &cold, &scratch_stats, &scratch_fresh, E);
    ASSERT_TRUE(fix.has_value());
    EXPECT_EQ(fix->cost, r.repair_cost);  // bit-identical
    for (auto& [cell, value] : fix->assignments) {
      W.SetValue(cell, std::move(value));
    }
    // Tombstones carry no fresh ids, so exact equality is the contract.
    ExpectExactlyEqual(streamer.current(), W);
  }
  // The tombstoned rows really retired from the index: a no-op batch
  // detects nothing and changes nothing.
  StreamBatchResult idle = streamer.ApplyBatch({});
  EXPECT_EQ(idle.violations, 0);
  EXPECT_EQ(idle.cells_changed, 0);
}

TEST(SubsetRepairTest, DeleteStreamedMatchesScratchHospEncoded) {
  RunStreamedVsScratchDelete(MakeHospWorkload(), /*threads=*/1);
}
TEST(SubsetRepairTest, DeleteStreamedMatchesScratchHospEncoded4Threads) {
  RunStreamedVsScratchDelete(MakeHospWorkload(), /*threads=*/4);
}
TEST(SubsetRepairTest, DeleteStreamedMatchesScratchCensusEncoded) {
  RunStreamedVsScratchDelete(MakeCensusWorkload(), /*threads=*/1);
}

// ---------------------------------------------------------------------------
// Fuzz arm (scaled by CVREPAIR_FUZZ_ITERS in the nightly job): random
// workload shape × strategy; the repaired instance must be
// violation-free, deletions bounded by the violating-row count, and the
// serial run bit-identical to the threaded one.

int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

class SubsetRepairFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SubsetRepairFuzz, RandomWorkloadStaysViolationFree) {
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 7919 + 13);
  Workload w = (seed % 2 == 0) ? MakeHospWorkload() : MakeCensusWorkload();
  const RepairStrategy strategy =
      (rng() % 2 == 0) ? RepairStrategy::kDelete : RepairStrategy::kHybrid;
  SCOPED_TRACE("seed=" + std::to_string(seed) + " strategy=" +
               RepairStrategyToString(strategy));
  RepairResult serial = RunCVTolerant(w, strategy, /*threads=*/1);
  EXPECT_TRUE(
      FindViolations(serial.repaired, serial.satisfied_constraints).empty());
  // The greedy cover deletes at most one row per violation hyperedge.
  EXPECT_LE(serial.stats.rows_deleted, serial.stats.initial_violations);
  RepairResult threaded = RunCVTolerant(w, strategy, /*threads=*/4);
  EXPECT_EQ(serial.stats.repair_cost, threaded.stats.repair_cost);
  EXPECT_EQ(serial.stats.rows_deleted, threaded.stats.rows_deleted);
  ExpectExactlyEqual(serial.repaired, threaded.repaired);
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, SubsetRepairFuzz,
                         ::testing::Range(0, 2 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
