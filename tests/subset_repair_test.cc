// Subset repair (repair/subset.h): tuple deletion as weighted vertex
// cover over the conflict hypergraph's tuple projection, the hybrid
// update-or-delete rule, and the strategy equivalence contracts — delete
// and hybrid must produce violation-free instances on hosp/census, serial
// and threaded, bit-identical across every axis, and the streamed variant
// must match a from-scratch dirty-component solve.
#include "repair/subset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
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
  ScopedRepair result = SubsetCoverRepair(rel, stats, {violations}, options);
  EXPECT_EQ(result.components, 1);
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
  EXPECT_TRUE(reference::Tombstoned(rel, repaired, 1));
  EXPECT_FALSE(reference::Tombstoned(rel, repaired, 0));
}

TEST(SubsetRepairTest, CoverPrefersCheaperRowsUnderWeights) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  // One edge {0, 3}: row 0 ("big" group, cheap) vs row 3 ("rare" group,
  // expensive). The cover must delete the cheap row.
  std::vector<Violation> violations = {{0, {0, 3}}};
  SubsetOptions options;
  options.repr_attr = 0;
  ScopedRepair result = SubsetCoverRepair(rel, stats, {violations}, options);
  ASSERT_EQ(result.components, 1);
  EXPECT_EQ(result.assignments.front().first.row, 0);
}

TEST(SubsetRepairTest, SingleTupleViolationForcesItsRow) {
  Relation rel = GroupedRelation();
  DomainStats stats(rel);
  std::vector<Violation> violations = {{0, {2}}};
  ScopedRepair result =
      SubsetCoverRepair(rel, stats, {violations}, SubsetOptions{});
  ASSERT_EQ(result.components, 1);
  EXPECT_EQ(result.assignments.front().first.row, 2);
}

// The delete strategy's plan of a DataRepair round is the tuple cover, and
// the replay returns its tombstones, or nothing past the Alg. 2 cost
// bound. The replay counts no deleted rows; the tally of the repair does.
TEST(SubsetRepairTest, DeletePlanReplaysTheTupleCover) {
  Relation rel = GroupedRelation();
  const DomainStats stats(rel);
  const EncodedRelation E(rel);
  const std::vector<Violation> violations = {
      {0, {0, 1}}, {0, {1, 2}}, {0, {1, 3}}};
  const ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, 1, Op::kNeq, 1, 1)})};
  VfreeOptions options;
  options.strategy = RepairStrategy::kDelete;
  const ComponentPlan plan =
      PlanDirtyComponents(rel, stats, sigma, {violations}, options, E);
  ASSERT_TRUE(plan.deletion.has_value());
  EXPECT_TRUE(plan.components.empty());
  EXPECT_EQ(plan.deletion->components, 1);

  RepairStats replay_stats;
  int64_t fresh = 1;
  const double inf = std::numeric_limits<double>::infinity();
  std::optional<ScopedRepair> scoped =
      ReplayComponents(rel, stats, plan, inf, options, /*cache=*/nullptr,
                       &replay_stats, &fresh);
  ASSERT_TRUE(scoped.has_value());
  EXPECT_TRUE(scoped->assignments == plan.deletion->assignments);
  EXPECT_DOUBLE_EQ(scoped->cost, options.subset.delete_base);
  EXPECT_EQ(scoped->components, 1);
  EXPECT_EQ(replay_stats.rows_deleted, 0);
  EXPECT_EQ(fresh, 1);
  const RepairTally tally =
      TallyRepair(rel, stats, scoped->assignments, options.cost,
                  options.strategy, options.subset);
  EXPECT_EQ(tally.rows_deleted, 1);
  EXPECT_EQ(tally.changed_cells, 2);
  EXPECT_EQ(tally.cost, scoped->cost);

  RepairStats aborted_stats;
  const double below = options.subset.delete_base / 2;
  EXPECT_FALSE(ReplayComponents(rel, stats, plan, below, options,
                                /*cache=*/nullptr, &aborted_stats, &fresh)
                   .has_value());
  EXPECT_EQ(aborted_stats.rows_deleted, 0);
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
  EXPECT_TRUE(reference::Tombstoned(f.rel, result.repaired, 0));
  EXPECT_FALSE(reference::Tombstoned(f.rel, result.repaired, 1));
  EXPECT_DOUBLE_EQ(result.stats.repair_cost, 1.5);
  EXPECT_TRUE(FindViolations(result.repaired, f.sigma).empty());
}

// The variant search prices a hybrid candidate from its scoped repair,
// without building the repaired instance: the tombstoned row must cost its
// deletion weight, exactly as StrategyRepairCost and the naive oracle
// price the instance.
TEST(SubsetRepairTest, HybridSearchPricesTombstoneAtItsWeight) {
  HybridFixture f = MakeHybridFixture();
  CVTolerantOptions options;
  options.variants.theta = 0.0;
  options.vfree.strategy = RepairStrategy::kHybrid;
  options.vfree.subset.delete_base = 1.5;
  const VariantFamily family = EnumerateVariants(f.rel, f.sigma, options);
  const EncodedRelation E(f.rel);
  const DomainStats stats(f.rel);
  const std::vector<VariantFacts> facts =
      ScanVariantFacts(f.rel, stats, family, options, E);
  int64_t fresh = 1;
  const VariantSearchResult sr = CVTolerantSearchWithFacts(
      f.rel, stats, family, facts, options, &fresh, E);
  ASSERT_TRUE(sr.have_result);
  EXPECT_TRUE(reference::Tombstoned(f.rel, sr.repaired, 0));
  EXPECT_DOUBLE_EQ(sr.cost, 1.5);
  EXPECT_EQ(sr.cost, StrategyRepairCost(f.rel, sr.repaired, options.vfree.cost,
                                        RepairStrategy::kHybrid,
                                        options.vfree.subset, stats));
  EXPECT_EQ(sr.cost, reference::ReferenceRepairCost(
                         f.rel, sr.repaired, options.vfree.cost,
                         RepairStrategy::kHybrid, options.vfree.subset));
}

TEST(SubsetRepairTest, HybridKeepsRowWhenUpdateIsCheaper) {
  HybridFixture f = MakeHybridFixture();
  VfreeOptions options;
  options.strategy = RepairStrategy::kHybrid;
  options.subset.delete_base = 5.0;  // update cost 3 < weight 5: keep
  RepairResult result = VfreeRepair(f.rel, f.sigma, options);
  EXPECT_EQ(result.stats.rows_deleted, 0);
  EXPECT_FALSE(reference::Tombstoned(f.rel, result.repaired, 0));
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
  EXPECT_TRUE(reference::Tombstoned(f.rel, result.repaired, 0));
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
    CanonicalizeViolations(&violations);

    DomainStats stats_of_W(W);
    RepairStats scratch_stats;
    int64_t scratch_fresh = 1000000;
    std::optional<ScopedRepair> fix = SolveDirtyComponents(
        W, stats_of_W, streamer.variant(),
        ViewsByPosition(violations, streamer.variant().size()),
        std::numeric_limits<double>::infinity(), options.repair.vfree,
        /*cache=*/nullptr, &scratch_stats, &scratch_fresh, E);
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
// Deletion oracle: on toy instances of at most 12 tuples, brute force finds
// the minimum-weight row set whose tombstoning satisfies Σ. The greedy
// cover is a weighted set cover over the violations, so its cost lies
// between that optimum and H(Δ) times it, where Δ is the most violations
// sharing one row.

struct ToyInstance {
  std::string name;
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
  AttrId group_attr;  // a repr_attr for representation-cost weights
};

std::vector<ToyInstance> MakeToyInstances(uint64_t seed) {
  std::vector<ToyInstance> out;
  NoiseConfig noise;
  noise.error_rate = 0.2;
  noise.seed += seed;
  HospConfig hosp_config;
  hosp_config.num_hospitals = 3;
  hosp_config.measures_per_hospital = 4;
  HospData hosp = MakeHosp(hosp_config);
  noise.target_attrs = hosp.noise_attrs;
  out.push_back({"hosp", InjectNoise(hosp.clean, noise).dirty,
                 hosp.given_oversimplified, hosp.space, HospAttrs::kCity});
  TaxConfig tax_config;
  tax_config.num_rows = 12;
  tax_config.num_states = 3;
  TaxData tax = MakeTax(tax_config);
  noise.target_attrs = tax.noise_attrs;
  out.push_back({"tax", InjectNoise(tax.clean, noise).dirty, tax.given, {},
                 TaxAttrs::kState});
  CensusConfig census_config;
  census_config.num_rows = 12;
  census_config.num_attributes = 8;
  CensusData census = MakeCensus(census_config);
  noise.target_attrs = census.noise_attrs;
  out.push_back({"census", InjectNoise(census.clean, noise).dirty,
                 census.given, {}, CensusAttrs::kEducation});
  return out;
}

// The least total deletion weight of a row set whose tombstoning (every
// cell NULL) makes I satisfy sigma: every row subset, cheapest first.
double MinimumDeletionCost(const Relation& I, const ConstraintSet& sigma,
                           const SubsetOptions& options) {
  const int n = I.num_rows();
  const DomainStats stats(I);
  std::vector<double> weight(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    weight[static_cast<size_t>(r)] = RowDeletionWeight(I, stats, r, options);
  }
  std::vector<std::pair<double, uint32_t>> subsets;
  for (uint32_t mask = 0; mask < (uint32_t{1} << n); ++mask) {
    double w = 0.0;
    for (int r = 0; r < n; ++r) {
      if ((mask >> r) & 1) w += weight[static_cast<size_t>(r)];
    }
    subsets.push_back({w, mask});
  }
  std::sort(subsets.begin(), subsets.end());
  for (const auto& [w, mask] : subsets) {
    Relation tombstoned = I;
    for (int r = 0; r < n; ++r) {
      if (((mask >> r) & 1) == 0) continue;
      for (AttrId a = 0; a < I.num_attributes(); ++a) {
        tombstoned.SetValue(r, a, Value::Null());
      }
    }
    if (Satisfies(tombstoned, sigma)) return w;
  }
  ADD_FAILURE() << "deleting every row must satisfy any constraint set";
  return 0.0;
}

// H(Δ): the harmonic number of the most violations sharing one row.
double GreedyCoverFactor(const std::vector<Violation>& violations, int n) {
  std::vector<int> per_row(static_cast<size_t>(n), 0);
  int delta = 0;
  for (const Violation& v : violations) {
    std::vector<int> rows = v.rows;
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (int r : rows) {
      delta = std::max(delta, ++per_row[static_cast<size_t>(r)]);
    }
  }
  double h = 0.0;
  for (int k = 1; k <= delta; ++k) h += 1.0 / k;
  return h;
}

TEST(SubsetRepairTest, DeleteOracleBoundsVfreeOnToyInstances) {
  int with_violations = 0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    for (const ToyInstance& t : MakeToyInstances(seed)) {
      ASSERT_LE(t.dirty.num_rows(), 12);
      for (bool weighted : {false, true}) {
        SCOPED_TRACE(t.name + " seed " + std::to_string(seed) +
                     (weighted ? " weighted" : " flat"));
        VfreeOptions options;
        options.strategy = RepairStrategy::kDelete;
        if (weighted) options.subset.repr_attr = t.group_attr;
        const RepairResult result = VfreeRepair(t.dirty, t.sigma, options);
        EXPECT_TRUE(
            reference::ReferenceViolations(result.repaired, t.sigma).empty());
        const double optimum =
            MinimumDeletionCost(t.dirty, t.sigma, options.subset);
        const std::vector<Violation> violations =
            FindViolations(t.dirty, t.sigma);
        if (!violations.empty()) ++with_violations;
        const double factor =
            GreedyCoverFactor(violations, t.dirty.num_rows());
        EXPECT_GE(result.stats.repair_cost, optimum - 1e-9);
        EXPECT_LE(result.stats.repair_cost, factor * optimum + 1e-9)
            << "optimum " << optimum << ", H(delta) " << factor;
      }
    }
  }
  // Most toy instances must have something to repair.
  EXPECT_GE(with_violations, 12);
}

TEST(SubsetRepairTest, DeleteOracleBoundsCVTolerantOnToyInstances) {
  for (uint64_t seed = 0; seed < 3; ++seed) {
    for (const ToyInstance& t : MakeToyInstances(seed)) {
      for (bool weighted : {false, true}) {
        SCOPED_TRACE(t.name + " seed " + std::to_string(seed) +
                     (weighted ? " weighted" : " flat"));
        CVTolerantOptions options;
        options.variants.space = t.space;
        options.vfree.strategy = RepairStrategy::kDelete;
        if (weighted) options.vfree.subset.repr_attr = t.group_attr;
        const RepairResult result =
            CVTolerantRepair(t.dirty, t.sigma, options);
        const ConstraintSet& chosen = result.satisfied_constraints;
        EXPECT_TRUE(
            reference::ReferenceViolations(result.repaired, chosen).empty());
        EXPECT_GE(result.stats.repair_cost,
                  MinimumDeletionCost(t.dirty, chosen,
                                      options.vfree.subset) -
                      1e-9);
      }
    }
  }
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
