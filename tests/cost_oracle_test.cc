// Independent oracles for the one pricing of a repair and for Lemma 3.
//
// RepairTallyFuzz checks TallyRepair (repair/subset.h), the one function
// that prices and counts a repair for the candidate search, the outcome
// stats, RepairCost and StrategyRepairCost, against
// reference::ReferenceRepairCost, a naive sum over every cell of two whole
// instances, on random instances and repairs under every strategy; and
// the repairs the engines return against the same oracle.
// HolisticSearchTest pins CVtolerant+Holistic, which prices each candidate
// from the diff of its instance, across thread counts and to the oracle.
//
// LowerBoundTest checks Lemma 3 as Algorithm 1 uses it: with bound pruning
// off and no call budget the search solves every candidate that is not
// hopeless, and no candidate's δ_l (the max over its members' facts)
// exceeds its solved cost. LowerBoundFuzz holds δ_l against
// ExactMinimumRepair of each candidate Σ' on Table 2's toy instances. That
// check is necessary but not sufficient: the exact search tries only the
// active domain and fresh values, while the solver may pick DC constants
// or out-of-domain interval values at count cost 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "data/census.h"
#include "data/dense.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "reference_scan.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/exact.h"
#include "repair/subset.h"
#include "repair/vfree.h"

namespace cvrepair {
namespace {

// CVREPAIR_FUZZ_ITERS scales the seed ranges (default 1x); the nightly
// workflow raises it. Read once at static-init time, when
// INSTANTIATE_TEST_SUITE_P evaluates its ranges.
int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

// ---------------------------------------------------------------------------
// The one pricing against the naive oracle.

// A random instance over (S string, T string, X int, Y double): few
// distinct values, so a repr_attr group and a repair's targets repeat, and
// about one NULL cell in ten.
Relation RandomInstance(std::mt19937_64* rng, int rows) {
  Schema schema;
  schema.AddAttribute("S", AttrType::kString);
  schema.AddAttribute("T", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  schema.AddAttribute("Y", AttrType::kDouble);
  Relation rel(schema);
  std::uniform_int_distribution<int> pick(0, 3);
  std::bernoulli_distribution null_cell(0.1);
  auto cell = [&](AttrId a) {
    if (null_cell(*rng)) return Value::Null();
    const int v = pick(*rng);
    switch (a) {
      case 0:
        return Value::String("s" + std::to_string(v));
      case 1:
        return Value::String(std::string(static_cast<size_t>(v + 1), 't'));
      case 2:
        return Value::Int(v);
      default:
        return Value::Double(0.5 * v);
    }
  };
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({cell(0), cell(1), cell(2), cell(3)});
  }
  return rel;
}

// A random repair of I: tombstoned rows (every non-NULL cell set to NULL)
// and, in the other rows, cells set to their own value, another value of
// their attribute, a fresh value or NULL. Each cell at most once, in a
// shuffled order.
std::vector<std::pair<Cell, Value>> RandomRepair(std::mt19937_64* rng,
                                                 const Relation& I) {
  std::vector<std::pair<Cell, Value>> out;
  std::bernoulli_distribution tombstone(0.15);
  std::bernoulli_distribution assign(0.3);
  std::uniform_int_distribution<int> kind(0, 3);
  int64_t fresh = 1;
  for (int r = 0; r < I.num_rows(); ++r) {
    const bool deleted = tombstone(*rng);
    for (AttrId a = 0; a < I.num_attributes(); ++a) {
      const Value& v = I.Get(r, a);
      if (deleted) {
        if (!v.is_null()) out.emplace_back(Cell{r, a}, Value::Null());
        continue;
      }
      if (!assign(*rng)) continue;
      switch (kind(*rng)) {
        case 0:
          out.emplace_back(Cell{r, a}, v);
          break;
        case 1: {
          std::uniform_int_distribution<int> row(0, I.num_rows() - 1);
          out.emplace_back(Cell{r, a}, I.Get(row(*rng), a));
          break;
        }
        case 2:
          out.emplace_back(Cell{r, a}, Value::Fresh(fresh++));
          break;
        default:
          out.emplace_back(Cell{r, a}, Value::Null());
      }
    }
  }
  std::shuffle(out.begin(), out.end(), *rng);
  return out;
}

Relation Apply(const Relation& I,
               const std::vector<std::pair<Cell, Value>>& assignments) {
  Relation out = I;
  for (const auto& [cell, value] : assignments) out.SetValue(cell, value);
  return out;
}

// The counts TallyRepair reports, the naive way over two whole instances.
RepairTally NaiveTally(const Relation& before, const Relation& after,
                       const CostModel& cost, RepairStrategy strategy,
                       const SubsetOptions& subset) {
  RepairTally t;
  t.cost = reference::ReferenceRepairCost(before, after, cost, strategy,
                                          subset);
  for (int r = 0; r < before.num_rows(); ++r) {
    if (strategy != RepairStrategy::kUpdate &&
        reference::Tombstoned(before, after, r)) {
      ++t.rows_deleted;
    }
    for (AttrId a = 0; a < before.num_attributes(); ++a) {
      if (before.Get(r, a) == after.Get(r, a)) continue;
      ++t.changed_cells;
      if (after.Get(r, a).is_fresh()) ++t.fresh_assignments;
    }
  }
  return t;
}

void ExpectSameTally(const RepairTally& got, const RepairTally& want) {
  EXPECT_EQ(got.cost, want.cost);  // the same terms in the same order
  EXPECT_EQ(got.changed_cells, want.changed_cells);
  EXPECT_EQ(got.fresh_assignments, want.fresh_assignments);
  EXPECT_EQ(got.rows_deleted, want.rows_deleted);
}

class RepairTallyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RepairTallyFuzz, TallyMatchesReferenceCost) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 104729 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    const Relation I =
        RandomInstance(&rng, std::uniform_int_distribution<int>(1, 14)(rng));
    const DomainStats stats(I);
    const std::vector<std::pair<Cell, Value>> repair = RandomRepair(&rng, I);
    const Relation after = Apply(I, repair);

    CellWeights weights;
    CostModel cost;
    cost.kind = static_cast<CostModel::Kind>(rng() % 3);
    cost.numeric_scale = 0.5 + static_cast<double>(rng() % 4);
    if (rng() % 2 == 0) {
      std::uniform_real_distribution<double> w(0.25, 3.0);
      for (int r = 0; r < I.num_rows(); ++r) {
        for (AttrId a = 0; a < I.num_attributes(); ++a) {
          if (rng() % 2 == 0) weights.Set(r, a, w(rng));
        }
      }
      cost.cell_weights = &weights;
    }
    SubsetOptions subset;
    subset.repr_attr = static_cast<AttrId>(rng() % 3) - 1;  // -1, 0 or 1
    subset.alpha = 0.5 * static_cast<double>(rng() % 4);
    subset.delete_base = 0.5 + static_cast<double>(rng() % 6);

    for (RepairStrategy strategy :
         {RepairStrategy::kUpdate, RepairStrategy::kDelete,
          RepairStrategy::kHybrid}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " strategy " +
                   RepairStrategyToString(strategy));
      const RepairTally want = NaiveTally(I, after, cost, strategy, subset);
      ExpectSameTally(TallyRepair(I, stats, repair, cost, strategy, subset),
                      want);
      ExpectSameTally(TallyRepair(I, stats, ChangedCells(I, after), cost,
                                  strategy, subset),
                      want);
      EXPECT_EQ(StrategyRepairCost(I, after, cost, strategy, subset, stats),
                want.cost);
      if (strategy == RepairStrategy::kUpdate) {
        EXPECT_EQ(RepairCost(I, after, cost), want.cost);
        EXPECT_EQ(ChangedCellCount(I, after), want.changed_cells);
      }
    }
  }
}

// What VfreeRepair and CVTolerantRepair report for the repairs they return
// is the oracle's count of those instances.
TEST_P(RepairTallyFuzz, EnginesReportTheReferenceCost) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
  const Relation I = RandomInstance(&rng, 10 + static_cast<int>(rng() % 6));
  const ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      DenialConstraint({Predicate::TwoCell(0, 2, Op::kGt, 1, 2),
                        Predicate::TwoCell(0, 3, Op::kLt, 1, 3)},
                       "order")};
  for (RepairStrategy strategy :
       {RepairStrategy::kUpdate, RepairStrategy::kDelete,
        RepairStrategy::kHybrid}) {
    SCOPED_TRACE("strategy " + RepairStrategyToString(strategy));
    VfreeOptions vfree;
    vfree.strategy = strategy;
    vfree.subset.delete_base = 1.5;
    if (rng() % 2 == 0) vfree.subset.repr_attr = 0;
    const RepairResult v = VfreeRepair(I, sigma, vfree);
    EXPECT_TRUE(reference::ReferenceViolations(v.repaired, sigma).empty());
    const RepairTally want_v =
        NaiveTally(I, v.repaired, vfree.cost, strategy, vfree.subset);
    EXPECT_EQ(v.stats.repair_cost, want_v.cost);
    EXPECT_EQ(v.stats.changed_cells, want_v.changed_cells);
    EXPECT_EQ(v.stats.fresh_assignments, want_v.fresh_assignments);
    EXPECT_EQ(v.stats.rows_deleted, want_v.rows_deleted);

    CVTolerantOptions options;
    options.vfree = vfree;
    options.threads = 1;
    const RepairResult c = CVTolerantRepair(I, sigma, options);
    EXPECT_TRUE(
        reference::ReferenceViolations(c.repaired, c.satisfied_constraints)
            .empty());
    const RepairTally want_c =
        NaiveTally(I, c.repaired, vfree.cost, strategy, vfree.subset);
    EXPECT_EQ(c.stats.repair_cost, want_c.cost);
    EXPECT_EQ(c.stats.changed_cells, want_c.changed_cells);
    EXPECT_EQ(c.stats.fresh_assignments, want_c.fresh_assignments);
    EXPECT_EQ(c.stats.rows_deleted, want_c.rows_deleted);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRepairs, RepairTallyFuzz,
                         ::testing::Range(0, 8 * FuzzScale()));

// ---------------------------------------------------------------------------
// Small θ-tolerant workloads: hosp, census, tax and dense.

struct Workload {
  std::string name;
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

std::vector<Workload> SmallFamilies() {
  std::vector<Workload> out;
  NoiseConfig noise;
  HospConfig hosp_config;
  hosp_config.num_hospitals = 4;
  HospData hosp = MakeHosp(hosp_config);
  noise.target_attrs = hosp.noise_attrs;
  out.push_back({"hosp", InjectNoise(hosp.clean, noise).dirty,
                 hosp.given_oversimplified, hosp.space});
  CensusConfig census_config;
  census_config.num_rows = 80;
  CensusData census = MakeCensus(census_config);
  noise.target_attrs = census.noise_attrs;
  out.push_back({"census", InjectNoise(census.clean, noise).dirty,
                 census.given, {}});
  TaxConfig tax_config;
  tax_config.num_rows = 60;
  TaxData tax = MakeTax(tax_config);
  noise.target_attrs = tax.noise_attrs;
  out.push_back({"tax", InjectNoise(tax.clean, noise).dirty, tax.given, {}});
  DenseConfig dense_config;
  dense_config.rows_per_track = 30;
  DenseData dense = MakeDense(dense_config);
  out.push_back({"dense", std::move(dense.dirty), std::move(dense.sigma), {}});
  return out;
}

// CVtolerant+Holistic (Figure 5, use_vfree = false) plans no window: each
// candidate runs HolisticRepair and is priced from the diff of its
// instance. Σ', the cells, the cost and the stats are the same at one and
// four threads, and the reported cost is the StrategyRepairCost of the
// returned instance, as the naive oracle prices it.
TEST(HolisticSearchTest, ThreadCountInvariantAndPricedAsTheOracle) {
  for (const Workload& w : SmallFamilies()) {
    if (w.name != "hosp" && w.name != "census") continue;
    SCOPED_TRACE(w.name);
    CVTolerantOptions options;
    options.variants.space = w.space;
    options.use_vfree = false;
    options.threads = 1;
    const RepairResult serial = CVTolerantRepair(w.dirty, w.sigma, options);
    options.threads = 4;
    const RepairResult threaded = CVTolerantRepair(w.dirty, w.sigma, options);
    EXPECT_TRUE(serial.satisfied_constraints ==
                threaded.satisfied_constraints);
    ASSERT_EQ(serial.repaired.num_rows(), threaded.repaired.num_rows());
    for (int r = 0; r < serial.repaired.num_rows(); ++r) {
      for (AttrId a = 0; a < serial.repaired.num_attributes(); ++a) {
        EXPECT_EQ(serial.repaired.Get(r, a), threaded.repaired.Get(r, a))
            << "t" << r << "." << a;
      }
    }
    RepairStats s = serial.stats;
    RepairStats t = threaded.stats;
    s.elapsed_seconds = t.elapsed_seconds = 0.0;
    EXPECT_EQ(s.ToString(), t.ToString());
    EXPECT_EQ(s.suspects, t.suspects);
    EXPECT_EQ(s.variants_hopeless, t.variants_hopeless);
    EXPECT_EQ(s.variants_pruned_nonmaximal, t.variants_pruned_nonmaximal);
    EXPECT_GT(s.datarepair_calls, 0);
    EXPECT_GT(s.changed_cells, 0);
    const VfreeOptions& v = options.vfree;
    EXPECT_EQ(s.repair_cost,
              StrategyRepairCost(w.dirty, serial.repaired, v.cost, v.strategy,
                                 v.subset, DomainStats(w.dirty)));
    EXPECT_EQ(s.repair_cost,
              reference::ReferenceRepairCost(w.dirty, serial.repaired, v.cost,
                                             v.strategy, v.subset));
  }
}

// ---------------------------------------------------------------------------
// Lemma 3: δ_l never exceeds a candidate's repair cost.

// The facts and the search of one θ-tolerant repair with bound pruning off
// and no call budget.
struct UnprunedSearch {
  VariantFamily family;
  std::vector<VariantFacts> facts;
  VariantSearchResult result;
};

UnprunedSearch SearchEveryCandidate(const Relation& I,
                                    const ConstraintSet& sigma,
                                    CVTolerantOptions options) {
  options.enable_bound_pruning = false;
  options.max_datarepair_calls = std::numeric_limits<int>::max();
  options.threads = 1;
  UnprunedSearch s;
  s.family = EnumerateVariants(I, sigma, options);
  const EncodedRelation E(I);
  const DomainStats stats(I);
  s.facts = ScanVariantFacts(I, stats, s.family, options, E);
  int64_t fresh = 1;
  s.result = CVTolerantSearchWithFacts(I, stats, s.family, s.facts, options,
                                       &fresh, E);
  return s;
}

// δ_l of variant `vi`: the max over its members' facts.
double DeltaL(const UnprunedSearch& s, size_t vi) {
  double delta_l = 0.0;
  for (int k : s.family.members[vi]) {
    delta_l = std::max(delta_l, s.facts[static_cast<size_t>(k)].delta_l);
  }
  return delta_l;
}

// The candidates whose δ_l exceeds their solved cost, as text; `solved`
// counts the candidates checked.
std::string DeltaLAboveSolvedCost(const UnprunedSearch& s, int* solved) {
  std::string over;
  for (size_t vi = 0; vi < s.family.variants.size(); ++vi) {
    const double cost = s.result.solved_costs[vi];
    if (std::isnan(cost)) continue;
    ++*solved;
    const double delta_l = DeltaL(s, vi);
    if (delta_l > cost + 1e-9) {
      over += " variant " + std::to_string(vi) + ": delta_l " +
              std::to_string(delta_l) + " > cost " + std::to_string(cost) +
              ";";
    }
  }
  return over;
}

TEST(LowerBoundTest, DeltaLNeverExceedsSolvedCostUnderUpdate) {
  for (const Workload& w : SmallFamilies()) {
    SCOPED_TRACE(w.name);
    CVTolerantOptions options;
    options.variants.space = w.space;
    const UnprunedSearch s = SearchEveryCandidate(w.dirty, w.sigma, options);
    int solved = 0;
    EXPECT_EQ(DeltaLAboveSolvedCost(s, &solved), "");
    EXPECT_GT(solved, 0);
    // Nothing but the cap prunes: every candidate is solved or hopeless.
    EXPECT_EQ(s.result.datarepair_calls + s.result.variants_pruned,
              static_cast<int>(s.family.variants.size()));
  }
}

TEST(LowerBoundTest, DeltaLAgainstSolvedCostUnderDeleteAndHybrid) {
  for (const Workload& w : SmallFamilies()) {
    for (RepairStrategy strategy :
         {RepairStrategy::kDelete, RepairStrategy::kHybrid}) {
      SCOPED_TRACE(w.name + " " + RepairStrategyToString(strategy));
      CVTolerantOptions options;
      options.variants.space = w.space;
      options.vfree.strategy = strategy;
      const UnprunedSearch s = SearchEveryCandidate(w.dirty, w.sigma, options);
      int solved = 0;
      EXPECT_EQ(DeltaLAboveSolvedCost(s, &solved), "");
      EXPECT_GT(solved, 0);
    }
  }
}

class LowerBoundFuzz : public ::testing::TestWithParam<int> {};

// Table 2's toy instances (bench/tab02_approximation_factors.cc): δ_l of
// every candidate of the θ = 1 family is at most the exact minimum repair
// of that candidate.
TEST_P(LowerBoundFuzz, Table2DeltaLAtMostExactOptimum) {
  int compared = 0;
  for (const bench::Table2Class& c : bench::Table2Classes()) {
    std::mt19937_64 rng(c.seed + static_cast<uint64_t>(GetParam()));
    for (int t = 0; t < 3; ++t) {
      const Relation I = bench::Table2Instance(&rng, c.rows);
      CVTolerantOptions options;
      const VariantFamily family = EnumerateVariants(I, c.sigma, options);
      const EncodedRelation E(I);
      const DomainStats stats(I);
      const std::vector<VariantFacts> facts =
          ScanVariantFacts(I, stats, family, options, E);
      for (size_t vi = 0; vi < family.variants.size(); ++vi) {
        double delta_l = 0.0;
        for (int k : family.members[vi]) {
          delta_l = std::max(delta_l, facts[static_cast<size_t>(k)].delta_l);
        }
        const ConstraintSet& variant = family.variants[vi].constraints;
        const std::optional<RepairResult> exact =
            ExactMinimumRepair(I, variant);
        if (!exact) continue;
        ++compared;
        EXPECT_LE(delta_l, exact->stats.repair_cost + 1e-9)
            << c.name << " trial " << t << ": "
            << ToString(variant, I.schema());
      }
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Table2Instances, LowerBoundFuzz,
                         ::testing::Range(0, 2 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
