#include "repair/cvtolerant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "dc/violation.h"
#include "paper_example.h"
#include "relation/encoded.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi2;
using testing_fixture::Phi3;
using testing_fixture::Phi4;
using testing_fixture::Phi4Prime;

CVTolerantOptions Options(double theta) {
  CVTolerantOptions o;
  o.variants.theta = theta;
  return o;
}

TEST(CVTolerantTest, Example4RepairsOversimplifiedTaxDc) {
  // Σ = {φ4} (Tax <=). With θ = 1 the substitution to φ4' costs 0.5, and
  // the minimum repair under φ4' changes only t4.Tax := 0 — instead of
  // the 5-cell fresh-variable mess of Example 3.
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4(rel)};
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_EQ(r.stats.changed_cells, 1);
  AttrId tax = *rel.schema().Find("Tax");
  EXPECT_DOUBLE_EQ(r.repaired.Get(3, tax).numeric(), 0.0);
  // The chosen variant is a refinement of φ4.
  EXPECT_TRUE(IsRefinedBy(sigma, r.satisfied_constraints));
}

TEST(CVTolerantTest, OversimplifiedFdGetsRefined) {
  // Σ = {φ1} (Name -> CP). θ = 1 allows one insertion; the Δ-minimum
  // insertion is Birthday (the three starred cells repair cheaply), not
  // the oversimplified repair of Figure 1(b).
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel)};
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_LE(r.stats.changed_cells, 3);
  EXPECT_GT(r.stats.variants_enumerated, 1);
  // Compared to no tolerance (θ=0): fewer changed cells.
  RepairResult r0 = CVTolerantRepair(rel, sigma, Options(0.0));
  EXPECT_GT(r0.stats.changed_cells, r.stats.changed_cells);
}

TEST(CVTolerantTest, ThetaZeroEqualsPlainRepair) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi2(rel)};
  CVTolerantOptions options = Options(0.0);
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  // Precise constraints + θ=0: behaves like Vfree on Σ itself (possibly
  // better via deletion variants, but Δ-min keeps Σ's 3-cell repair).
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  EXPECT_EQ(r.stats.changed_cells, 3);
}

TEST(CVTolerantTest, NegativeThetaDeletesExcessivePredicate) {
  // Σ = {φ3} (Name, Year, Birthday -> CP): overrefined, misses the
  // dirty cells of t5 and t8 (Figure 1(d) catches only t2). θ = -1
  // forces two deletions; the Δ-minimum choice drops Name= and Year=,
  // leaving Birthday -> CP, which repairs all three starred cells.
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi3(rel)};
  // Without tolerance only <t2,t3> is caught (Figure 1(d)): one cell.
  RepairResult none = VfreeRepair(rel, sigma);
  EXPECT_EQ(none.stats.changed_cells, 1);

  CVTolerantOptions options = Options(-1.0);
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_GE(r.stats.changed_cells, 1);
  AttrId cp = *rel.schema().Find("CP");
  EXPECT_EQ(r.repaired.Get(1, cp), Value::String("564-389"));
  EXPECT_EQ(r.repaired.Get(4, cp), Value::String("930-198"));
  EXPECT_EQ(r.repaired.Get(7, cp), Value::String("824-870"));
}

TEST(CVTolerantTest, BoundPruningSkipsCostlyVariants) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4(rel)};
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  RepairResult with = CVTolerantRepair(rel, sigma, options);
  options.enable_bound_pruning = false;
  RepairResult without = CVTolerantRepair(rel, sigma, options);
  // Same answer, pruning strictly reduces DataRepair calls.
  EXPECT_EQ(with.stats.changed_cells, without.stats.changed_cells);
  EXPECT_LE(with.stats.datarepair_calls, without.stats.datarepair_calls);
  EXPECT_GT(with.stats.variants_pruned_bounds, 0);
}

TEST(CVTolerantTest, SharingReusesComponentSolutions) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel), Phi4(rel)};
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  options.enable_bound_pruning = false;  // force many DataRepair calls
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_GT(r.stats.cache_hits, 0) << "sharing must kick in across variants";
}

TEST(CVTolerantTest, HolisticEngineVariant) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4(rel)};
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  options.use_vfree = false;
  RepairResult r = CVTolerantRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_LE(r.stats.changed_cells, 2);
}

TEST(CVTolerantTest, CleanDataStaysClean) {
  Relation rel = PaperIncomeRelation();
  // φ2 with the starred cells already repaired: no violations at all.
  AttrId cp = *rel.schema().Find("CP");
  rel.SetValue(1, cp, Value::String("564-389"));
  rel.SetValue(4, cp, Value::String("930-198"));
  rel.SetValue(7, cp, Value::String("824-870"));
  CVTolerantOptions options = Options(1.0);
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, {Phi2(rel)}, options);
  EXPECT_EQ(r.stats.changed_cells, 0);
}

// Facts for one constraint of the paper example: its real violations
// (canonical rows order) with hand-set δ bounds.
VariantFacts HandFacts(const Relation& rel, const DenialConstraint& c,
                       double delta_l, double delta_u) {
  VariantFacts f;
  f.violations = FindViolationsOf(EncodedRelation(rel), c);
  std::sort(f.violations.begin(), f.violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.rows < b.rows;
            });
  f.delta_l = delta_l;
  f.delta_u = delta_u;
  return f;
}

struct WindowRun {
  VariantSearchResult search;
  RepairStats stats;
  MetricsSnapshot work;
  int64_t plans_built = 0;
  int64_t plans_discarded = 0;
};

// One search over four hand-built candidates in δ_l order φ4' (0), φ4
// (500), φ2 (600), φ3 (700), with δ_min seeded at δ_u(Σ = {φ4}) = 1000.
// φ4' repairs for far less than 500, so every later candidate is
// bound-pruned once its replay comes — after a wide window planned it.
WindowRun RunWindowSearch(int threads, const CVTolerantOptions& base) {
  Relation rel = PaperIncomeRelation();
  const DenialConstraint phi4 = Phi4(rel);
  const DenialConstraint phi4p = Phi4Prime(rel);
  const DenialConstraint phi2 = Phi2(rel);
  const DenialConstraint phi3 = Phi3(rel);
  std::map<DenialConstraint, VariantFacts> hand;
  hand[phi4p] = HandFacts(rel, phi4p, 0.0, 2.0);
  hand[phi4] = HandFacts(rel, phi4, 500.0, 1000.0);
  hand[phi2] = HandFacts(rel, phi2, 600.0, 1000.0);
  hand[phi3] = HandFacts(rel, phi3, 700.0, 1000.0);
  const VariantFamily family(
      {phi4}, {{{phi3}, 0.0}, {{phi4}, 0.0}, {{phi2}, 0.0}, {{phi4p}, 0.0}});
  std::vector<VariantFacts> facts;
  for (const DenialConstraint& c : family.constraints) {
    facts.push_back(hand.at(c));
  }

  ThreadPool::SetNumThreads(threads);
  CVTolerantOptions options = base;
  options.threads = threads;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.ResetAll();
  WindowRun run;
  int64_t fresh = 1;
  const EncodedRelation encoded(rel);
  run.search =
      CVTolerantSearchWithFacts(rel, DomainStats(rel), family, facts,
                                options, &fresh, encoded, &run.stats);
  run.work = registry.SnapshotWork();
  MetricsSnapshot all = registry.SnapshotAll();
  run.plans_built = all["search.plans_built"];
  run.plans_discarded = all["search.plans_discarded"];
  return run;
}

bool SameDouble(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

void ExpectSameRun(const WindowRun& a, const WindowRun& b,
                   const std::string& context) {
  SCOPED_TRACE(context);
  const VariantSearchResult& x = a.search;
  const VariantSearchResult& y = b.search;
  ASSERT_EQ(x.have_result, y.have_result);
  EXPECT_TRUE(x.variant == y.variant);
  EXPECT_EQ(x.cost, y.cost);
  ASSERT_EQ(x.repaired.num_rows(), y.repaired.num_rows());
  for (int r = 0; r < x.repaired.num_rows(); ++r) {
    for (AttrId attr = 0; attr < x.repaired.num_attributes(); ++attr) {
      EXPECT_EQ(x.repaired.Get(r, attr), y.repaired.Get(r, attr))
          << "t" << r << "." << attr;
    }
  }
  EXPECT_EQ(x.datarepair_calls, y.datarepair_calls);
  EXPECT_EQ(x.variants_pruned, y.variants_pruned);
  ASSERT_EQ(x.solved_costs.size(), y.solved_costs.size());
  for (size_t i = 0; i < x.solved_costs.size(); ++i) {
    EXPECT_TRUE(SameDouble(x.solved_costs[i], y.solved_costs[i])) << i;
    EXPECT_TRUE(SameDouble(x.abort_bounds[i], y.abort_bounds[i])) << i;
  }
  const RepairStats& s = a.stats;
  const RepairStats& t = b.stats;
  EXPECT_EQ(s.rounds, t.rounds);
  EXPECT_EQ(s.solver_calls, t.solver_calls);
  EXPECT_EQ(s.cache_hits, t.cache_hits);
  EXPECT_EQ(s.fresh_assignments, t.fresh_assignments);
  EXPECT_EQ(s.changed_cells, t.changed_cells);
  EXPECT_EQ(s.repair_cost, t.repair_cost);
  EXPECT_EQ(s.initial_violations, t.initial_violations);
  EXPECT_EQ(s.suspects, t.suspects);
  EXPECT_EQ(s.rows_deleted, t.rows_deleted);
  EXPECT_EQ(s.components_split, t.components_split);
  EXPECT_EQ(s.stitch_merges, t.stitch_merges);
  EXPECT_EQ(s.giant_component_cells, t.giant_component_cells);
  EXPECT_EQ(s.variants_enumerated, t.variants_enumerated);
  EXPECT_EQ(s.variants_pruned_bounds, t.variants_pruned_bounds);
  EXPECT_EQ(s.variants_hopeless, t.variants_hopeless);
  EXPECT_EQ(s.datarepair_calls, t.datarepair_calls);
  EXPECT_EQ(s.bound_memo_hits, t.bound_memo_hits);
  EXPECT_EQ(a.work, b.work);
}

// A plan built for a candidate that is bound-pruned by the time its replay
// comes is dropped without a trace: output, stats and work counters match
// the one-thread run at every window width. At one thread the window holds
// one candidate, so every DataRepair call replays a plan and none is
// discarded.
TEST(CVTolerantSearchWindowTest, DiscardedPlansLeaveNoTrace) {
  const int saved = ThreadPool::num_threads();
  const CVTolerantOptions options;
  WindowRun serial = RunWindowSearch(1, options);
  ASSERT_TRUE(serial.search.have_result);
  EXPECT_LT(serial.search.cost, 500.0) << "φ4' must undercut δ_l(φ4)";
  EXPECT_EQ(serial.search.datarepair_calls, 1);
  EXPECT_EQ(serial.search.variants_pruned, 3);
  EXPECT_EQ(serial.plans_built, serial.search.datarepair_calls);
  EXPECT_EQ(serial.plans_discarded, 0);
  for (int threads : {2, 4}) {
    WindowRun parallel = RunWindowSearch(threads, options);
    ExpectSameRun(serial, parallel, std::to_string(threads) + " threads");
    EXPECT_GE(parallel.plans_built, 2);
    if (threads == 4) {
      EXPECT_GE(parallel.plans_discarded, 1);
    }
  }
  ThreadPool::SetNumThreads(saved);
}

// The window never plans past the DataRepair budget: with 3 calls left
// and 4 threads, exactly the 3 candidates the budget admits are planned.
TEST(CVTolerantSearchWindowTest, WindowStopsAtCallBudget) {
  const int saved = ThreadPool::num_threads();
  CVTolerantOptions options;
  options.enable_bound_pruning = false;
  options.max_datarepair_calls = 3;
  WindowRun serial = RunWindowSearch(1, options);
  WindowRun parallel = RunWindowSearch(4, options);
  ExpectSameRun(serial, parallel, "budget 3");
  EXPECT_EQ(parallel.search.datarepair_calls, 3);
  EXPECT_EQ(parallel.plans_built, 3);
  EXPECT_EQ(parallel.plans_discarded, 0);
  ThreadPool::SetNumThreads(saved);
}

// Under the delete strategy the window plans tuple covers. δ_min starts
// at +∞ there, so the first window takes the next `threads` candidates;
// φ4''s deletions undercut δ_l(φ4) and prune the rest. The search is the
// same at every width, and at one thread the one DataRepair call replays
// the one plan built.
TEST(CVTolerantSearchWindowTest, DeleteStrategyPlansInTheWindow) {
  const int saved = ThreadPool::num_threads();
  CVTolerantOptions options;
  options.vfree.strategy = RepairStrategy::kDelete;
  WindowRun serial = RunWindowSearch(1, options);
  ASSERT_TRUE(serial.search.have_result);
  EXPECT_GT(serial.stats.rows_deleted, 0);
  EXPECT_EQ(serial.search.datarepair_calls, 1);
  EXPECT_EQ(serial.plans_built, 1);
  EXPECT_EQ(serial.plans_discarded, 0);
  for (int threads : {2, 4}) {
    WindowRun parallel = RunWindowSearch(threads, options);
    ExpectSameRun(serial, parallel, std::to_string(threads) + " threads");
    EXPECT_GE(parallel.plans_built, 2);
  }
  ThreadPool::SetNumThreads(saved);
}

}  // namespace
}  // namespace cvrepair
