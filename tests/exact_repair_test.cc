#include "repair/exact.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

#include "bench/bench_util.h"
#include "paper_example.h"
#include "graph/bounds.h"
#include "repair/vfree.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi2;
using testing_fixture::Phi4Prime;

TEST(ExactRepairTest, Phi4PrimeOptimumIsOneCell) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel)};
  std::optional<RepairResult> r = ExactMinimumRepair(rel, sigma);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(Satisfies(r->repaired, sigma));
  // Example 4: the minimum repair sets t4.Tax := 0 — exactly cost 1.
  EXPECT_DOUBLE_EQ(r->stats.repair_cost, 1.0);
  EXPECT_EQ(r->stats.changed_cells, 1);
}

TEST(ExactRepairTest, CleanInstanceCostsNothing) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId income = *rel.schema().Find("Income");
  ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, tax, Op::kGt, 0, income)})};
  std::optional<RepairResult> r = ExactMinimumRepair(rel, sigma);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->stats.repair_cost, 0.0);
  EXPECT_EQ(r->stats.changed_cells, 0);
}

TEST(ExactRepairTest, RefusesLargeInstances) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {testing_fixture::Phi1(rel)};
  ExactRepairOptions options;
  options.max_violation_cells = 4;  // φ1 has far more violation cells
  EXPECT_FALSE(ExactMinimumRepair(rel, sigma, options).has_value());
}

// Vfree's cost lies between the optimum and Theorem 7's d·Deg(Σ) times it,
// with d = fresh_cost / min dist(a, b) = 1.1 under the count model, and
// Lemma 3's bounds bracket the optimum. False when the instance is too
// large to solve exactly.
bool CheckAgainstOptimum(const Relation& rel, const ConstraintSet& sigma,
                         const ExactRepairOptions& options,
                         const std::string& context) {
  std::optional<RepairResult> exact = ExactMinimumRepair(rel, sigma, options);
  if (!exact.has_value()) return false;
  const double optimum = exact->stats.repair_cost;
  const double factor = CostModel().fresh_cost * Degree(sigma);
  RepairResult heuristic = VfreeRepair(rel, sigma);
  EXPECT_GE(heuristic.stats.repair_cost, optimum - 1e-9) << context;
  EXPECT_LE(heuristic.stats.repair_cost, factor * optimum + 1e-9) << context;
  RepairCostBounds bounds = ComputeBounds(rel, sigma);
  EXPECT_LE(bounds.lower, optimum + 1e-9) << context;
  EXPECT_GE(bounds.upper, optimum - 1e-9) << context;
  return true;
}

TEST(ExactRepairTest, HeuristicNeverBeatsTheOptimum) {
  Relation rel = PaperIncomeRelation();
  ExactRepairOptions options;
  options.max_violation_cells = 20;  // φ2 touches 18 cells
  EXPECT_TRUE(CheckAgainstOptimum(rel, {Phi4Prime(rel)}, options, "phi4'"));
  EXPECT_TRUE(CheckAgainstOptimum(rel, {Phi2(rel)}, options, "phi2"));

  // Table 2's random instances (bench/tab02_approximation_factors.cc).
  for (const bench::Table2Class& c : bench::Table2Classes()) {
    std::mt19937_64 rng(c.seed);
    int solved = 0;
    for (int t = 0; t < c.trials; ++t) {
      Relation instance = bench::Table2Instance(&rng, c.rows);
      const std::string context =
          std::string(c.name) + " trial " + std::to_string(t);
      if (CheckAgainstOptimum(instance, c.sigma, {}, context)) ++solved;
    }
    EXPECT_GT(solved, c.trials / 2) << c.name;
  }
}

TEST(ExactRepairTest, PrefersInDomainOverFresh) {
  // A single-tuple DC with an in-domain fix available: the optimum must
  // not pay the fresh-variable premium.
  Schema schema;
  schema.AddAttribute("X", AttrType::kInt);
  Relation rel(schema);
  rel.AddRow({Value::Int(10)});
  rel.AddRow({Value::Int(2)});
  ConstraintSet sigma = {DenialConstraint(
      {Predicate::WithConstant(0, 0, Op::kGt, Value::Int(5))})};
  std::optional<RepairResult> r = ExactMinimumRepair(rel, sigma);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->stats.repair_cost, 1.0);
  EXPECT_EQ(r->repaired.Get(0, 0), Value::Int(2));
}

}  // namespace
}  // namespace cvrepair
