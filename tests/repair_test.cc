#include <gtest/gtest.h>

#include <random>

#include "paper_example.h"
#include "relation/encoded.h"
#include "repair/greedy.h"
#include "repair/holistic.h"
#include "repair/vfree.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi2;
using testing_fixture::Phi4;
using testing_fixture::Phi4Prime;

TEST(VfreeTest, RepairsPhi4PrimeWithSingleCellChange) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel)};
  RepairResult r = VfreeRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  // The minimum repair sets t4.Tax := 0 (Example 4): exactly one cell.
  EXPECT_EQ(r.stats.changed_cells, 1);
  AttrId tax = *rel.schema().Find("Tax");
  EXPECT_DOUBLE_EQ(r.repaired.Get(3, tax).numeric(), 0.0);
  EXPECT_EQ(r.stats.rounds, 1);
  EXPECT_EQ(r.stats.initial_violations, 3);
}

TEST(VfreeTest, PreciseFdRepairsOnlyDirtyCells) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi2(rel)};
  RepairResult r = VfreeRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  // φ2 violations: the three starred CPs against their twins -> 3 cells.
  EXPECT_EQ(r.stats.changed_cells, 3);
  AttrId cp = *rel.schema().Find("CP");
  // Figure 1(c): each starred value repaired to its twin's value.
  std::vector<Value> repaired_cps = {r.repaired.Get(1, cp),
                                     r.repaired.Get(4, cp),
                                     r.repaired.Get(7, cp)};
  EXPECT_EQ(repaired_cps[0], Value::String("564-389"));
  EXPECT_EQ(repaired_cps[1], Value::String("930-198"));
  EXPECT_EQ(repaired_cps[2], Value::String("824-870"));
}

TEST(VfreeTest, OversimplifiedFdOverRepairs) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel)};
  RepairResult r = VfreeRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  // Figure 1(b): φ1 forces CP agreement inside every name group — far
  // more changes than the 3 truly dirty cells.
  EXPECT_GT(r.stats.changed_cells, 3);
}

TEST(HolisticTest, SatisfiesConstraintsAndCountsRounds) {
  Relation rel = PaperIncomeRelation();
  for (ConstraintSet sigma :
       {ConstraintSet{Phi4Prime(rel)}, ConstraintSet{Phi2(rel)},
        ConstraintSet{Phi1(rel), Phi4Prime(rel)}}) {
    RepairResult r = HolisticRepair(rel, sigma);
    EXPECT_TRUE(Satisfies(r.repaired, sigma));
    EXPECT_GE(r.stats.rounds, 1);
  }
}

TEST(GreedyTest, SatisfiesConstraints) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel)};
  RepairResult r = GreedyRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  EXPECT_GE(r.stats.changed_cells, 1);
}

TEST(VfreeTest, DataRepairAbortsWhenCostBoundExceeded) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel)};  // needs many changes
  DomainStats stats(rel);
  std::vector<Violation> violations = FindViolations(rel, sigma);
  ConflictHypergraph g = ConflictHypergraph::Build(rel, sigma, violations);
  VertexCover cover = ApproximateVertexCover(g);
  RepairStats rstats;
  int64_t fresh = 1;
  const VfreeOptions options;
  std::optional<ScopedRepair> out = ReplayComponents(
      rel, stats,
      PlanComponents(sigma, cover.Cells(g), options, EncodedRelation(rel)),
      /*delta_min=*/0.5, options, nullptr, &rstats, &fresh);
  EXPECT_FALSE(out.has_value());  // Algorithm 2 lines 18-19
}

// ----- Property: one-round violation-freeness on randomized instances.

struct RandomCase {
  int seed;
  int rows;
};

class VfreePropertyTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(VfreePropertyTest, OneRoundRepairAlwaysSatisfiesSigma) {
  RandomCase param = GetParam();
  std::mt19937_64 rng(param.seed);
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  schema.AddAttribute("Y", AttrType::kInt);
  Relation rel(schema);
  std::uniform_int_distribution<int> cat(0, 4);
  std::uniform_int_distribution<int> num(0, 20);
  for (int i = 0; i < param.rows; ++i) {
    rel.AddRow({Value::String("a" + std::to_string(cat(rng))),
                Value::String("b" + std::to_string(cat(rng))),
                Value::Int(num(rng)), Value::Int(num(rng))});
  }
  // A mixed constraint set: an FD, an order DC, and a constant DC.
  ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      DenialConstraint({Predicate::TwoCell(0, 2, Op::kGt, 1, 2),
                        Predicate::TwoCell(0, 3, Op::kLt, 1, 3)},
                       "order"),
      DenialConstraint(
          {Predicate::WithConstant(0, 2, Op::kGt, Value::Int(18))}, "cap")};

  RepairResult r = VfreeRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma))
      << "Vfree must be violation-free in ONE round (Proposition 5), "
      << "seed=" << param.seed;
  EXPECT_EQ(r.stats.rounds, 1);
  // Untouched rows/attrs keep their values (value modification only).
  EXPECT_EQ(r.repaired.num_rows(), rel.num_rows());
}

TEST_P(VfreePropertyTest, HolisticEventuallySatisfiesSigma) {
  RandomCase param = GetParam();
  std::mt19937_64 rng(param.seed * 31 + 1);
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  Relation rel(schema);
  std::uniform_int_distribution<int> cat(0, 3);
  std::uniform_int_distribution<int> num(0, 15);
  for (int i = 0; i < param.rows; ++i) {
    rel.AddRow({Value::String("a" + std::to_string(cat(rng))),
                Value::Int(num(rng))});
  }
  ConstraintSet sigma = {DenialConstraint::FromFd({0}, 1, "fd")};
  RepairResult r = HolisticRepair(rel, sigma);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, VfreePropertyTest,
    ::testing::Values(RandomCase{1, 20}, RandomCase{2, 30}, RandomCase{3, 40},
                      RandomCase{4, 25}, RandomCase{5, 50}, RandomCase{6, 35},
                      RandomCase{7, 45}, RandomCase{8, 60}, RandomCase{9, 15},
                      RandomCase{10, 55}));

}  // namespace
}  // namespace cvrepair
