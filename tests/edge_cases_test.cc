// Edge-case coverage: degenerate instances, option corners, and less
// traveled configuration paths.
#include <gtest/gtest.h>

#include "data/noise.h"
#include "dc/predicate_space.h"
#include "paper_example.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/greedy.h"
#include "repair/vfree.h"
#include "variation/variant_generator.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi4;

TEST(EdgeCaseTest, EmptyRelationRepairsToItself) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  Relation rel(schema);
  ConstraintSet sigma = {DenialConstraint::FromFd({0}, 1)};
  RepairResult r = VfreeRepair(rel, sigma);
  EXPECT_EQ(r.stats.changed_cells, 0);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  CVTolerantOptions options;
  RepairResult cv = CVTolerantRepair(rel, sigma, options);
  EXPECT_EQ(cv.stats.changed_cells, 0);
}

TEST(EdgeCaseTest, SingleRowInstanceHasNoPairViolations) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  Relation rel(schema);
  rel.AddRow({Value::String("x"), Value::String("y")});
  ConstraintSet sigma = {DenialConstraint::FromFd({0}, 1)};
  EXPECT_TRUE(Satisfies(rel, sigma));
  EXPECT_TRUE(FindViolations(rel, sigma).empty());
}

TEST(EdgeCaseTest, NullCellsNeverViolate) {
  Relation rel = PaperIncomeRelation();
  AttrId name = *rel.schema().Find("Name");
  AttrId cp = *rel.schema().Find("CP");
  // NULL out the whole Ayres group's names: those pairs stop violating φ1.
  for (int i : {0, 1, 2}) rel.SetValue(i, name, Value::Null());
  for (const Violation& v : FindViolationsOf(EncodedRelation(rel), Phi1(rel))) {
    for (int row : v.rows) {
      EXPECT_FALSE(rel.Get(row, name).is_null());
    }
  }
  (void)cp;
}

TEST(EdgeCaseTest, EmptyConstraintSetIsAlwaysSatisfied) {
  Relation rel = PaperIncomeRelation();
  EXPECT_TRUE(Satisfies(rel, {}));
  RepairResult r = VfreeRepair(rel, {});
  EXPECT_EQ(r.stats.changed_cells, 0);
}

TEST(PredicateSpaceTest, ExcludedAttrsHonored) {
  Relation rel = PaperIncomeRelation();
  PredicateSpaceOptions options;
  options.excluded_attrs = {*rel.schema().Find("Year"),
                            *rel.schema().Find("CP")};
  for (const Predicate& p : BuildPredicateSpace(rel.schema(), options)) {
    EXPECT_NE(p.lhs().attr, *rel.schema().Find("Year"));
    EXPECT_NE(p.lhs().attr, *rel.schema().Find("CP"));
  }
}

TEST(EdgeCaseTest, GreedyEscalatesStubbornCellsToFresh) {
  // Two rows locked in an unsatisfiable two-sided conflict on a
  // two-value domain: greedy must eventually fall back to fv.
  Schema schema;
  schema.AddAttribute("X", AttrType::kInt);
  Relation rel(schema);
  rel.AddRow({Value::Int(0)});
  rel.AddRow({Value::Int(1)});
  // not(X != X'): the two rows must agree — and also not(X = X') would be
  // unsatisfiable; use the pair that forces value equality plus a cap that
  // rules out both domain values.
  ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, 0, Op::kNeq, 1, 0)}),
      DenialConstraint(
          {Predicate::WithConstant(0, 0, Op::kGeq, Value::Int(0))})};
  GreedyOptions options;
  RepairResult r = GreedyRepair(rel, sigma, options);
  EXPECT_TRUE(Satisfies(r.repaired, sigma));
  EXPECT_GT(r.stats.fresh_assignments, 0);
}

TEST(EdgeCaseTest, ThetaLargerThanSpaceBudgetSaturates) {
  // θ far beyond what insertions can spend: enumeration stays finite and
  // the repair is still valid.
  Relation rel = PaperIncomeRelation();
  CVTolerantOptions options;
  options.variants.theta = 50.0;
  options.variants.data = &rel;
  RepairResult r = CVTolerantRepair(rel, {Phi4(rel)}, options);
  EXPECT_TRUE(Satisfies(r.repaired, r.satisfied_constraints));
  EXPECT_LT(r.stats.variants_enumerated, 20001);
}

TEST(EdgeCaseTest, NoiseOnEmptyTargetsIsANoop) {
  Relation rel = PaperIncomeRelation();
  NoiseConfig config;
  config.error_rate = 0.5;
  config.target_attrs = {};  // defaults to all non-key attrs
  NoisyData noisy = InjectNoise(rel, config);
  EXPECT_GT(noisy.dirty_cells.size(), 0u);

  Relation empty{rel.schema()};
  NoisyData nothing = InjectNoise(empty, config);
  EXPECT_TRUE(nothing.dirty_cells.empty());
}

TEST(EdgeCaseTest, ZeroErrorRateChangesNothing) {
  Relation rel = PaperIncomeRelation();
  NoiseConfig config;
  config.error_rate = 0.0;
  NoisyData noisy = InjectNoise(rel, config);
  EXPECT_TRUE(noisy.dirty_cells.empty());
  for (int i = 0; i < rel.num_rows(); ++i) {
    for (AttrId a = 0; a < rel.num_attributes(); ++a) {
      EXPECT_EQ(noisy.dirty.Get(i, a), rel.Get(i, a));
    }
  }
}

}  // namespace
}  // namespace cvrepair
