// Coverage for the human-facing rendering surfaces and the weighted
// variants of the bound machinery.
#include <gtest/gtest.h>

#include "graph/bounds.h"
#include "paper_example.h"
#include "relation/encoded.h"
#include "repair/cell_weights.h"
#include "repair/vfree.h"
#include "solver/repair_context.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi4Prime;

TEST(ReportingTest, RelationToStringAlignsAndTruncates) {
  Relation rel = PaperIncomeRelation();
  std::string full = rel.ToString();
  EXPECT_NE(full.find("Name"), std::string::npos);
  EXPECT_NE(full.find("322-573"), std::string::npos);
  std::string truncated = rel.ToString(/*max_rows=*/3);
  EXPECT_NE(truncated.find("(7 more rows)"), std::string::npos);
  EXPECT_EQ(truncated.find("Dustin"), std::string::npos);
}

TEST(ReportingTest, RepairStatsToStringMentionsCounters) {
  RepairStats stats;
  stats.rounds = 2;
  stats.solver_calls = 7;
  stats.changed_cells = 3;
  stats.variants_enumerated = 11;
  stats.datarepair_calls = 4;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("rounds=2"), std::string::npos);
  EXPECT_NE(text.find("solver_calls=7"), std::string::npos);
  EXPECT_NE(text.find("variants=11"), std::string::npos);
  EXPECT_EQ(text.find("variants_capped"), std::string::npos);
  stats.variants_capped = true;
  EXPECT_NE(stats.ToString().find("variants=11 variants_capped=1"),
            std::string::npos);
}

TEST(ReportingTest, RepairContextToStringRendersAtoms) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  std::vector<Cell> changing = {{3, tax}};
  ConstraintSet sigma = {Phi4Prime(rel)};
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end()));
  RepairContext rc = RepairContext::Build(rel, sigma, changing, suspects);
  std::string text = rc.ToString(rel);
  EXPECT_NE(text.find("I'(t3.Tax)"), std::string::npos);
  EXPECT_NE(text.find(">="), std::string::npos);
  EXPECT_NE(text.find("<="), std::string::npos);
}

TEST(ReportingTest, WeightedBoundsScaleWithCellWeights) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel)};

  RepairCostBounds plain = ComputeBounds(rel, sigma);

  // Weight every Tax cell 5x: the cover either pays 5x on a tax cell or
  // routes around it; either way the lower bound cannot shrink.
  CellWeights weights;
  AttrId tax = *rel.schema().Find("Tax");
  for (int i = 0; i < rel.num_rows(); ++i) weights.Set(i, tax, 5.0);
  CostModel cost;
  cost.cell_weights = &weights;
  RepairCostBounds weighted = ComputeBounds(rel, sigma, cost);
  EXPECT_GE(weighted.lower, plain.lower - 1e-9);
  EXPECT_FALSE(weighted.cover_cells.empty());
}

TEST(ReportingTest, SchemaAccessorsOnPaperExample) {
  Relation rel = PaperIncomeRelation();
  const Schema& schema = rel.schema();
  EXPECT_EQ(schema.attribute(0).name, "Name");
  EXPECT_FALSE(schema.attribute(0).is_key);
  EXPECT_EQ(schema.attributes().size(), 6u);
}

}  // namespace
}  // namespace cvrepair
