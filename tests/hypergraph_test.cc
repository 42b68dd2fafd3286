#include <gtest/gtest.h>

#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "paper_example.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi4Prime;

ConflictHypergraph BuildPhi4Graph(const Relation& rel) {
  ConstraintSet sigma = {Phi4Prime(rel)};
  return ConflictHypergraph::Build(rel, sigma, FindViolations(rel, sigma));
}

TEST(HypergraphTest, Example6GraphShape) {
  Relation rel = PaperIncomeRelation();
  ConflictHypergraph g = BuildPhi4Graph(rel);
  // Three violations <t5,t4>,<t6,t4>,<t7,t4>, each with 4 cells; shared
  // cells t4.Income / t4.Tax merge: 3*2 + 2 = 8 vertices, 3 edges.
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_EQ(g.MaxEdgeSize(), 4);
}

TEST(HypergraphTest, SymmetricViolationsDeduplicate) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel)};
  std::vector<Violation> v = FindViolations(rel, sigma);
  ConflictHypergraph g = ConflictHypergraph::Build(rel, sigma, v);
  // Both orientations of an FD violation cover the same cells.
  EXPECT_LT(g.num_edges(), static_cast<int>(v.size()));
}

TEST(HypergraphTest, VertexWeightsUseMinChangeCost) {
  Relation rel = PaperIncomeRelation();
  ConflictHypergraph g = BuildPhi4Graph(rel);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(g.weight(v), 1.0);  // count cost, alternatives exist
  }
}

class CoverHeuristicTest : public ::testing::TestWithParam<CoverHeuristic> {};

TEST_P(CoverHeuristicTest, CoversAllEdges) {
  Relation rel = PaperIncomeRelation();
  for (ConstraintSet sigma :
       {ConstraintSet{Phi4Prime(rel)}, ConstraintSet{Phi1(rel)},
        ConstraintSet{Phi1(rel), Phi4Prime(rel)}}) {
    ConflictHypergraph g =
        ConflictHypergraph::Build(rel, sigma, FindViolations(rel, sigma));
    VertexCover cover = ApproximateVertexCover(g, GetParam());
    std::vector<bool> in_cover(g.num_vertices(), false);
    for (int v : cover.vertices) in_cover[v] = true;
    for (int e = 0; e < g.num_edges(); ++e) {
      bool covered = false;
      for (int v : g.edge(e)) covered |= in_cover[v];
      EXPECT_TRUE(covered) << "edge " << e << " uncovered";
    }
  }
}

TEST_P(CoverHeuristicTest, CoverIsMinimal) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi1(rel), Phi4Prime(rel)};
  ConflictHypergraph g =
      ConflictHypergraph::Build(rel, sigma, FindViolations(rel, sigma));
  VertexCover cover = ApproximateVertexCover(g, GetParam());
  // Removing any single cover vertex must uncover some edge.
  for (int drop : cover.vertices) {
    std::vector<bool> in_cover(g.num_vertices(), false);
    for (int v : cover.vertices) in_cover[v] = v != drop;
    bool all_covered = true;
    for (int e = 0; e < g.num_edges(); ++e) {
      bool covered = false;
      for (int v : g.edge(e)) covered |= in_cover[v];
      all_covered &= covered;
    }
    EXPECT_FALSE(all_covered) << "vertex " << drop << " is redundant";
  }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, CoverHeuristicTest,
                         ::testing::Values(CoverHeuristic::kLocalRatio,
                                           CoverHeuristic::kGreedyDegree));

TEST(CoverTest, SingleCellCoverForExample7) {
  Relation rel = PaperIncomeRelation();
  ConflictHypergraph g = BuildPhi4Graph(rel);
  // t4.Income / t4.Tax each touch all three edges, so one vertex covers
  // everything (the paper picks {t4.Tax} in Example 7).
  VertexCover cover =
      ApproximateVertexCover(g, CoverHeuristic::kGreedyDegree);
  EXPECT_EQ(cover.vertices.size(), 1u);
  Cell c = g.cell(cover.vertices[0]);
  EXPECT_EQ(c.row, 3);
}

TEST(CoverTest, ScoreTiesBreakOnSmallestRowThenAttr) {
  // Two disjoint FD violations whose four inequality-side cells tie on
  // every score input (degree, weight, value frequency, domain size): the
  // cover must settle each edge on the smaller row, making the pick a
  // pure function of the cells rather than of vertex ids (which follow
  // violation discovery order). Regression test for the nondeterministic
  // tie-breaking ApproximateVertexCover once had.
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  Relation rel(schema);
  rel.AddRow({Value::String("k"), Value::String("x")});
  rel.AddRow({Value::String("k"), Value::String("y")});
  rel.AddRow({Value::String("m"), Value::String("u")});
  rel.AddRow({Value::String("m"), Value::String("w")});
  AttrId a = 0, b = 1;
  ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, a, Op::kEq, 1, a),
                        Predicate::TwoCell(0, b, Op::kNeq, 1, b)})};
  ConflictHypergraph g =
      ConflictHypergraph::Build(rel, sigma, FindViolations(rel, sigma));
  ASSERT_EQ(g.num_edges(), 2);
  VertexCover cover = ApproximateVertexCover(g, CoverHeuristic::kGreedyDegree);
  std::vector<Cell> cells = cover.Cells(g);
  std::sort(cells.begin(), cells.end());
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0] == (Cell{0, b}));
  EXPECT_TRUE(cells[1] == (Cell{2, b}));
}

TEST(BoundsTest, Example7And8Bounds) {
  Relation rel = PaperIncomeRelation();
  CostModel cost;  // count cost, fresh 1.1
  // With AMWVC = {t4.Tax} (weight 1) and Deg = 4: delta_l = 0.25,
  // delta_u = 1.1 (Example 7).
  RepairCostBounds b1 =
      ComputeBounds(rel, {Phi4Prime(rel)}, cost, CoverHeuristic::kGreedyDegree);
  EXPECT_NEAR(b1.lower, 0.25, 1e-9);
  EXPECT_NEAR(b1.upper, 1.1, 1e-9);

  // Example 8: for φ4'' = not(Income> & Tax=) the paper's AMWVC is the 5
  // tax cells giving delta_l = 1.25 > delta_u(Σ1) = 1.1. Our local-ratio
  // cover may differ (it is a different f-approximation), but the bound
  // must still separate the two variants by a wide margin relative to Σ1's
  // lower bound, and stay a valid lower bound (>= 1 changed cell won't do
  // it: the true minimum repair of φ4'' needs several cells).
  DenialConstraint phi4pp = testing_fixture::Parse(
      rel, "not(t0.Income>t1.Income & t0.Tax=t1.Tax)");
  RepairCostBounds b2 =
      ComputeBounds(rel, {phi4pp}, cost, CoverHeuristic::kGreedyDegree);
  EXPECT_GE(b2.lower, 1.0);
  EXPECT_GT(b2.lower, 2.0 * b1.lower);
}

TEST(BoundsTest, LowerBoundNeverExceedsTrueRepairCost) {
  // Lemma 3 sanity: the minimum repair of φ4' costs 1 (t4.Tax := 0), and
  // delta_l = 0.25 <= 1 <= delta_u = 1.1.
  Relation rel = PaperIncomeRelation();
  RepairCostBounds b = ComputeBounds(rel, {Phi4Prime(rel)});
  EXPECT_LE(b.lower, 1.0 + 1e-9);
  EXPECT_GE(b.upper, 1.0 - 1e-9);
}

TEST(BoundsTest, EmptyViolationsGiveZeroBounds) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId income = *rel.schema().Find("Income");
  DenialConstraint ok({Predicate::TwoCell(0, tax, Op::kGt, 0, income)});
  RepairCostBounds b = ComputeBounds(rel, {ok});
  EXPECT_EQ(b.lower, 0.0);
  EXPECT_EQ(b.upper, 0.0);
}

}  // namespace
}  // namespace cvrepair
