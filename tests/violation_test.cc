#include "dc/violation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include "data/census.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "dc/eval_index.h"
#include "dc/incremental.h"
#include "paper_example.h"
#include "reference_scan.h"
#include "relation/encoded.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;
using testing_fixture::Phi4;
using testing_fixture::Phi4Prime;

std::set<std::pair<int, int>> AsPairs(const std::vector<Violation>& v) {
  std::set<std::pair<int, int>> out;
  for (const Violation& viol : v) out.insert({viol.rows[0], viol.rows[1]});
  return out;
}

TEST(ViolationTest, Example6ViolationsOfPhi4Prime) {
  Relation rel = PaperIncomeRelation();
  EncodedRelation E(rel);
  std::vector<Violation> v = FindViolationsOf(E, Phi4Prime(rel));
  // viol(I, φ4') = {<t5,t4>, <t6,t4>, <t7,t4>} (rows 4,5,6 vs 3).
  EXPECT_EQ(AsPairs(v),
            (std::set<std::pair<int, int>>{{4, 3}, {5, 3}, {6, 3}}));
}

TEST(ViolationTest, Phi1FindsAllSameNameDifferentCpPairs) {
  Relation rel = PaperIncomeRelation();
  EncodedRelation E(rel);
  std::vector<Violation> v = FindViolationsOf(E, Phi1(rel));
  // Ayres group {0,1,2}: CPs 322-573, ***-389, 564-389 — all distinct.
  // Each unordered conflicting pair appears in both orientations.
  std::set<std::pair<int, int>> pairs = AsPairs(v);
  EXPECT_TRUE(pairs.count({0, 1}));
  EXPECT_TRUE(pairs.count({1, 0}));
  EXPECT_TRUE(pairs.count({1, 2}));
  // Dustin rows 7 and 8 have different CPs.
  EXPECT_TRUE(pairs.count({7, 8}));
  // No cross-name violations.
  EXPECT_FALSE(pairs.count({0, 3}));
}

TEST(ViolationTest, HashPartitioningAgreesWithBruteForce) {
  Relation rel = PaperIncomeRelation();
  DenialConstraint phi1 = Phi1(rel);
  std::set<std::pair<int, int>> brute;
  for (int i = 0; i < rel.num_rows(); ++i) {
    for (int j = 0; j < rel.num_rows(); ++j) {
      if (i != j && phi1.IsViolated(rel, {i, j})) brute.insert({i, j});
    }
  }
  EXPECT_EQ(AsPairs(FindViolationsOf(EncodedRelation(rel), phi1)), brute);
}

TEST(ViolationTest, SatisfiesShortCircuit) {
  Relation rel = PaperIncomeRelation();
  EXPECT_FALSE(Satisfies(rel, {Phi1(rel)}));
  // Name -> Name trivially holds.
  AttrId name = *rel.schema().Find("Name");
  DenialConstraint tautology = DenialConstraint::FromFd({name}, name);
  EXPECT_TRUE(Satisfies(rel, {tautology}));
}

TEST(ViolationTest, SingleTupleConstraints) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId income = *rel.schema().Find("Income");
  // not(Tax > Income) holds everywhere.
  DenialConstraint ok({Predicate::TwoCell(0, tax, Op::kGt, 0, income)});
  EXPECT_TRUE(FindViolationsOf(EncodedRelation(rel), ok).empty());
  // not(Income >= 100) flags t8, t9, t10 (rows 7, 8, 9).
  DenialConstraint rich(
      {Predicate::WithConstant(0, income, Op::kGeq, Value::Double(100))});
  std::vector<Violation> v = FindViolationsOf(EncodedRelation(rel), rich);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].rows, std::vector<int>{7});
  EXPECT_EQ(v[2].rows, std::vector<int>{9});
}

// Definition 5 compares with EvalOp, under which the Int and the Double
// spelling of one number are equal, so an FD over such a column joins
// them. Every path pins it: the Relation wrappers, the encoded scans, and
// the delta-maintained index after an update that introduces the Double.
TEST(ViolationTest, IntAndDoubleSpellingsOfOneNumberJoin) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kInt);
  schema.AddAttribute("B", AttrType::kString);
  Relation rel(schema);
  rel.AddRow({Value::Int(1), Value::String("x")});
  rel.AddRow({Value::Double(1.0), Value::String("y")});
  const ConstraintSet sigma = {DenialConstraint::FromFd({0}, 1, "A->B")};

  const std::vector<reference::TupleList> expected =
      reference::ReferenceViolations(rel, sigma);
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_EQ(reference::Sorted(FindViolations(rel, sigma)), expected);
  EXPECT_FALSE(Satisfies(rel, sigma));
  EncodedRelation E(rel);
  EXPECT_EQ(reference::Sorted(FindViolations(E, sigma)), expected);
  EXPECT_FALSE(Satisfies(E, sigma));

  Relation spelled_int(schema);
  spelled_int.AddRow({Value::Int(1), Value::String("x")});
  spelled_int.AddRow({Value::Int(2), Value::String("y")});
  ViolationIndex index(spelled_int, sigma);
  EXPECT_FALSE(index.HasViolations());
  index.ApplyChange({1, 0}, Value::Double(1.0));
  EXPECT_EQ(index.CurrentViolations().size(), 2u);
  EXPECT_EQ(reference::Sorted(index.CurrentViolations()),
            reference::ReferenceViolations(index.relation(), sigma));
}

TEST(ViolationTest, ViolationCellsExample6) {
  Relation rel = PaperIncomeRelation();
  DenialConstraint phi4p = Phi4Prime(rel);
  AttrId income = *rel.schema().Find("Income");
  AttrId tax = *rel.schema().Find("Tax");
  std::vector<Cell> cells = ViolationCells(phi4p, {4, 3});
  // cell(t5, t4; φ4') = {t5.Income, t4.Income, t5.Tax, t4.Tax}.
  EXPECT_EQ(cells.size(), 4u);
  EXPECT_NE(std::find(cells.begin(), cells.end(), Cell{4, income}),
            cells.end());
  EXPECT_NE(std::find(cells.begin(), cells.end(), Cell{3, tax}), cells.end());
}

// ViewsByPosition slices a canonical list in place: each position views
// its run of the list, and a position with no violations an empty view —
// here first, in the middle and last.
TEST(ViolationTest, ViewsByPositionSlicesACanonicalList) {
  const std::vector<Violation> violations = {
      {1, {0, 1}}, {1, {2, 3}}, {3, {4}}, {4, {1, 0}}};
  const ViolationsByPosition views = ViewsByPosition(violations, 6);
  ASSERT_EQ(views.size(), 6u);
  const std::vector<size_t> sizes = {0, 2, 0, 1, 1, 0};
  size_t offset = 0;
  for (size_t k = 0; k < views.size(); ++k) {
    SCOPED_TRACE("position " + std::to_string(k));
    ASSERT_EQ(views[k].size(), sizes[k]);
    for (size_t i = 0; i < views[k].size(); ++i) {
      EXPECT_EQ(&views[k][i], &violations[offset + i]);  // no copy
      EXPECT_EQ(views[k][i].constraint_index, static_cast<int>(k));
    }
    offset += views[k].size();
  }
  EXPECT_EQ(offset, violations.size());

  const std::vector<Violation> none;
  const ViolationsByPosition empty = ViewsByPosition(none, 2);
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_TRUE(empty[0].empty());
  EXPECT_TRUE(empty[1].empty());
}

TEST(SuspectTest, Example9SuspectsOfPhi4Prime) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  CellSet changing = {{3, tax}};  // C = {t4.Tax}
  EncodedRelation E(rel);
  std::vector<Violation> s = FindSuspects(E, {Phi4Prime(rel)}, changing);
  // susp = {<t4,t1>,<t4,t2>,<t4,t3>,<t5,t4>,<t6,t4>,<t7,t4>,<t8,t4>,
  //         <t9,t4>,<t10,t4>} (Example 9).
  std::set<std::pair<int, int>> expected = {{3, 0}, {3, 1}, {3, 2},
                                            {4, 3}, {5, 3}, {6, 3},
                                            {7, 3}, {8, 3}, {9, 3}};
  EXPECT_EQ(AsPairs(s), expected);
}

TEST(SuspectTest, Lemma4ViolationsAreSuspects) {
  Relation rel = PaperIncomeRelation();
  ConstraintSet sigma = {Phi4Prime(rel), Phi1(rel)};
  std::vector<Violation> violations = FindViolations(rel, sigma);
  // Any changing set covering all violations must suspect every violation.
  CellSet changing;
  for (const Violation& v : violations) {
    for (const Cell& c : ViolationCells(sigma[v.constraint_index], v.rows)) {
      changing.insert(c);
    }
  }
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma, changing);
  std::set<std::pair<int, int>> suspect_pairs;
  for (const Violation& s : suspects) {
    suspect_pairs.insert({s.rows[0], s.rows[1]});
  }
  for (const Violation& v : violations) {
    EXPECT_TRUE(suspect_pairs.count({v.rows[0], v.rows[1]}))
        << "violation <" << v.rows[0] << "," << v.rows[1]
        << "> must be suspected (Lemma 4)";
  }
}

TEST(SuspectTest, NoSuspectsWhenChangingSetOffConstraintAttrs) {
  Relation rel = PaperIncomeRelation();
  AttrId year = *rel.schema().Find("Year");
  CellSet changing = {{3, year}};
  EncodedRelation E(rel);
  EXPECT_TRUE(FindSuspects(E, {Phi4Prime(rel)}, changing).empty());
}

// Exact-cap semantics, pinned for every scan path: with V violations in
// total, cap = V returns the complete result with truncated *false* (the
// scan finished exactly at the cap — nothing was cut), cap = V - 1 returns
// the first V - 1 violations of the uncapped order with truncated true,
// and cap = V + 1 is indistinguishable from uncapped. The capped result is
// always a prefix of the uncapped one. The benchmark's EvalIndex adapter
// must return the same list and flag at every cap.
void CheckExactCapSemantics(const Relation& I, const DenialConstraint& c,
                            const std::string& context) {
  EncodedRelation E(I);
  EvalIndex index(I, c, EvalIndex::kDefaultMemoBudget, &E);
  index.Prepare(c);
  bool truncated = true;
  std::vector<Violation> all = FindViolationsOfCapped(
      E, c, 0, std::numeric_limits<int64_t>::max(), &truncated);
  ASSERT_FALSE(truncated) << context;
  const int64_t v = static_cast<int64_t>(all.size());
  ASSERT_GE(v, 2) << context << ": need >= 2 violations to pin the cap";
  for (int64_t cap : {v - 1, v, v + 1}) {
    bool capped_truncated = false;
    std::vector<Violation> capped =
        FindViolationsOfCapped(E, c, 0, cap, &capped_truncated);
    int64_t expect_size = std::min(cap, v);
    ASSERT_EQ(static_cast<int64_t>(capped.size()), expect_size)
        << context << " cap " << cap;
    EXPECT_EQ(capped_truncated, v > cap) << context << " cap " << cap;
    for (int64_t i = 0; i < expect_size; ++i) {
      ASSERT_EQ(capped[static_cast<size_t>(i)], all[static_cast<size_t>(i)])
          << context << " cap " << cap << ": not the uncapped prefix at " << i;
    }
    bool adapter_truncated = !capped_truncated;
    EXPECT_EQ(index.FindViolationsCapped(c, 0, cap, &adapter_truncated),
              capped)
        << context << " cap " << cap << ": EvalIndex";
    EXPECT_EQ(adapter_truncated, capped_truncated)
        << context << " cap " << cap << ": EvalIndex";
  }
}

class PoolGuard {
 public:
  ~PoolGuard() { ThreadPool::SetNumThreads(1); }
};

// Small instances: the serial 1-tuple row scan, the hash-partition block
// scan, and the no-join pair scan.
TEST(ViolationCapTest, ExactCapOnSerialPaths) {
  Relation rel = PaperIncomeRelation();
  AttrId income = *rel.schema().Find("Income");
  DenialConstraint rich(
      {Predicate::WithConstant(0, income, Op::kGeq, Value::Double(100))});
  CheckExactCapSemantics(rel, rich, "serial 1-tuple");
  CheckExactCapSemantics(rel, Phi1(rel), "serial partition-block");
  CheckExactCapSemantics(rel, Phi4Prime(rel), "serial no-join pairs");
}

// Large instances at 4 threads: the scans stay serial at any budget, and
// the cap must hold over thousands of rows and many partition blocks.
TEST(ViolationCapTest, ExactCapOnShardedPaths) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);

  CensusConfig census_config;
  census_config.num_rows = 9000;  // nine storage blocks
  CensusData census = MakeCensus(census_config);
  // not(Income >= tax_threshold): a constant unary DC violated by every
  // taxpaying row — thousands of violations across every block.
  DenialConstraint high_income({Predicate::WithConstant(
      0, CensusAttrs::kIncome, Op::kGeq,
      Value::Double(census_config.tax_threshold))});
  EncodedRelation census_encoded(census.clean);
  ASSERT_GE(FindViolationsOf(census_encoded, high_income).size(), 2u);
  CheckExactCapSemantics(census.clean, high_income, "large 1-tuple rows");

  HospConfig hosp_config;
  hosp_config.num_hospitals = 12;
  hosp_config.measures_per_hospital = 30;  // join blocks of 30+ rows
  HospData hosp = MakeHosp(hosp_config);
  NoiseConfig hosp_noise;
  hosp_noise.error_rate = 0.1;
  hosp_noise.target_attrs = hosp.noise_attrs;
  hosp_noise.seed = 13;
  Relation hosp_dirty = InjectNoise(hosp.clean, hosp_noise).dirty;
  bool found_fd = false;
  for (const DenialConstraint& c : hosp.given_oversimplified) {
    if (c.NumTupleVars() != 2) continue;
    if (FindViolationsOf(EncodedRelation(hosp_dirty), c).size() < 2) continue;
    found_fd = true;
    CheckExactCapSemantics(hosp_dirty, c, "large partition blocks");
  }
  EXPECT_TRUE(found_fd);
}

}  // namespace
}  // namespace cvrepair
