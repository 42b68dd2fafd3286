// The shared evaluation index (dc/eval_index.h): partition derivation
// (refine / merge with NULL recovery) and the predicate-verdict memo, each
// checked against the plain detector.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "dc/eval_index.h"
#include "dc/violation.h"
#include "paper_example.h"
#include "relation/encoded.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi1;

// A small relation with NULLs placed to exercise both derivation
// directions: refining must drop rows NULL on the added attribute, and
// merging must re-admit rows that were excluded only because of a NULL on
// a dropped attribute.
Relation NullableRelation() {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  schema.AddAttribute("C", AttrType::kString);
  schema.AddAttribute("D", AttrType::kString);
  Relation rel(schema);
  auto S = [](const char* s) { return Value::String(s); };
  rel.AddRow({S("a1"), S("b1"), S("c1"), S("d1")});
  rel.AddRow({S("a1"), S("b1"), S("c2"), S("d1")});
  rel.AddRow({S("a1"), Value::Null(), S("c3"), S("d1")});  // NULL on B
  rel.AddRow({S("a1"), S("b2"), S("c1"), Value::Null()});  // NULL on D
  rel.AddRow({S("a2"), S("b2"), S("c1"), S("d2")});
  rel.AddRow({S("a2"), S("b2"), S("c2"), S("d2")});
  rel.AddRow({S("a1"), S("b1"), S("c3"), S("d2")});
  rel.AddRow({S("a2"), Value::Null(), S("c2"), S("d2")});  // NULL on B
  return rel;
}

Predicate Eq(AttrId a) { return Predicate::TwoCell(0, a, Op::kEq, 1, a); }
Predicate Neq(AttrId a) { return Predicate::TwoCell(0, a, Op::kNeq, 1, a); }

// Index scans must agree with the plain detector on every derivation
// direction, capped and uncapped.
TEST(EvalIndexTest, DerivedPartitionsMatchFreshScans) {
  Relation rel = NullableRelation();
  // Base: the FD {A,B} -> C.
  DenialConstraint base({Eq(0), Eq(1), Neq(2)});
  EncodedRelation E(rel);
  EvalIndex index(rel, base, EvalIndex::kDefaultMemoBudget, &E);

  std::vector<DenialConstraint> variants = {
      base,
      DenialConstraint({Eq(0), Eq(1), Eq(3), Neq(2)}),  // refine: +D
      DenialConstraint({Eq(0), Neq(2)}),                // merge: -B (NULL rows)
      DenialConstraint({Eq(1), Neq(2)}),                // merge: -A
      DenialConstraint({Eq(3), Neq(2)}),                // refine from trivial
      DenialConstraint({Neq(2)}),                       // no join at all
      DenialConstraint({Eq(0), Eq(1), Neq(3)}),         // delta predicate
  };
  for (const DenialConstraint& v : variants) index.Prepare(v);

  for (size_t k = 0; k < variants.size(); ++k) {
    for (int64_t cap : {std::numeric_limits<int64_t>::max(), int64_t{3},
                        int64_t{1}}) {
      bool plain_truncated = false;
      std::vector<Violation> plain = FindViolationsOfCapped(
          E, variants[k], static_cast<int>(k), cap, &plain_truncated);
      bool indexed_truncated = false;
      std::vector<Violation> indexed = index.FindViolationsCapped(
          variants[k], static_cast<int>(k), cap, &indexed_truncated);
      EXPECT_EQ(plain, indexed) << "variant " << k << " cap " << cap;
      EXPECT_EQ(plain_truncated, indexed_truncated)
          << "variant " << k << " cap " << cap;
    }
  }
}

TEST(EvalIndexTest, DerivationsAreCountedInsteadOfBuilds) {
  Relation rel = NullableRelation();
  DenialConstraint base({Eq(0), Eq(1), Neq(2)});
  EncodedRelation E(rel);
  eval_counters::Reset();
  EvalIndex index(rel, base, EvalIndex::kDefaultMemoBudget, &E);
  index.Prepare(DenialConstraint({Eq(0), Eq(1), Eq(3), Neq(2)}));  // refine
  index.Prepare(DenialConstraint({Eq(0), Neq(2)}));                // merge
  index.Prepare(DenialConstraint({Eq(0), Eq(1), Neq(2)}));         // hit
  EvalCounters c = eval_counters::Snapshot();
  EXPECT_EQ(c.partition_builds, 1);  // only the base partition was scanned
  EXPECT_EQ(c.partition_refines, 1);
  EXPECT_EQ(c.partition_merges, 1);
  EXPECT_GE(c.partition_hits, 1);
  EXPECT_EQ(index.num_partitions(), 3);
}

// Scanning a variant that shares all non-join predicates with the base
// costs zero predicate evaluations: every verdict comes from the memo.
TEST(EvalIndexTest, MemoAnswersSharedPredicates) {
  Relation rel = PaperIncomeRelation();
  DenialConstraint phi1 = Phi1(rel);
  EncodedRelation E(rel);
  EvalIndex index(rel, phi1, EvalIndex::kDefaultMemoBudget, &E);
  ASSERT_TRUE(index.pair_memo_built());

  eval_counters::Reset();
  bool truncated = false;
  std::vector<Violation> indexed = index.FindViolationsCapped(
      phi1, 0, std::numeric_limits<int64_t>::max(), &truncated);
  EvalCounters after = eval_counters::Snapshot();
  EXPECT_EQ(after.predicate_evals, 0);
  EXPECT_EQ(after.code_predicate_evals, 0);
  EXPECT_GT(after.memo_hits, 0);

  std::vector<Violation> plain = FindViolationsOf(E, phi1, 0);
  EXPECT_EQ(plain, indexed);
}

}  // namespace
}  // namespace cvrepair
