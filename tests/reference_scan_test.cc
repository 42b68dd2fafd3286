// The one scan implementation (dc/violation.cc: dictionary codes, block
// kernels, zone maps, hash partitions, sharding) against the naive
// Definition 5/6 reference of reference_scan.h: first the reference itself
// on the paper's worked examples, then random instances — NULLs, fresh
// variables, Int and Double spellings of one number in one column — under
// random denial constraints with constants, cross-attribute and
// same-tuple predicates, at 1 and 4 threads. The same instances check the
// conflict hypergraph built from the scan's violations (as one list and
// as per-constraint views) and every repair-context build against naive
// builds.
#include "reference_scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dc/violation.h"
#include "graph/conflict_hypergraph.h"
#include "paper_example.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "solver/repair_context.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

using reference::ReferenceContextAtoms;
using reference::ReferenceSuspects;
using reference::ReferenceViolations;
using reference::Sorted;
using reference::TupleList;

// The reference on Examples 6 and 9 of the paper, by hand: viol(I, φ4')
// and susp({t4.Tax}, φ4').
TEST(ReferenceScanTest, ReferenceReproducesExamples6And9) {
  Relation rel = testing_fixture::PaperIncomeRelation();
  const ConstraintSet sigma = {testing_fixture::Phi4Prime(rel)};
  EXPECT_EQ(ReferenceViolations(rel, sigma),
            (std::vector<TupleList>{{0, {4, 3}}, {0, {5, 3}}, {0, {6, 3}}}));
  const AttrId tax = *rel.schema().Find("Tax");
  const CellSet changing = {{3, tax}};
  std::vector<TupleList> suspects;
  for (int j : {0, 1, 2}) suspects.push_back({0, {3, j}});
  for (int i : {4, 5, 6, 7, 8, 9}) suspects.push_back({0, {i, 3}});
  EXPECT_EQ(ReferenceSuspects(rel, sigma, changing), suspects);
}

// rc({t6.A}, Σ) on values the context's keys must keep apart or merge
// exactly as the ordered set of boxed atoms does: Int(1) and Double(1.0)
// share a dictionary code in A but are two atoms; Int(2^53) and
// Int(2^53 + 1) share one too and are two atoms; Double(1.0) in B is the
// same atom as Double(1.0) in A; 0.0 and -0.0 are one atom, the first to
// arrive; NULL and fresh fixed operands give no atom; and of the equally
// tight lower bounds Double(3.0) and Int(3) the smaller atom, Int(3), is
// kept whichever arrives first.
TEST(ReferenceScanTest, ContextAtomsOnEqualValuesAcrossKindsAndAttributes) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kDouble);
  schema.AddAttribute("B", AttrType::kDouble);
  schema.AddAttribute("C", AttrType::kDouble);
  constexpr int64_t kBig = int64_t{1} << 53;
  Relation rel(schema);
  rel.AddRow({Value::Int(1), Value::Double(0.0), Value::Double(3.0)});
  rel.AddRow({Value::Double(1.0), Value::Double(-0.0), Value::Int(3)});
  rel.AddRow({Value::Int(1), Value::Null(), Value::Double(2.0)});
  rel.AddRow({Value::Fresh(1), Value::Double(1.0), Value::Null()});
  rel.AddRow({Value::Int(kBig), Value::Double(5.0), Value::Fresh(2)});
  rel.AddRow({Value::Int(kBig + 1), Value::Double(0.0), Value::Double(1.0)});
  rel.AddRow({Value::Double(7.0), Value::Double(7.0), Value::Double(0.5)});
  const ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, 0, Op::kEq, 1, 0)}),
      DenialConstraint({Predicate::TwoCell(0, 0, Op::kEq, 1, 1)}),
      DenialConstraint({Predicate::TwoCell(0, 0, Op::kLt, 1, 2)})};
  const CellSet changing = {{6, 0}};
  const std::vector<Cell> cells = {{6, 0}};

  auto ne = [](Value c) { return RcAtom{0, Op::kNeq, false, 0, std::move(c)}; };
  const std::vector<RcAtom> want = {
      ne(Value::Int(1)),
      RcAtom{0, Op::kGeq, false, 0, Value::Int(3)},
      ne(Value::Int(kBig)),
      ne(Value::Int(kBig + 1)),
      ne(Value::Double(0.0)),
      ne(Value::Double(1.0)),
      ne(Value::Double(5.0))};
  EXPECT_EQ(ReferenceContextAtoms(rel, sigma, changing), want);

  const EncodedRelation E(rel);
  std::vector<Violation> suspects;
  for (const auto& [k, rows] : ReferenceSuspects(rel, sigma, changing)) {
    suspects.push_back({k, rows});
  }
  EXPECT_EQ(RepairContext::Build(rel, sigma, cells, suspects).atoms(), want);
  EXPECT_EQ(RepairContext::Build(E, sigma, cells, suspects).atoms(), want);
  int64_t count = 0;
  int64_t duplicates = 0;
  const RepairContext scanned =
      RepairContext::BuildFromScan(E, sigma, cells, &count, &duplicates);
  EXPECT_EQ(scanned.atoms(), want);
  EXPECT_EQ(count, static_cast<int64_t>(suspects.size()));
  // Dropped on their keys: both orientations of the first constraint reach
  // each row, so three repeats of Int(1) and one of Double(1.0) in A; then
  // -0.0 and the second 0.0 after B's first zero. The Ints past 2^53 are
  // not keyed.
  EXPECT_EQ(duplicates, 6);

  // 0.0 (row 0) and -0.0 (row 1) of B: whichever arrives first is kept,
  // and the two tied bounds keep Int(3) in either order.
  for (const bool negative_first : {false, true}) {
    std::vector<Violation> zeros = {{1, {6, 0}}, {1, {6, 1}}};
    std::vector<Violation> bounds = {{2, {6, 0}}, {2, {6, 1}}};
    if (negative_first) {
      std::swap(zeros[0], zeros[1]);
      std::swap(bounds[0], bounds[1]);
    }
    std::vector<Violation> list = zeros;
    list.insert(list.end(), bounds.begin(), bounds.end());
    for (const RepairContext& rc :
         {RepairContext::Build(rel, sigma, cells, list),
          RepairContext::Build(E, sigma, cells, list)}) {
      ASSERT_EQ(rc.atoms().size(), 2u);
      EXPECT_EQ(rc.atoms()[0], (RcAtom{0, Op::kGeq, false, 0, Value::Int(3)}));
      EXPECT_EQ(rc.atoms()[1].rhs_const, Value::Double(0.0));
      EXPECT_EQ(std::signbit(rc.atoms()[1].rhs_const.as_double()),
                negative_first);
    }
  }
}

int FuzzScale() {
  static const int scale = [] {
    const char* v = std::getenv("CVREPAIR_FUZZ_ITERS");
    int s = (v != nullptr && v[0] != '\0') ? std::atoi(v) : 1;
    return s > 0 ? s : 1;
  }();
  return scale;
}

struct Instance {
  Relation rel;
  ConstraintSet sigma;
};

// Columns: two numeric ones mixing Int and Double spellings (3 and 3.0
// are one value under EvalOp), a string one, and a numeric one with
// half-steps; about a tenth of the cells are NULL or fresh.
Instance RandomInstance(std::mt19937_64* rng, int rows) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kInt);
  schema.AddAttribute("B", AttrType::kDouble);
  schema.AddAttribute("S", AttrType::kString);
  schema.AddAttribute("C", AttrType::kDouble);
  auto roll = [rng](int n) { return static_cast<int>((*rng)() % n); };
  int64_t fresh = 1;
  auto value = [&](AttrId a) -> Value {
    int r = roll(20);
    if (r == 0) return Value::Null();
    if (r == 1) return Value::Fresh(fresh++);
    int v = roll(6);
    if (a == 2) return Value::String("s" + std::to_string(v));
    if (a == 3) return Value::Double(v + (roll(2) ? 0.5 : 0.0));
    return roll(2) ? Value::Int(v) : Value::Double(v);
  };
  Instance out{Relation(schema), {}};
  for (int i = 0; i < rows; ++i) {
    out.rel.AddRow({value(0), value(1), value(2), value(3)});
  }
  // Constants: in-domain values of either spelling, values outside the
  // domain, and the other comparison class.
  auto constant = [&](AttrId a) -> Value {
    switch (roll(4)) {
      case 0:
        return a == 2 ? Value::Int(roll(6)) : Value::String("s1");
      case 1:
        return a == 2 ? Value::String("zz") : Value::Double(roll(9) - 1.5);
      default:
        if (a == 2) return Value::String("s" + std::to_string(roll(6)));
        return roll(2) ? Value::Int(roll(6)) : Value::Double(roll(6));
    }
  };
  const int num_constraints = 1 + roll(3);
  for (int k = 0; k < num_constraints; ++k) {
    std::vector<Predicate> preds;
    const int m = 1 + roll(3);
    for (int p = 0; p < m; ++p) {
      const AttrId a = static_cast<AttrId>(roll(4));
      const Op op = AllOps()[static_cast<size_t>(roll(6))];
      const int t = roll(2);
      switch (roll(4)) {
        case 0:  // same attribute across tuples (joins, order probes)
          preds.push_back(Predicate::TwoCell(t, a, op, 1 - t, a));
          break;
        case 1:  // constant
          preds.push_back(Predicate::WithConstant(t, a, op, constant(a)));
          break;
        case 2:  // cross-attribute, across tuples
          preds.push_back(Predicate::TwoCell(
              t, a, op, 1 - t, static_cast<AttrId>((a + 1 + roll(3)) % 4)));
          break;
        default:  // cross-attribute, one tuple
          preds.push_back(Predicate::TwoCell(
              t, a, op, t, static_cast<AttrId>((a + 1 + roll(3)) % 4)));
      }
    }
    out.sigma.push_back(DenialConstraint(std::move(preds)));
  }
  return out;
}

// A ConflictHypergraph against ReferenceHypergraph of `violations`,
// accessor by accessor.
void ExpectHypergraphMatchesReference(const Instance& inst,
                                      const std::vector<Violation>& violations,
                                      const ConflictHypergraph& got) {
  const reference::Hypergraph want =
      reference::ReferenceHypergraph(inst.rel, inst.sigma, violations);
  ASSERT_EQ(got.num_vertices(), static_cast<int>(want.cells.size()));
  ASSERT_EQ(got.num_edges(), static_cast<int>(want.edges.size()));
  for (int v = 0; v < got.num_vertices(); ++v) {
    const size_t i = static_cast<size_t>(v);
    EXPECT_EQ(got.cell(v), want.cells[i]) << "vertex " << v;
    EXPECT_EQ(got.weight(v), want.weights[i]) << "vertex " << v;
    EXPECT_EQ(got.value_frequency(v), want.value_frequency[i])
        << "vertex " << v;
    EXPECT_EQ(got.domain_size(v), want.domain_size[i]) << "vertex " << v;
    EXPECT_EQ(got.on_inequality_predicate(v), want.on_inequality_predicate[i])
        << "vertex " << v;
    EXPECT_EQ(got.incident_edges(v), want.incident[i]) << "vertex " << v;
  }
  for (int e = 0; e < got.num_edges(); ++e) {
    EXPECT_EQ(got.edge(e), want.edges[static_cast<size_t>(e)]) << "edge " << e;
  }
}

// The candidate search's two forms of one union: per constraint its
// violations in rows order with constraint_index 0 (the facts), read as
// per-position views, must give the hypergraph of their copied, stamped
// concatenation.
void ExpectViewsHypergraphMatchesStamped(const Instance& inst,
                                         const EncodedRelation& E) {
  std::vector<std::vector<Violation>> facts;
  std::vector<Violation> stamped;
  for (size_t k = 0; k < inst.sigma.size(); ++k) {
    std::vector<Violation> f = FindViolationsOf(E, inst.sigma[k], 0);
    std::sort(f.begin(), f.end(), [](const Violation& a, const Violation& b) {
      return a.rows < b.rows;
    });
    for (Violation v : f) {
      v.constraint_index = static_cast<int>(k);
      stamped.push_back(std::move(v));
    }
    facts.push_back(std::move(f));
  }
  const ViolationsByPosition views(facts.begin(), facts.end());
  ExpectHypergraphMatchesReference(
      inst, stamped,
      ConflictHypergraph::Build(inst.rel, DomainStats(inst.rel), inst.sigma,
                                views));
}

// Every scan of `inst` at the current thread count against the reference:
// the full scan, Satisfies, each capped scan as a prefix of its full scan,
// the suspects of a random changing set (also with cells outside the
// instance added, which lie in no tuple list), the conflict hypergraph of
// the full scan and of its per-constraint views, and the repair context of
// each build against ReferenceContextAtoms.
// Returns the full scan so the caller can compare orders across thread
// counts.
std::vector<Violation> CheckAgainstReference(const Instance& inst,
                                             const CellSet& changing) {
  EncodedRelation E(inst.rel);
  const std::vector<TupleList> expected =
      ReferenceViolations(inst.rel, inst.sigma);
  std::vector<Violation> found = FindViolations(E, inst.sigma);
  EXPECT_EQ(Sorted(found), expected);
  EXPECT_EQ(Satisfies(E, inst.sigma), expected.empty());
  for (size_t k = 0; k < inst.sigma.size(); ++k) {
    const int index = static_cast<int>(k);
    std::vector<Violation> full = FindViolationsOf(E, inst.sigma[k], index);
    const int64_t total = static_cast<int64_t>(full.size());
    for (int64_t cap : {int64_t{0}, int64_t{1}, int64_t{3}, total}) {
      bool truncated = false;
      std::vector<Violation> capped =
          FindViolationsOfCapped(E, inst.sigma[k], index, cap, &truncated);
      EXPECT_EQ(truncated, total > cap) << "constraint " << k;
      const int64_t keep = std::min(cap, total);
      EXPECT_EQ(capped, std::vector<Violation>(full.begin(),
                                                full.begin() + keep))
          << "constraint " << k << " cap " << cap;
    }
  }
  const std::vector<TupleList> suspects =
      ReferenceSuspects(inst.rel, inst.sigma, changing);
  EXPECT_EQ(Sorted(FindSuspects(E, inst.sigma, changing)), suspects);
  const int n = inst.rel.num_rows();
  const AttrId m = inst.rel.num_attributes();
  CellSet with_outside = changing;
  with_outside.insert({{-1, 0}, {n, m - 1}, {0, -1}, {n - 1, m}});
  EXPECT_EQ(Sorted(FindSuspects(E, inst.sigma, with_outside)),
            ReferenceSuspects(inst.rel, inst.sigma, with_outside));

  ExpectHypergraphMatchesReference(
      inst, found,
      ConflictHypergraph::Build(inst.rel, DomainStats(inst.rel), inst.sigma,
                                found));
  ExpectViewsHypergraphMatchesStamped(inst, E);

  const std::vector<RcAtom> atoms =
      ReferenceContextAtoms(inst.rel, inst.sigma, changing);
  const std::vector<Cell> cells(changing.begin(), changing.end());
  const std::set<Cell> ordered(changing.begin(), changing.end());
  std::vector<Violation> suspect_lists;
  for (const auto& [k, rows] : suspects) suspect_lists.push_back({k, rows});
  int64_t count = 0;
  for (const RepairContext& rc :
       {RepairContext::Build(inst.rel, inst.sigma, cells, suspect_lists),
        RepairContext::Build(E, inst.sigma, cells, suspect_lists),
        RepairContext::BuildFromScan(E, inst.sigma, cells, &count)}) {
    EXPECT_EQ(rc.cells(), std::vector<Cell>(ordered.begin(), ordered.end()));
    EXPECT_EQ(rc.atoms(), atoms);
  }
  EXPECT_EQ(count, static_cast<int64_t>(suspects.size()));
  return found;
}

class ReferenceScanFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReferenceScanFuzz, RandomInstancesMatchAtOneAndFourThreads) {
  struct PoolGuard {
    ~PoolGuard() { ThreadPool::SetNumThreads(1); }
  } guard;
  const int seed = GetParam();
  std::mt19937_64 rng(static_cast<uint64_t>(seed) * 104729 + 7);
  // Small instances, plus on even seeds one that spans two storage
  // blocks and is large enough for the 4-thread scans to shard.
  std::vector<int> sizes;
  for (int i = 0; i < 12; ++i) {
    sizes.push_back(1 + static_cast<int>(rng() % 40));
  }
  if (seed % 2 == 0) {
    sizes.push_back(EncodedRelation::kBlockSize + 1 +
                    static_cast<int>(rng() % 64));
  }
  for (int rows : sizes) {
    const Instance inst = RandomInstance(&rng, rows);
    CellSet changing;
    const int num_changing = 1 + static_cast<int>(rng() % 6);
    for (int c = 0; c < num_changing; ++c) {
      changing.insert(Cell{static_cast<int>(rng() % rows),
                           static_cast<AttrId>(rng() % 4)});
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                 std::to_string(rows) + " rows, sigma:\n" +
                 ToString(inst.sigma, inst.rel.schema()));
    ThreadPool::SetNumThreads(1);
    const std::vector<Violation> serial =
        CheckAgainstReference(inst, changing);
    ThreadPool::SetNumThreads(4);
    EXPECT_EQ(CheckAgainstReference(inst, changing), serial)
        << "scan order varies with --threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceScanFuzz,
                         ::testing::Range(0, 4 * FuzzScale()));

}  // namespace
}  // namespace cvrepair
