// Tests of the dictionary-encoded columnar store (relation/encoded.h):
// dictionary code stability and rank recovery, sentinel semantics,
// constant-predicate thresholds, random EvalOp equivalence of the
// compiled evaluators, scans against the naive Definition 5/6 reference
// (reference_scan.h) on the paper's generators, and the
// ApplyChange/AppendRow maintenance protocol.
#include "relation/encoded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/dense.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/predicate.h"
#include "dc/violation.h"
#include "reference_scan.h"

namespace cvrepair {
namespace {

TEST(DictionaryTest, CodesAreStableAppendOrderedAndRanksOrdered) {
  Dictionary dict;
  // Inserted out of semantic order.
  Code c30 = dict.EncodeInsert(Value::Int(30));
  Code c10 = dict.EncodeInsert(Value::Int(10));
  Code c20 = dict.EncodeInsert(Value::Int(20));
  EXPECT_EQ(c30, 0);
  EXPECT_EQ(c10, 1);
  EXPECT_EQ(c20, 2);
  // Re-inserting returns the existing code.
  EXPECT_EQ(dict.EncodeInsert(Value::Int(10)), c10);
  EXPECT_EQ(dict.size(), 3);
  // Ranks reflect semantic order, not insertion order.
  EXPECT_LT(dict.rank(c10), dict.rank(c20));
  EXPECT_LT(dict.rank(c20), dict.rank(c30));
  // EvalOp-equality classes share a code: Int(20) and Double(20.0) are
  // the same entry.
  EXPECT_EQ(dict.EncodeInsert(Value::Double(20.0)), c20);
  EXPECT_EQ(dict.size(), 3);
}

TEST(DictionaryTest, SentinelsAndLookupMisses) {
  Dictionary dict;
  EXPECT_EQ(dict.EncodeInsert(Value::Null()), kNullCode);
  EXPECT_EQ(dict.EncodeInsert(Value::Fresh(7)), kFreshCode);
  EXPECT_EQ(dict.size(), 0);  // sentinels never enter the dictionary
  EXPECT_EQ(dict.Lookup(Value::Int(5)), kAbsentCode);
  dict.EncodeInsert(Value::Int(5));
  EXPECT_EQ(dict.Lookup(Value::Int(5)), 0);
  EXPECT_EQ(dict.Lookup(Value::Null()), kNullCode);
  EXPECT_EQ(dict.Lookup(Value::Fresh(3)), kFreshCode);
}

TEST(DictionaryTest, InsertRecoversRanksWithoutMovingCodes) {
  Dictionary dict;
  Code a = dict.EncodeInsert(Value::Int(10));
  Code b = dict.EncodeInsert(Value::Int(30));
  int32_t rank_a = dict.rank(a);
  int32_t rank_b = dict.rank(b);
  // A new middle value shifts ranks above it but never reassigns codes.
  Code mid = dict.EncodeInsert(Value::Int(20));
  EXPECT_EQ(mid, 2);
  EXPECT_EQ(dict.rank(a), rank_a);
  EXPECT_EQ(dict.rank(b), rank_b + 1);
  EXPECT_LT(dict.rank(a), dict.rank(mid));
  EXPECT_LT(dict.rank(mid), dict.rank(b));
}

TEST(DictionaryTest, ClassesAreDisjointInPackedRanks) {
  Dictionary dict;
  Code n = dict.EncodeInsert(Value::Int(5));
  Code s = dict.EncodeInsert(Value::String("5"));
  EXPECT_NE(n, s);
  EXPECT_EQ(dict.rank(n) >> Dictionary::kRankBits, 0);
  EXPECT_EQ(dict.rank(s) >> Dictionary::kRankBits, 1);
}

// Exhaustive grid for constant predicates: every operator against
// constants that are present, between entries, below/above all entries,
// NULL, fresh, and of the other comparison class. The compiled evaluator
// must agree with Predicate::Eval (EvalOp semantics) cell for cell.
TEST(EncodedPredicateTest, ConstantBoundsMatchEvalOpOnFullGrid) {
  Schema schema;
  schema.AddAttribute("N", AttrType::kDouble);
  schema.AddAttribute("S", AttrType::kString);
  Relation rel(schema);
  for (double v : {10.0, 20.0, 30.0, 40.0}) {
    rel.AddRow({Value::Double(v), Value::String("s" + std::to_string(int(v)))});
  }
  rel.AddRow({Value::Null(), Value::Fresh(1)});
  rel.AddRow({Value::Int(20), Value::String("s20")});  // cross-width dup
  EncodedRelation E(rel);

  std::vector<Value> constants = {
      Value::Double(20.0), Value::Int(20),  Value::Double(25.0),
      Value::Double(5.0),  Value::Double(99.0), Value::Null(),
      Value::Fresh(2),     Value::String("s20"), Value::String("a"),
      Value::String("zz"), Value::String("s25")};
  std::vector<int> rows(1);
  for (AttrId attr = 0; attr < rel.num_attributes(); ++attr) {
    for (const Value& c : constants) {
      for (Op op : AllOps()) {
        Predicate p = Predicate::WithConstant(0, attr, op, c);
        EncodedPredicateEval ev(E, p);
        EXPECT_TRUE(ev.on_codes());
        for (int i = 0; i < rel.num_rows(); ++i) {
          rows[0] = i;
          EXPECT_EQ(ev.Eval(rows), p.Eval(rel, rows))
              << "attr=" << attr << " op=" << OpToString(op)
              << " c=" << c.ToString() << " row=" << i;
        }
      }
    }
  }
}

// Randomized equivalence over every predicate shape: same-attribute
// two-cell (pure code/rank compares), constant (threshold compares), and
// cross-attribute two-cell (fallback). Columns mix Int/Double widths,
// NULLs, and fresh variables — everything EvalOp supports except NaN.
TEST(EncodedPredicateTest, RandomPredicatesMatchBoxedEvaluation) {
  std::mt19937_64 rng(42);
  Schema schema;
  schema.AddAttribute("A", AttrType::kDouble);
  schema.AddAttribute("B", AttrType::kDouble);
  schema.AddAttribute("C", AttrType::kString);
  Relation rel(schema);
  std::uniform_int_distribution<int> num(0, 6);
  std::uniform_int_distribution<int> shape(0, 9);
  auto random_numeric = [&]() -> Value {
    int roll = shape(rng);
    if (roll == 0) return Value::Null();
    if (roll == 1) return Value::Fresh(rng() % 5 + 1);
    return rng() % 2 ? Value::Int(num(rng))
                     : Value::Double(num(rng) + (rng() % 2 ? 0.5 : 0.0));
  };
  auto random_string = [&]() -> Value {
    int roll = shape(rng);
    if (roll == 0) return Value::Null();
    if (roll == 1) return Value::Fresh(rng() % 5 + 1);
    return Value::String("s" + std::to_string(num(rng)));
  };
  for (int i = 0; i < 40; ++i) {
    rel.AddRow({random_numeric(), random_numeric(), random_string()});
  }
  EncodedRelation E(rel);

  std::vector<Predicate> predicates;
  for (Op op : AllOps()) {
    for (AttrId a = 0; a < 3; ++a) {
      predicates.push_back(Predicate::TwoCell(0, a, op, 1, a));
      predicates.push_back(
          Predicate::WithConstant(0, a, op,
                                  a < 2 ? random_numeric() : random_string()));
    }
    predicates.push_back(Predicate::TwoCell(0, 0, op, 1, 1));  // cross-attr
    predicates.push_back(Predicate::TwoCell(0, 0, op, 1, 2));  // cross-class
  }
  std::uniform_int_distribution<int> row(0, rel.num_rows() - 1);
  for (const Predicate& p : predicates) {
    EncodedPredicateEval ev(E, p);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<int> rows = {row(rng), row(rng)};
      EXPECT_EQ(ev.Eval(rows), p.Eval(rel, rows))
          << p.ToString(schema) << " rows=" << rows[0] << "," << rows[1];
    }
  }
}

struct GeneratorCase {
  std::string name;
  Relation dirty;
  ConstraintSet sigma;
};

GeneratorCase MakeHospCase() {
  HospConfig config;
  config.num_hospitals = 8;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = hosp.noise_attrs;
  noise.seed = 5;
  return {"hosp", InjectNoise(hosp.clean, noise).dirty,
          hosp.given_oversimplified};
}

GeneratorCase MakeCensusCase() {
  CensusConfig config;
  config.num_rows = 150;
  config.num_attributes = 8;
  CensusData census = MakeCensus(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = census.noise_attrs;
  noise.seed = 5;
  return {"census", InjectNoise(census.clean, noise).dirty, census.given};
}

GeneratorCase MakeTaxCase() {
  TaxConfig config;
  config.num_rows = 150;
  TaxData tax = MakeTax(config);
  NoiseConfig noise;
  noise.error_rate = 0.06;
  noise.target_attrs = tax.noise_attrs;
  noise.seed = 5;
  return {"tax", InjectNoise(tax.clean, noise).dirty, tax.given};
}

GeneratorCase MakeDenseCase() {
  DenseConfig config;
  config.rows_per_track = 60;
  DenseData dense = MakeDense(config);
  return {"dense", dense.dirty, dense.sigma};
}

// Every scan equals the naive reference on the generators: the full scan
// as a set (its order is the scan's own), Satisfies, each capped scan as
// the prefix of the full scan with truncated == (total > cap), and the
// suspects of the first violations' cells.
TEST(EncodedScanTest, ScansMatchReferenceOnGenerators) {
  for (const GeneratorCase& gc : {MakeHospCase(), MakeCensusCase(),
                                  MakeTaxCase(), MakeDenseCase()}) {
    SCOPED_TRACE(gc.name);
    EncodedRelation E(gc.dirty);
    std::vector<Violation> found = FindViolations(E, gc.sigma);
    std::vector<reference::TupleList> expected =
        reference::ReferenceViolations(gc.dirty, gc.sigma);
    ASSERT_FALSE(expected.empty()) << "workload violates nothing";
    EXPECT_EQ(reference::Sorted(found), expected);
    EXPECT_FALSE(Satisfies(E, gc.sigma));

    for (size_t k = 0; k < gc.sigma.size(); ++k) {
      const int index = static_cast<int>(k);
      std::vector<Violation> full = FindViolationsOf(E, gc.sigma[k], index);
      const int64_t total = static_cast<int64_t>(full.size());
      for (int64_t cap : {int64_t{1}, int64_t{5}, total - 1, total}) {
        if (cap < 0) continue;
        bool truncated = false;
        std::vector<Violation> capped =
            FindViolationsOfCapped(E, gc.sigma[k], index, cap, &truncated);
        EXPECT_EQ(truncated, total > cap) << "constraint " << k << " cap "
                                          << cap;
        ASSERT_EQ(static_cast<int64_t>(capped.size()), std::min(cap, total));
        EXPECT_TRUE(std::equal(capped.begin(), capped.end(), full.begin()))
            << "constraint " << k << " cap " << cap
            << ": not a prefix of the full scan";
      }
    }

    // Suspects over the cells of the first violations.
    CellSet changing;
    for (size_t i = 0; i < found.size() && i < 10; ++i) {
      const DenialConstraint& c = gc.sigma[found[i].constraint_index];
      for (const Cell& cell : ViolationCells(c, found[i].rows)) {
        changing.insert(cell);
      }
    }
    std::vector<reference::TupleList> expected_suspects =
        reference::ReferenceSuspects(gc.dirty, gc.sigma, changing);
    EXPECT_FALSE(expected_suspects.empty());
    EXPECT_EQ(reference::Sorted(FindSuspects(E, gc.sigma, changing)),
              expected_suspects);
  }
}

TEST(EncodedRelationTest, ApplyChangeKeepsMirrorConsistent) {
  GeneratorCase gc = MakeHospCase();
  Relation rel = gc.dirty;
  EncodedRelation E(rel);
  ASSERT_TRUE(E.in_sync());

  AttrId attr = 0;
  const uint64_t attr_epoch0 = E.attr_epoch(attr);
  const uint64_t structural0 = E.structural_epoch();
  // Overwrite with a value that already exists elsewhere in the column:
  // the dictionary must not grow and the epochs must hold still.
  rel.SetValue({0, attr}, rel.Get(1, attr));
  E.ApplyChange(0, attr);
  EXPECT_TRUE(E.in_sync());
  EXPECT_EQ(E.attr_epoch(attr), attr_epoch0);
  EXPECT_EQ(E.structural_epoch(), structural0);
  EXPECT_EQ(E.code(0, attr), E.code(1, attr));

  // A genuinely new value grows the dictionary and bumps its attribute's
  // epoch; the rows did not move, so the structural epoch holds.
  Code old_code_row2 = E.code(2, attr);
  rel.SetValue({0, attr}, Value::String("a value nobody generated"));
  E.ApplyChange(0, attr);
  EXPECT_TRUE(E.in_sync());
  EXPECT_GT(E.attr_epoch(attr), attr_epoch0);
  EXPECT_EQ(E.structural_epoch(), structural0);
  // Codes of untouched cells are stable across the growth.
  EXPECT_EQ(E.code(2, attr), old_code_row2);

  // NULL and fresh map to their sentinels.
  rel.SetValue({0, attr}, Value::Null());
  E.ApplyChange(0, attr);
  EXPECT_EQ(E.code(0, attr), kNullCode);
  rel.SetValue({0, attr}, Value::Fresh(99));
  E.ApplyChange(0, attr);
  EXPECT_EQ(E.code(0, attr), kFreshCode);

  // A forgotten ApplyChange is detectable.
  rel.SetValue({1, attr}, Value::String("unmirrored"));
  EXPECT_FALSE(E.in_sync());
  E.ApplyChange(1, attr);
  EXPECT_TRUE(E.in_sync());

  // After the whole edit sequence the delta-maintained mirror scans
  // exactly like a freshly encoded one, and finds viol(I, Σ).
  EncodedRelation fresh(rel);
  std::vector<Violation> via_mirror = FindViolations(E, gc.sigma);
  std::vector<Violation> via_fresh = FindViolations(fresh, gc.sigma);
  EXPECT_EQ(via_mirror, via_fresh);
  EXPECT_EQ(reference::Sorted(via_mirror),
            reference::ReferenceViolations(rel, gc.sigma));
}

// AppendRow zone-map soundness at the 1024-code arena block boundary:
// appends that open a fresh segment mid-stream must leave every
// (attribute, block) BlockMeta sound — min/max packed rank covering the
// resident rows, has_sentinel set when a sentinel landed in the block —
// or the zone-map pruned scans would silently skip a violating block.
// All pre-existing test datasets are smaller than one block, so this is
// the only direct coverage of multi-block maintenance.
TEST(EncodedRelationTest, AppendRowAcrossBlockBoundaryKeepsZoneMapsSound) {
  Schema schema;
  schema.AddAttribute("K", AttrType::kString);
  schema.AddAttribute("V", AttrType::kInt);
  Relation rel(schema);
  // K and V are perfectly correlated (lexicographic K order == numeric V
  // order), so the clean base violates nothing and every violation below
  // is planted by a specific append.
  auto key = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%04d", i);
    return std::string(buf);
  };
  for (int i = 0; i < EncodedRelation::kBlockSize - 2; ++i) {
    rel.AddRow({Value::String(key(i)), Value::Int(i)});
  }
  ConstraintSet sigma = {
      DenialConstraint::FromFd({0}, 1, "fd"),
      // No equality join: detection runs the blocked zone-map partner
      // loop on both columns.
      DenialConstraint({Predicate::TwoCell(0, 1, Op::kGt, 1, 1),
                        Predicate::TwoCell(0, 0, Op::kLt, 1, 0)},
                       "order"),
      DenialConstraint(
          {Predicate::WithConstant(0, 1, Op::kGt, Value::Int(2000))}, "cap")};
  ASSERT_TRUE(reference::ReferenceViolations(rel, sigma).empty());

  EncodedRelation E(rel);
  ASSERT_EQ(E.num_blocks(), 1);

  // Appends crossing into block 1: duplicate keys (FD violations pairing
  // the fresh block against block 0), decorrelated rows (order violations
  // the blocked partner loop must not zone-map-skip), brand-new dictionary
  // values at both rank extremes (rank shifts must refresh every block's
  // metas, not just the tail's), a cap violator, and a sentinel.
  std::vector<std::vector<Value>> appends = {
      {Value::String(key(0)), Value::Int(3)},        // fd + order vs block 0
      {Value::String("zz y0"), Value::Int(2095)},    // cap; new max ranks
      {Value::String(key(200)), Value::Null()},      // sentinel in block 1
      {Value::String("a first"), Value::Int(-5)},    // new min ranks
      {Value::String(key(999)), Value::Int(980)},    // order vs rows 981..1021
      {Value::String("zz z9"), Value::Int(1021)},    // order vs the cap row
  };
  for (const auto& row_values : appends) {
    rel.AddRow(row_values);
    E.AppendRow();
    ASSERT_TRUE(E.in_sync());
    // The delta-maintained mirror must scan exactly like a freshly
    // encoded relation after every append, and find viol(I, Σ).
    EncodedRelation fresh(rel);
    EXPECT_EQ(FindViolations(E, sigma), FindViolations(fresh, sigma));
    EXPECT_EQ(reference::Sorted(FindViolations(E, sigma)),
              reference::ReferenceViolations(rel, sigma));
  }
  EXPECT_EQ(E.num_blocks(), 2);
  EXPECT_EQ(E.num_rows(), EncodedRelation::kBlockSize + 4);
  // The planted cross-block violations were found (not zone-map skipped).
  EXPECT_FALSE(FindViolations(E, {sigma[0]}).empty());
  EXPECT_FALSE(FindViolations(E, {sigma[1]}).empty());
  EXPECT_FALSE(FindViolations(E, {sigma[2]}).empty());
}

}  // namespace
}  // namespace cvrepair
