// Topology-aware decomposition of giant conflict components (DESIGN.md
// §12): SplitComponent's structural contract on chains, barbells, cliques
// and degenerate inputs, RestrictComponent's re-indexing, and the vfree
// split/stitch path end to end — including a workload engineered so the
// independently solved parts disagree across a boundary atom and the
// stitching check must merge and re-solve.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <vector>

#include "data/dense.h"
#include "dc/violation.h"
#include "graph/decompose.h"
#include "relation/encoded.h"
#include "relation/domain_stats.h"
#include "repair/vfree.h"
#include "solver/components.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

RcAtom VarAtom(int lhs, Op op, int rhs) {
  RcAtom a;
  a.lhs_var = lhs;
  a.op = op;
  a.rhs_is_var = true;
  a.rhs_var = rhs;
  return a;
}

RcAtom ConstAtom(int lhs, Op op, Value rhs) {
  RcAtom a;
  a.lhs_var = lhs;
  a.op = op;
  a.rhs_is_var = false;
  a.rhs_const = std::move(rhs);
  return a;
}

// A component over cells (0,0)..(n-1,0) with the given atoms (sorted and
// deduplicated to meet the Component contract).
Component MakeComponent(int n, std::vector<RcAtom> atoms) {
  Component comp;
  for (int i = 0; i < n; ++i) comp.cells.push_back({i, 0});
  std::sort(atoms.begin(), atoms.end());
  atoms.erase(std::unique(atoms.begin(), atoms.end()), atoms.end());
  comp.atoms = std::move(atoms);
  return comp;
}

Component MakeChain(int n) {
  std::vector<RcAtom> atoms;
  for (int i = 0; i + 1 < n; ++i) atoms.push_back(VarAtom(i, Op::kLeq, i + 1));
  return MakeComponent(n, std::move(atoms));
}

// Every structural invariant a SplitPlan promises: parts partition the
// input vars, the var maps round-trip, parts obey the Component contract,
// and every binary atom is either inside one part or listed in
// cross_atoms with endpoints in different parts.
void CheckPlanInvariants(const Component& comp, const SplitPlan& plan) {
  const int n = static_cast<int>(comp.cells.size());
  ASSERT_EQ(plan.part_of.size(), comp.cells.size());
  ASSERT_EQ(plan.local_of.size(), comp.cells.size());
  size_t total_cells = 0;
  for (const Component& part : plan.parts) {
    ASSERT_FALSE(part.cells.empty());
    total_cells += part.cells.size();
    for (size_t i = 1; i < part.cells.size(); ++i) {
      EXPECT_TRUE(part.cells[i - 1] < part.cells[i]) << "cells not sorted";
    }
    for (size_t i = 1; i < part.atoms.size(); ++i) {
      EXPECT_TRUE(part.atoms[i - 1] < part.atoms[i]) << "atoms not sorted";
    }
    for (const RcAtom& a : part.atoms) {
      ASSERT_GE(a.lhs_var, 0);
      ASSERT_LT(a.lhs_var, static_cast<int>(part.cells.size()));
      if (a.rhs_is_var) {
        ASSERT_GE(a.rhs_var, 0);
        ASSERT_LT(a.rhs_var, static_cast<int>(part.cells.size()));
      }
    }
  }
  EXPECT_EQ(total_cells, comp.cells.size()) << "parts must partition vars";
  for (int v = 0; v < n; ++v) {
    const int p = plan.part_of[v];
    ASSERT_GE(p, 0);
    ASSERT_LT(p, static_cast<int>(plan.parts.size()));
    ASSERT_TRUE(plan.parts[p].cells[plan.local_of[v]] == comp.cells[v])
        << "var map does not round-trip for var " << v;
  }
  for (const RcAtom& a : comp.atoms) {
    if (!a.rhs_is_var) continue;
    const int pl = plan.part_of[a.lhs_var];
    const int pr = plan.part_of[a.rhs_var];
    if (pl == pr) {
      RcAtom local = a;
      local.lhs_var = plan.local_of[a.lhs_var];
      local.rhs_var = plan.local_of[a.rhs_var];
      EXPECT_TRUE(std::find(plan.parts[pl].atoms.begin(),
                            plan.parts[pl].atoms.end(),
                            local) != plan.parts[pl].atoms.end())
          << "intra-part atom missing from its part";
    } else {
      EXPECT_TRUE(std::find(plan.cross_atoms.begin(), plan.cross_atoms.end(),
                            a) != plan.cross_atoms.end())
          << "straddling atom missing from cross_atoms";
    }
  }
  for (const RcAtom& a : plan.cross_atoms) {
    ASSERT_TRUE(a.rhs_is_var);
    EXPECT_NE(plan.part_of[a.lhs_var], plan.part_of[a.rhs_var])
        << "cross atom does not straddle parts";
  }
}

TEST(DecomposeTest, WithinBudgetReturnsIdenticalSinglePart) {
  Component comp = MakeChain(5);
  DecomposeOptions opts;  // max_component = 24 > 5
  SplitPlan plan = SplitComponent(comp, opts);
  EXPECT_FALSE(plan.split());
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_TRUE(plan.parts[0].cells == comp.cells);
  EXPECT_TRUE(plan.parts[0].atoms == comp.atoms);
  EXPECT_TRUE(plan.cross_atoms.empty());
  EXPECT_TRUE(plan.boundary.empty());
}

TEST(DecomposeTest, ChainSplitsIntoBoundedParts) {
  Component comp = MakeChain(30);
  DecomposeOptions opts;
  opts.max_component = 8;
  SplitPlan plan = SplitComponent(comp, opts);
  EXPECT_TRUE(plan.split());
  EXPECT_GE(plan.parts.size(), 3u);
  EXPECT_FALSE(plan.boundary.empty());
  EXPECT_FALSE(plan.cross_atoms.empty());
  // Every cut is real: each part is strictly smaller than the input, and
  // no part outgrows the budget by more than the re-attached boundary.
  for (const Component& part : plan.parts) {
    EXPECT_LT(part.cells.size(), comp.cells.size());
    EXPECT_LE(part.cells.size(),
              static_cast<size_t>(opts.max_component) + plan.boundary.size());
  }
  CheckPlanInvariants(comp, plan);
}

TEST(DecomposeTest, BarbellCutsTheBridgeNotTheCliques) {
  // Two 6-cliques (vars 0..5 and 10..15) joined by the path 5-6-...-10.
  std::vector<RcAtom> atoms;
  for (int base : {0, 10}) {
    for (int i = base; i < base + 6; ++i) {
      for (int j = i + 1; j < base + 6; ++j) {
        atoms.push_back(VarAtom(i, Op::kEq, j));
      }
    }
  }
  for (int i = 5; i < 10; ++i) atoms.push_back(VarAtom(i, Op::kLeq, i + 1));
  Component comp = MakeComponent(16, std::move(atoms));
  DecomposeOptions opts;
  opts.max_component = 8;
  SplitPlan plan = SplitComponent(comp, opts);
  EXPECT_TRUE(plan.split());
  CheckPlanInvariants(comp, plan);
  // The cut lands on the bridge: each clique survives whole in one part.
  for (int base : {0, 10}) {
    const int part = plan.part_of[base];
    for (int v = base; v < base + 6; ++v) {
      EXPECT_EQ(plan.part_of[v], part)
          << "clique at " << base << " was torn apart";
    }
  }
  EXPECT_NE(plan.part_of[0], plan.part_of[10]);
}

TEST(DecomposeTest, CliqueNeverSplits) {
  // A 12-clique has no articulation point; even a tiny budget must leave
  // it whole rather than cut through the dense core.
  std::vector<RcAtom> atoms;
  for (int i = 0; i < 12; ++i) {
    for (int j = i + 1; j < 12; ++j) atoms.push_back(VarAtom(i, Op::kEq, j));
  }
  Component comp = MakeComponent(12, std::move(atoms));
  DecomposeOptions opts;
  opts.max_component = 4;
  SplitPlan plan = SplitComponent(comp, opts);
  EXPECT_FALSE(plan.split());
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_TRUE(plan.parts[0].cells == comp.cells);
  EXPECT_TRUE(plan.parts[0].atoms == comp.atoms);
  EXPECT_TRUE(plan.boundary.empty());
  EXPECT_TRUE(plan.cross_atoms.empty());
}

TEST(DecomposeTest, SingleCellComponentIsDegenerate) {
  Component comp = MakeComponent(1, {ConstAtom(0, Op::kGeq, Value::Int(3))});
  DecomposeOptions opts;
  opts.max_component = 0;  // even "oversized", there is nothing to cut
  SplitPlan plan = SplitComponent(comp, opts);
  EXPECT_FALSE(plan.split());
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_TRUE(plan.parts[0].cells == comp.cells);
  EXPECT_TRUE(plan.parts[0].atoms == comp.atoms);
}

TEST(DecomposeTest, RestrictComponentReindexesAtoms) {
  Component comp = MakeComponent(
      5, {VarAtom(0, Op::kLeq, 1), VarAtom(1, Op::kLeq, 2),
          VarAtom(2, Op::kLeq, 3), VarAtom(3, Op::kLeq, 4),
          ConstAtom(2, Op::kGeq, Value::Int(7))});
  Component sub = RestrictComponent(comp, {1, 2, 3});
  ASSERT_EQ(sub.cells.size(), 3u);
  EXPECT_TRUE(sub.cells[0] == comp.cells[1]);
  EXPECT_TRUE(sub.cells[2] == comp.cells[3]);
  // Atoms with an endpoint outside {1,2,3} are dropped; the rest are
  // re-indexed to 0..2.
  std::vector<RcAtom> want = {VarAtom(0, Op::kLeq, 1), VarAtom(1, Op::kLeq, 2),
                              ConstAtom(1, Op::kGeq, Value::Int(7))};
  std::sort(want.begin(), want.end());
  EXPECT_TRUE(sub.atoms == want);
}

// Restores the global pool budget even when an assertion bails out.
class PoolGuard {
 public:
  ~PoolGuard() { ThreadPool::SetNumThreads(1); }
};

// ---- The stitching check, exercised for real: an equality chain whose
// left half says "a" and right half says "b". With every Val cell
// changing, the repair context is one pure var-var chain v0=v1=...=v19;
// a small max_component splits it, all-"a" parts and all-"b" parts each
// keep their originals at zero cost, and the boundary atom at the a/b
// border is violated — the stitch loop must merge and re-solve until the
// combined assignment is consistent.
TEST(DecomposeTest, StitchMergeRepairsCrossAtomViolations) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(1);
  constexpr int kRows = 20;
  constexpr AttrId kKeyA = 0, kKeyB = 1, kVal = 2;
  Schema schema;
  schema.AddAttribute("KeyA", AttrType::kInt);
  schema.AddAttribute("KeyB", AttrType::kInt);
  schema.AddAttribute("Val", AttrType::kString);
  Relation rel(schema);
  for (int i = 0; i < kRows; ++i) {
    rel.AddRow({Value::Int(i / 2), Value::Int((i + 1) / 2),
                Value::String(i < kRows / 2 ? "a" : "b")});
  }
  // Overlapping half-shifted pair windows (the dense-generator trick):
  // rows sharing KeyA or KeyB must agree on Val, chaining all rows.
  ConstraintSet sigma = {
      DenialConstraint({Predicate::TwoCell(0, kKeyA, Op::kEq, 1, kKeyA),
                        Predicate::TwoCell(0, kVal, Op::kNeq, 1, kVal)}),
      DenialConstraint({Predicate::TwoCell(0, kKeyB, Op::kEq, 1, kKeyB),
                        Predicate::TwoCell(0, kVal, Op::kNeq, 1, kVal)})};
  std::vector<Cell> changing;
  for (int i = 0; i < kRows; ++i) changing.push_back({i, kVal});
  DomainStats stats(rel);

  struct Run {
    std::optional<Relation> repaired;
    RepairStats stats;
    double cost = 0.0;  // the tally of the returned repair
  };
  auto run = [&](bool decompose) {
    VfreeOptions options;
    options.decompose = decompose;
    options.max_component = 6;
    Run out;
    int64_t fresh = 1;
    std::optional<ScopedRepair> scoped = ReplayComponents(
        rel, stats,
        PlanComponents(sigma, changing, options, EncodedRelation(rel)),
        std::numeric_limits<double>::infinity(), options, nullptr, &out.stats,
        &fresh);
    if (scoped) {
      out.cost = TallyRepair(rel, stats, scoped->assignments, options.cost,
                             options.strategy, options.subset)
                     .cost;
      out.repaired = rel;
      for (auto& [cell, value] : scoped->assignments) {
        out.repaired->SetValue(cell, std::move(value));
      }
    }
    return out;
  };

  const Run on = run(true);
  ASSERT_TRUE(on.repaired.has_value());
  EXPECT_TRUE(Satisfies(*on.repaired, sigma));
  EXPECT_GE(on.stats.components_split, 1);
  EXPECT_GE(on.stats.stitch_merges, 1)
      << "the a/b boundary atom must force a merged re-solve";

  const Run off = run(false);
  ASSERT_TRUE(off.repaired.has_value());
  EXPECT_TRUE(Satisfies(*off.repaired, sigma));
  EXPECT_EQ(off.stats.stitch_merges, 0);
  EXPECT_GT(off.cost, 0.0);
  EXPECT_LE(on.cost, off.cost + 1e-9)
      << "stitching must not cost more than the undecomposed solve";
}

// ---- End to end on the adversarial dense generator: the giant banded
// component splits, the repair stays violation-free at no extra cost, and
// the decomposed path is bit-identical across thread counts.
TEST(DecomposeTest, DenseWorkloadSplitsAndStaysViolationFree) {
  PoolGuard guard;
  DenseConfig config;
  config.num_tracks = 1;
  config.rows_per_track = 120;
  config.error_rate = 0.4;
  DenseData dense = MakeDense(config);

  auto run = [&](bool decompose, int threads) {
    ThreadPool::SetNumThreads(threads);
    VfreeOptions options;
    options.decompose = decompose;
    options.max_component = 12;
    return VfreeRepair(dense.dirty, dense.sigma, options);
  };

  RepairResult off = run(false, 1);
  RepairResult on = run(true, 1);
  EXPECT_TRUE(Satisfies(off.repaired, dense.sigma));
  EXPECT_TRUE(Satisfies(on.repaired, dense.sigma));
  EXPECT_GE(on.stats.components_split, 1)
      << "the dense workload must produce a splittable giant component";
  EXPECT_GT(on.stats.giant_component_cells, 0);
  EXPECT_LE(on.stats.repair_cost, off.stats.repair_cost + 1e-9);

  RepairResult on4 = run(true, 4);
  ASSERT_EQ(on.repaired.num_rows(), on4.repaired.num_rows());
  for (int i = 0; i < on.repaired.num_rows(); ++i) {
    for (AttrId a = 0; a < on.repaired.num_attributes(); ++a) {
      ASSERT_EQ(on.repaired.Get(i, a), on4.repaired.Get(i, a))
          << "decomposed repair differs at t" << i << "." << a
          << " between 1 and 4 threads";
    }
  }
  EXPECT_EQ(on.stats.repair_cost, on4.stats.repair_cost);
  EXPECT_EQ(on.stats.components_split, on4.stats.components_split);
  EXPECT_EQ(on.stats.stitch_merges, on4.stats.stitch_merges);
}

}  // namespace
}  // namespace cvrepair
