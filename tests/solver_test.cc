#include "solver/csp_solver.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "data/census.h"
#include "data/dense.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/eval_counters.h"
#include "dc/violation.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "paper_example.h"
#include "relation/encoded.h"
#include "repair/vfree.h"
#include "solver/components.h"
#include "solver/materialized_cache.h"
#include "solver/repair_context.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {
namespace {

using testing_fixture::PaperIncomeRelation;
using testing_fixture::Phi4;
using testing_fixture::Phi4Prime;

// Builds the repair context of Example 10: Σ = {φ4'}, C = {t4.Tax}.
RepairContext Example10Context(const Relation& rel) {
  AttrId tax = *rel.schema().Find("Tax");
  std::vector<Cell> changing = {{3, tax}};
  ConstraintSet sigma = {Phi4Prime(rel)};
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end()));
  return RepairContext::Build(rel, sigma, changing, suspects);
}

TEST(RepairContextTest, Example10AtomsCompressToTightBounds) {
  Relation rel = PaperIncomeRelation();
  RepairContext rc = Example10Context(rel);
  ASSERT_EQ(rc.num_vars(), 1);
  // After compression: I'(t4.Tax) >= 0 (from t1..t3) and <= 0 (from
  // t5..t7; the <=21 and <=40 bounds are dominated).
  ASSERT_EQ(rc.atoms().size(), 2u);
  for (const RcAtom& a : rc.atoms()) {
    EXPECT_FALSE(a.rhs_is_var);
    EXPECT_DOUBLE_EQ(a.rhs_const.numeric(), 0.0);
    EXPECT_TRUE(a.op == Op::kGeq || a.op == Op::kLeq);
  }
}

// The changing set the repair pipeline would pick for (I, Σ): a greedy
// vertex cover of the conflict hypergraph of its violations.
std::vector<Cell> CoverOf(const Relation& I, const ConstraintSet& sigma) {
  std::vector<Violation> violations = FindViolations(I, sigma);
  ConflictHypergraph g = ConflictHypergraph::Build(I, sigma, violations);
  DomainStats stats(I);
  return ApproximateVertexCover(g, CoverHeuristic::kGreedyDegree, &stats)
      .Cells(g);
}

void ExpectSameContext(const RepairContext& a, const RepairContext& b) {
  EXPECT_EQ(a.cells(), b.cells());
  ASSERT_EQ(a.atoms().size(), b.atoms().size());
  for (size_t i = 0; i < a.atoms().size(); ++i) {
    const RcAtom& x = a.atoms()[i];
    const RcAtom& y = b.atoms()[i];
    EXPECT_TRUE(x == y && x.op == y.op) << "atom " << i;
    // Storage-exact constants: Int 5 and Double 5.0 are different atoms.
    EXPECT_EQ(x.rhs_const.kind(), y.rhs_const.kind()) << "atom " << i;
  }
}

// Streams the suspects of C into the context and compares it with the
// context built from the materialized suspect list. The sink must receive
// exactly the zone consults the collecting scan publishes globally, and
// nothing may reach the global counters while a sink is given. Returns the
// scan's zone consults.
int64_t ExpectScanMatchesBuild(const Relation& I, const ConstraintSet& sigma,
                               const std::vector<Cell>& changing,
                               const std::string& name) {
  SCOPED_TRACE(name);
  const CellSet changing_set(changing.begin(), changing.end());
  EncodedRelation E(I);
  const EvalCounters before = eval_counters::Snapshot();
  const std::vector<Violation> suspects = FindSuspects(E, sigma, changing_set);
  const EvalCounters global = eval_counters::Snapshot() - before;
  const RepairContext built =
      RepairContext::Build(I, sigma, changing, suspects);

  int64_t count = -1;
  EvalCounters sink;
  const EvalCounters before_scan = eval_counters::Snapshot();
  const RepairContext streamed =
      RepairContext::BuildFromScan(E, sigma, changing, &count, nullptr, &sink);
  const EvalCounters leaked = eval_counters::Snapshot() - before_scan;

  EXPECT_GT(suspects.size(), 0u);
  EXPECT_EQ(count, static_cast<int64_t>(suspects.size()));
  ExpectSameContext(built, streamed);
  EXPECT_EQ(sink.blocks_scanned, global.blocks_scanned);
  EXPECT_EQ(sink.blocks_skipped, global.blocks_skipped);
  EXPECT_EQ(leaked.blocks_scanned, 0);
  EXPECT_EQ(leaked.blocks_skipped, 0);
  return sink.blocks_scanned + sink.blocks_skipped;
}

Relation Corrupted(const Relation& clean, const std::vector<AttrId>& attrs) {
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = attrs;
  noise.seed = 5;
  return InjectNoise(clean, noise).dirty;
}

TEST(RepairContextTest, StreamedContextEqualsBuiltOnHospFds) {
  HospConfig config;
  config.num_hospitals = 10;
  HospData hosp = MakeHosp(config);
  Relation dirty = Corrupted(hosp.clean, hosp.noise_attrs);
  ExpectScanMatchesBuild(dirty, hosp.given_oversimplified,
                         CoverOf(dirty, hosp.given_oversimplified), "hosp");
}

// A plan's vfree/context span reports its suspects, the atoms its context
// keeps and the arrivals the keys dropped: on hosp's FDs most arrivals
// repeat an atom already collected.
TEST(RepairContextTest, ContextSpanReportsKeptAndDuplicateAtoms) {
  struct TraceGuard {
    ~TraceGuard() {
      Tracer::SetEnabled(false);
      Tracer::Clear();
    }
  } guard;
  HospConfig config;
  config.num_hospitals = 10;
  HospData hosp = MakeHosp(config);
  Relation dirty = Corrupted(hosp.clean, hosp.noise_attrs);
  const ConstraintSet& sigma = hosp.given_oversimplified;
  const std::vector<Cell> changing = CoverOf(dirty, sigma);
  const EncodedRelation E(dirty);
  int64_t suspects = 0;
  int64_t duplicates = 0;
  const RepairContext rc =
      RepairContext::BuildFromScan(E, sigma, changing, &suspects, &duplicates);

  Tracer::Clear();
  Tracer::SetEnabled(true);
  const ComponentPlan plan = PlanComponents(sigma, changing, {}, E);
  Tracer::SetEnabled(false);
  const Tracer::Event* span = nullptr;
  const std::vector<Tracer::Event> events = Tracer::CollectEvents();
  for (const Tracer::Event& e : events) {
    if (e.name == "vfree/context") span = &e;
  }
  ASSERT_NE(span, nullptr);
  std::map<std::string, int64_t> args(span->args.begin(), span->args.end());
  EXPECT_EQ(args["suspects"], suspects);
  EXPECT_EQ(plan.suspects, suspects);
  EXPECT_EQ(args["atoms"], static_cast<int64_t>(rc.atoms().size()));
  EXPECT_EQ(args["duplicate_atoms"], duplicates);
  EXPECT_GT(duplicates, static_cast<int64_t>(rc.atoms().size()));
}

TEST(RepairContextTest, StreamedContextEqualsBuiltOnCensusOrderDcs) {
  CensusConfig config;
  config.num_rows = 1100;  // two storage blocks, so zone maps can skip
  CensusData census = MakeCensus(config);
  Relation dirty = Corrupted(census.clean, {CensusAttrs::kTax});
  // Only Tax cells change, so the Income predicates prune partner blocks.
  std::vector<Cell> changing;
  for (const Cell& cell : CoverOf(dirty, census.given)) {
    if (cell.attr == CensusAttrs::kTax) changing.push_back(cell);
  }
  ASSERT_FALSE(changing.empty());
  EXPECT_GT(ExpectScanMatchesBuild(dirty, census.given, changing, "census"),
            0)
      << "no zone consults: the sink comparison is vacuous";
}

TEST(RepairContextTest, StreamedContextEqualsBuiltOnTaxConstantDcs) {
  TaxConfig config;
  config.num_rows = 300;
  TaxData tax = MakeTax(config);
  Relation dirty = Corrupted(tax.clean, tax.noise_attrs);
  ExpectScanMatchesBuild(dirty, tax.given, CoverOf(dirty, tax.given), "tax");
}

// Two equally tight bounds on one variable, I'(t4.Tax) >= 5 as an Int and
// as a Double constant: compression keeps the smaller RcAtom (Int sorts
// before Double), whichever arrives first.
TEST(RepairContextTest, EqualBoundsKeepTheSmallestAtom) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  const DenialConstraint as_int(
      {Predicate::WithConstant(0, tax, Op::kLt, Value::Int(5))}, "int");
  const DenialConstraint as_double(
      {Predicate::WithConstant(0, tax, Op::kLt, Value::Double(5.0))},
      "double");
  const std::vector<Cell> changing = {{3, tax}};
  for (const ConstraintSet& sigma :
       {ConstraintSet{as_int, as_double}, ConstraintSet{as_double, as_int}}) {
    const RepairContext built = RepairContext::Build(
        rel, sigma, changing,
        FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end())));
    int64_t count = 0;
    const RepairContext streamed = RepairContext::BuildFromScan(
        EncodedRelation(rel), sigma, changing, &count);
    EXPECT_EQ(count, 2);
    ExpectSameContext(built, streamed);
    ASSERT_EQ(streamed.atoms().size(), 1u);
    const RcAtom& kept = streamed.atoms()[0];
    EXPECT_EQ(kept.op, Op::kGeq);
    EXPECT_EQ(kept.rhs_const, Value::Int(5));
  }
}

TEST(SolverTest, Example10SolutionIsZero) {
  Relation rel = PaperIncomeRelation();
  RepairContext rc = Example10Context(rel);
  std::vector<Component> comps = DecomposeComponents(rc);
  ASSERT_EQ(comps.size(), 1u);
  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  ComponentSolution sol = solver.Solve(comps[0]);
  ASSERT_EQ(sol.values.size(), 1u);
  // I'(t4.Tax) = 0 with cost 1 (Example 10 / Example 4).
  EXPECT_DOUBLE_EQ(sol.values[0].numeric(), 0.0);
  EXPECT_DOUBLE_EQ(sol.cost, 1.0);
  EXPECT_EQ(sol.fresh_count, 0);
  EXPECT_TRUE(SolutionSatisfies(comps[0], sol));
}

// Shared setup of Example 11: C = {t2,t3,t5,t6,t7}.Tax (rows 1,2,4,5,6),
// Σ = {φ4}. t2.Tax is required to be > 0 and < 3 — no *domain* value fits.
std::vector<Component> Example11Components(const Relation& rel) {
  AttrId tax = *rel.schema().Find("Tax");
  std::vector<Cell> changing = {{1, tax}, {2, tax}, {4, tax}, {5, tax},
                                {6, tax}};
  ConstraintSet sigma = {Phi4(rel)};
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end()));
  RepairContext rc = RepairContext::Build(rel, sigma, changing, suspects);
  return DecomposeComponents(rc);
}

// With interval propagation (the default), the off-domain but non-empty
// interval (0, 3) yields a concrete numeric fix for t2.Tax instead of a
// fresh variable: Tax is a double, so the solver may leave the active
// domain (Bertossi-Bravo numeric min-change fixes).
TEST(SolverTest, Example11IntervalPropagationAvoidsFreshVariable) {
  Relation rel = PaperIncomeRelation();
  std::vector<Component> comps = Example11Components(rel);
  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  int fresh_total = 0;
  int64_t narrowings = 0;
  for (const Component& comp : comps) {
    ComponentSolution sol = solver.Solve(comp);
    EXPECT_TRUE(SolutionSatisfies(comp, sol));
    fresh_total += sol.fresh_count;
    narrowings += sol.interval_narrowings;
    for (size_t v = 0; v < comp.cells.size(); ++v) {
      if (comp.cells[v].row == 1) {
        ASSERT_FALSE(sol.values[v].is_fresh())
            << "interval propagation must fix t2.Tax concretely";
        // Min-|Δ| from the origin 0 inside the open interval (0, 3).
        EXPECT_GT(sol.values[v].numeric(), 0.0);
        EXPECT_LT(sol.values[v].numeric(), 3.0);
      }
    }
  }
  EXPECT_EQ(fresh_total, 0);
  EXPECT_GT(narrowings, 0);
}

// With use_interval off the solver restores the paper's §4.1.3 fallback
// verbatim: the domain-unsatisfiable cell becomes a fresh variable
// (Example 11).
TEST(SolverTest, Example11UnsatisfiableCellGetsFreshVariable) {
  Relation rel = PaperIncomeRelation();
  std::vector<Component> comps = Example11Components(rel);
  DomainStats stats(rel);
  int64_t fresh = 1;
  SolverOptions opts;
  opts.use_interval = false;
  CspSolver solver(rel, stats, CostModel{}, &fresh, opts);
  int fresh_total = 0;
  for (const Component& comp : comps) {
    ComponentSolution sol = solver.Solve(comp);
    EXPECT_TRUE(SolutionSatisfies(comp, sol));
    EXPECT_EQ(sol.interval_narrowings, 0);
    fresh_total += sol.fresh_count;
    for (size_t v = 0; v < comp.cells.size(); ++v) {
      if (comp.cells[v].row == 1) {
        EXPECT_TRUE(sol.values[v].is_fresh())
            << "t2.Tax must become a fresh variable";
      }
    }
  }
  EXPECT_GE(fresh_total, 1);
}

TEST(ComponentTest, VarVarAtomsGroupTogether) {
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  AttrId cp = *rel.schema().Find("CP");
  // Two tax cells linked via φ4' (t5 and t4 are a suspect pair) plus an
  // unrelated CP cell: expect the tax cells in one component.
  std::vector<Cell> changing = {{3, tax}, {4, tax}, {0, cp}};
  ConstraintSet sigma = {Phi4Prime(rel), testing_fixture::Phi1(rel)};
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end()));
  RepairContext rc = RepairContext::Build(rel, sigma, changing, suspects);
  std::vector<Component> comps = DecomposeComponents(rc);
  // Find which component holds t4.Tax and t5.Tax.
  int tax_comp = -1, cp_comp = -1;
  for (size_t k = 0; k < comps.size(); ++k) {
    for (const Cell& c : comps[k].cells) {
      if (c.attr == tax && c.row == 3) tax_comp = static_cast<int>(k);
      if (c.attr == cp) cp_comp = static_cast<int>(k);
    }
  }
  ASSERT_NE(tax_comp, -1);
  ASSERT_NE(cp_comp, -1);
  EXPECT_NE(tax_comp, cp_comp);
  // t4.Tax and t5.Tax are connected by a var-var atom.
  bool both = false;
  for (const Cell& c : comps[tax_comp].cells) {
    if (c.row == 4 && c.attr == tax) both = true;
  }
  EXPECT_TRUE(both);
}

TEST(SolverTest, EqualityAtomForcesCategoricalValue) {
  Relation rel = PaperIncomeRelation();
  AttrId cp = *rel.schema().Find("CP");
  // Repairing t2.CP under φ1 with C = {t2.CP}: suspects include
  // <t2,t3>/<t3,t2> whose rc forces I'(t2.CP) = I(t3.CP) = "564-389" and
  // <t1,t2> pairs forcing = "322-573" — conflicting equalities, so fv...
  // Use φ2 (precise): only the <t2,t3> pair applies (same birthday).
  std::vector<Cell> changing = {{1, cp}};
  ConstraintSet sigma = {testing_fixture::Phi2(rel)};
  std::vector<Violation> suspects =
      FindSuspects(EncodedRelation(rel), sigma,
                   CellSet(changing.begin(), changing.end()));
  RepairContext rc = RepairContext::Build(rel, sigma, changing, suspects);
  std::vector<Component> comps = DecomposeComponents(rc);
  ASSERT_EQ(comps.size(), 1u);
  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  ComponentSolution sol = solver.Solve(comps[0]);
  EXPECT_EQ(sol.values[0], Value::String("564-389"));
}

TEST(SolverTest, GreedyPathSolvesLargeComponents) {
  // A long chain x0 <= x1 <= ... <= x49 over one numeric attribute with
  // plenty of feasible domain values: 50 variables are past the exact
  // search's limit, and the greedy phase must satisfy them.
  Schema schema;
  schema.AddAttribute("V", AttrType::kInt);
  Relation rel(schema);
  for (int i = 0; i < 50; ++i) rel.AddRow({Value::Int(i % 10)});
  Component comp;
  for (int i = 0; i < 50; ++i) comp.cells.push_back({i, 0});
  for (int i = 0; i + 1 < 50; ++i) {
    RcAtom a;
    a.lhs_var = i;
    a.op = Op::kLeq;
    a.rhs_is_var = true;
    a.rhs_var = i + 1;
    comp.atoms.push_back(a);
  }
  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  ComponentSolution sol = solver.Solve(comp);
  EXPECT_TRUE(SolutionSatisfies(comp, sol));
}

TEST(CacheTest, Definition7Refinement) {
  RcAtom base;  // I'(x) >= 3
  base.lhs_var = 0;
  base.op = Op::kGeq;
  base.rhs_is_var = false;
  base.rhs_const = Value::Double(3);
  RcAtom refined = base;  // I'(x) > 3 refines >= 3
  refined.op = Op::kGt;
  EXPECT_TRUE(ContextRefines({refined}, {base}));
  EXPECT_FALSE(ContextRefines({base}, {refined}));
  EXPECT_TRUE(ContextRefines({base}, {base}));
  // Missing operand pair: no refinement.
  RcAtom other = base;
  other.rhs_const = Value::Double(5);
  EXPECT_FALSE(ContextRefines({other}, {base}));
}

TEST(CacheTest, Example12ReuseAcrossRefinedContexts) {
  // Mirrors Example 12: rc1 has I'(t4.Tax) >= 0 and <= 21; rc2 refines
  // the upper bound to < 21 (>= in rc1 vs > in rc2 on the same operands).
  Relation rel = PaperIncomeRelation();
  AttrId tax = *rel.schema().Find("Tax");
  Component comp1;
  comp1.cells = {{3, tax}};
  RcAtom lower;
  lower.lhs_var = 0;
  lower.op = Op::kGeq;
  lower.rhs_is_var = false;
  lower.rhs_const = Value::Double(0);
  RcAtom upper = lower;
  upper.op = Op::kLeq;
  upper.rhs_const = Value::Double(21);
  comp1.atoms = {lower, upper};

  DomainStats stats(rel);
  int64_t fresh = 1;
  CspSolver solver(rel, stats, CostModel{}, &fresh);
  ComponentSolution sol = solver.Solve(comp1);
  // Original t4.Tax = 3 is feasible: kept for free.
  EXPECT_DOUBLE_EQ(sol.values[0].numeric(), 3.0);
  EXPECT_DOUBLE_EQ(sol.cost, 0.0);

  MaterializedCache cache;
  cache.Store(comp1, sol);

  Component comp2 = comp1;
  comp2.atoms[1].op = Op::kLt;  // <= 21 strengthened to < 21
  std::optional<ComponentSolution> hit = cache.Lookup(comp2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->values[0].numeric(), 3.0);
  EXPECT_EQ(cache.hits(), 1);

  // Refined but not satisfied by the stored solution: no reuse.
  Component comp3 = comp1;
  comp3.atoms[0].op = Op::kGt;  // >= 0 -> > 0; 3 still satisfies...
  comp3.atoms[1].op = Op::kLt;
  comp3.atoms[1].rhs_const = Value::Double(21);
  EXPECT_TRUE(cache.Lookup(comp3).has_value());  // 3 > 0 and 3 < 21

  Component comp4 = comp1;
  comp4.atoms[0].rhs_const = Value::Double(5);  // different operands
  EXPECT_FALSE(cache.Lookup(comp4).has_value());
}

// The argument that lets streamed batches re-solve without a cache
// (DESIGN.md §9): a cache that lives for one repair round never hits. The
// round looks each solve unit up once; its components partition the
// changing set, split parts partition a component, and a stitch merge is
// a strict superset of the parts it joins, so no lookup finds an entry
// with its own cell set. Decomposition is on with a small max_component
// so that split parts and stitch merges are looked up too. The round runs
// at pool budgets of 1 and 4; the replay is serial at both.
TEST(CacheTest, OneRoundCacheNeverHits) {
  struct PoolGuard {
    ~PoolGuard() { ThreadPool::SetNumThreads(1); }
  } guard;
  struct Input {
    std::string name;
    Relation dirty;
    ConstraintSet sigma;
    /// The changing set to repair; empty = the violations' vertex cover.
    std::vector<Cell> changing;
  };
  std::vector<Input> inputs;
  NoiseConfig noise;
  noise.error_rate = 0.3;
  {
    HospConfig config;
    config.num_hospitals = 6;
    HospData hosp = MakeHosp(config);
    noise.target_attrs = hosp.noise_attrs;
    inputs.push_back({"hosp", InjectNoise(hosp.clean, noise).dirty,
                      hosp.given_oversimplified, {}});
  }
  {
    CensusConfig config;
    config.num_rows = 80;
    CensusData census = MakeCensus(config);
    noise.target_attrs = census.noise_attrs;
    inputs.push_back(
        {"census", InjectNoise(census.clean, noise).dirty, census.given, {}});
  }
  {
    TaxConfig config;
    config.num_rows = 120;
    TaxData tax = MakeTax(config);
    noise.target_attrs = tax.noise_attrs;
    inputs.push_back(
        {"tax", InjectNoise(tax.clean, noise).dirty, tax.given, {}});
  }
  {
    DenseConfig config;
    config.num_tracks = 1;
    config.rows_per_track = 120;
    config.error_rate = 0.3;
    DenseData dense = MakeDense(config);
    inputs.push_back({"dense", dense.dirty, dense.sigma, {}});
  }
  {
    // DecomposeTest.StitchMergeRepairsCrossAtomViolations: every Val cell
    // changing forms one var-var chain whose all-"a" and all-"b" parts
    // disagree across the boundary, forcing a stitch merge. Its only
    // violation would leave a one-cell changing set, so the changing set
    // is given and the round is planned by PlanComponents.
    Schema schema;
    schema.AddAttribute("KeyA", AttrType::kInt);
    schema.AddAttribute("KeyB", AttrType::kInt);
    schema.AddAttribute("Val", AttrType::kString);
    Input stitch{"stitch", Relation(schema), {}, {}};
    constexpr int kRows = 20;
    for (int i = 0; i < kRows; ++i) {
      stitch.dirty.AddRow({Value::Int(i / 2), Value::Int((i + 1) / 2),
                           Value::String(i < kRows / 2 ? "a" : "b")});
      stitch.changing.push_back({i, 2});
    }
    for (AttrId key : {0, 1}) {
      stitch.sigma.push_back(
          DenialConstraint({Predicate::TwoCell(0, key, Op::kEq, 1, key),
                            Predicate::TwoCell(0, 2, Op::kNeq, 1, 2)}));
    }
    inputs.push_back(std::move(stitch));
  }

  int64_t splits = 0;
  int64_t merges = 0;
  for (const Input& in : inputs) {
    const EncodedRelation E(in.dirty);
    const DomainStats stats_of_I(in.dirty);
    std::vector<Violation> violations = FindViolations(E, in.sigma);
    CanonicalizeViolations(&violations);
    for (int threads : {1, 4}) {
      SCOPED_TRACE(in.name + " threads=" + std::to_string(threads));
      ThreadPool::SetNumThreads(threads);
      VfreeOptions options;
      options.decompose = true;
      options.max_component = 6;
      struct Round {
        std::optional<ScopedRepair> repair;
        RepairStats stats;
        int64_t fresh = 1;
      };
      auto run = [&](MaterializedCache* cache) {
        Round r;
        const double inf = std::numeric_limits<double>::infinity();
        r.repair = in.changing.empty()
                       ? SolveDirtyComponents(
                             in.dirty, stats_of_I, in.sigma,
                             ViewsByPosition(violations, in.sigma.size()), inf,
                             options, cache, &r.stats, &r.fresh, E)
                       : ReplayComponents(
                             in.dirty, stats_of_I,
                             PlanComponents(in.sigma, in.changing, options, E),
                             inf, options, cache, &r.stats, &r.fresh);
        return r;
      };
      MaterializedCache cache;
      const Round cached = run(&cache);
      const Round uncached = run(nullptr);
      EXPECT_EQ(cache.hits(), 0);
      EXPECT_GT(cache.misses(), 0);
      ASSERT_TRUE(cached.repair.has_value());
      ASSERT_TRUE(uncached.repair.has_value());
      EXPECT_TRUE(cached.repair->assignments == uncached.repair->assignments);
      EXPECT_EQ(cached.repair->cost, uncached.repair->cost);
      EXPECT_EQ(cached.repair->components, uncached.repair->components);
      EXPECT_EQ(cached.fresh, uncached.fresh);
      const RepairStats& a = cached.stats;
      const RepairStats& b = uncached.stats;
      EXPECT_EQ(a.ToString(), b.ToString());
      EXPECT_EQ(a.suspects, b.suspects);
      EXPECT_EQ(a.components_split, b.components_split);
      EXPECT_EQ(a.stitch_merges, b.stitch_merges);
      EXPECT_EQ(a.giant_component_cells, b.giant_component_cells);
      splits += a.components_split;
      merges += a.stitch_merges;
    }
  }
  EXPECT_GT(splits, 0) << "no input split a component";
  EXPECT_GT(merges, 0) << "no input forced a stitch merge";
}

}  // namespace
}  // namespace cvrepair
