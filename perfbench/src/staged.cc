#include "staged.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "dc/eval_index.h"
#include "graph/bounds.h"
#include "graph/conflict_hypergraph.h"
#include "graph/vertex_cover.h"
#include "relation/domain_stats.h"
#include "relation/encoded.h"
#include "repair/costs.h"
#include "repair/vfree.h"
#include "solver/components.h"
#include "solver/csp_solver.h"
#include "solver/materialized_cache.h"
#include "solver/repair_context.h"
#include "variation/variant_generator.h"

namespace perfbench {

namespace {

using namespace cvrepair;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Work tallied while staging, flushed into Counts once per operation so
// the map lookups stay out of the timed loop.
struct Tally {
  int64_t suspect_lists = 0;
  int64_t code_evals = 0;
  int64_t components = 0;
  int64_t lookups = 0;
  int64_t cache_hits = 0;
  int64_t solves = 0;
  int64_t atom_evals = 0;
  int64_t interval_narrowings = 0;
  int64_t fresh = 0;
  int64_t builds = 0;
  int64_t edges = 0;
  int64_t cover_cells = 0;

  void FlushInto(Counts* counts) const {
    Counts& c = *counts;
    c["dc.suspect_lists"] += static_cast<double>(suspect_lists);
    c["dc.code_evals"] += static_cast<double>(code_evals);
    c["solver.components"] += static_cast<double>(components);
    c["solver.cache_lookups"] += static_cast<double>(lookups);
    c["solver.cache_hits"] += static_cast<double>(cache_hits);
    c["solver.solves"] += static_cast<double>(solves);
    c["solver.atom_evals"] += static_cast<double>(atom_evals);
    c["solver.interval_narrowings"] += static_cast<double>(interval_narrowings);
    c["solver.fresh"] += static_cast<double>(fresh);
    c["graph.builds"] += static_cast<double>(builds);
    c["graph.edges"] += static_cast<double>(edges);
    c["graph.cover_cells"] += static_cast<double>(cover_cells);
  }
};

// The engine options CVTolerantRepair derives for its Vfree calls.
VfreeOptions EngineOptions(const CVTolerantOptions& options) {
  VfreeOptions vfree = options.vfree;
  if (vfree.threads == 0) vfree.threads = options.threads;
  vfree.use_encoded = options.use_encoded;
  return vfree;
}

// Conflict hypergraph + approximate vertex cover: the changing set C.
std::vector<Cell> CoverCells(const Relation& I, const ConstraintSet& sigma,
                             const std::vector<Violation>& violations,
                             const DomainStats& stats,
                             const VfreeOptions& vfree, SpanRecorder* rec,
                             Tally* tally) {
  ScopedSpan span(rec, "graph.cover");
  ConflictHypergraph g =
      ConflictHypergraph::Build(I, sigma, violations, vfree.cost);
  VertexCover cover = ApproximateVertexCover(g, vfree.cover, &stats);
  std::vector<Cell> changing = cover.Cells(g);
  ++tally->builds;
  tally->edges += g.num_edges();
  tally->cover_cells += static_cast<int64_t>(changing.size());
  return changing;
}

// SolveComponents' serial path (Algorithm 2 from the changing set on):
// suspects, context, decompose, then per component a cache lookup or a
// Solve + Store, replayed in order with fresh ids re-minted from the
// shared counter. Returns nullopt once the running cost passes
// `delta_min`.
std::optional<ScopedRepair> SolveStaged(
    const Relation& I, const DomainStats& stats, const ConstraintSet& sigma,
    const std::vector<Cell>& changing, const EncodedRelation& E,
    double delta_min, const VfreeOptions& vfree, MaterializedCache* cache,
    int64_t* fresh_counter, SpanRecorder* rec, Tally* tally) {
  std::vector<Violation> suspects;
  const int64_t evals_before = eval_counters::Snapshot().code_predicate_evals;
  {
    ScopedSpan span(rec, "dc.suspects");
    CellSet changing_set(changing.begin(), changing.end());
    suspects = FindSuspects(E, sigma, changing_set);
  }
  tally->code_evals +=
      eval_counters::Snapshot().code_predicate_evals - evals_before;
  tally->suspect_lists += static_cast<int64_t>(suspects.size());

  std::optional<RepairContext> rc;
  {
    ScopedSpan span(rec, "solver.context");
    rc.emplace(RepairContext::Build(I, sigma, changing, suspects));
  }
  std::vector<Component> components;
  {
    ScopedSpan span(rec, "solver.decompose");
    components = DecomposeComponents(*rc);
  }
  tally->components += static_cast<int64_t>(components.size());

  CspSolver solver(I, stats, vfree.cost, fresh_counter, vfree.solver);
  ScopedRepair out;
  out.components = static_cast<int>(components.size());
  for (const Component& comp : components) {
    std::optional<ComponentSolution> solution;
    if (cache != nullptr) {
      ScopedSpan span(rec, "solver.cache");
      solution = cache->Lookup(comp);
    }
    ++tally->lookups;
    if (solution) {
      ++tally->cache_hits;
    } else {
      {
        ScopedSpan span(rec, "solver.solve");
        solution = solver.Solve(comp);
      }
      ++tally->solves;
      tally->atom_evals += solution->atom_evals;
      tally->interval_narrowings += solution->interval_narrowings;
      tally->fresh += solution->fresh_count;
      if (cache != nullptr) {
        ScopedSpan span(rec, "solver.cache");
        cache->Store(comp, *solution);
      }
    }
    for (size_t v = 0; v < comp.cells.size(); ++v) {
      Value value = solution->values[v];
      if (value.is_fresh()) value = Value::Fresh((*fresh_counter)++);
      out.assignments.emplace_back(comp.cells[v], std::move(value));
    }
    out.cost += solution->cost;
    if (!(out.cost <= delta_min)) return std::nullopt;  // Alg. 2 lines 18-19
  }
  return out;
}

struct Facts {
  std::vector<Violation> violations;
  double delta_l = 0.0;
  double delta_u = 0.0;
  bool hopeless = false;
};

struct Candidate {
  const SigmaVariant* variant = nullptr;
  double delta_l = 0.0;
  double delta_u = 0.0;
  int num_violations = 0;
};

}  // namespace

StagedResult StagedCVTolerantRepair(const Relation& I,
                                    const ConstraintSet& sigma,
                                    const CVTolerantOptions& options,
                                    SpanRecorder* rec, Counts* counts) {
  ScopedSpan repair_span(rec, "repair");
  StagedResult result;
  Tally tally;
  const EvalCounters eval_before = eval_counters::Snapshot();

  VariantGenOptions gen = options.variants;
  const bool theta_nonnegative = gen.theta >= 0.0;
  gen.always_include_original =
      gen.always_include_original && theta_nonnegative;
  if (gen.data == nullptr) gen.data = &I;
  std::vector<SigmaVariant> variants;
  {
    ScopedSpan span(rec, "variation.generate");
    variants = GenerateSigmaVariants(sigma, I.schema(), gen);
  }
  result.variants = static_cast<int>(variants.size());

  const VfreeOptions vfree = EngineOptions(options);
  const CostModel& cost = vfree.cost;
  std::optional<DomainStats> stats_holder;
  std::optional<EncodedRelation> encoded;
  {
    ScopedSpan span(rec, "relation.encode");
    stats_holder.emplace(I);
    encoded.emplace(I);
  }
  const DomainStats& stats_of_I = *stats_holder;
  const EncodedRelation& E = *encoded;

  // One shared index per base constraint; the first position registering a
  // constraint owns it (CVTolerantRepair's registration order).
  std::vector<std::unique_ptr<EvalIndex>> indexes;
  std::map<DenialConstraint, const EvalIndex*> index_of;
  {
    ScopedSpan span(rec, "dc.index");
    for (const DenialConstraint& phi : sigma) {
      indexes.push_back(std::make_unique<EvalIndex>(
          I, phi, EvalIndex::kDefaultMemoBudget, &E));
    }
    auto register_constraint = [&](const DenialConstraint& c, size_t pos) {
      if (pos >= indexes.size()) return;
      auto [it, inserted] = index_of.try_emplace(c, indexes[pos].get());
      if (inserted) indexes[pos]->Prepare(c);
    };
    for (size_t i = 0; i < sigma.size(); ++i) register_constraint(sigma[i], i);
    for (const SigmaVariant& sv : variants) {
      for (size_t i = 0; i < sv.constraints.size(); ++i) {
        register_constraint(sv.constraints[i], i);
      }
    }
  }

  const int64_t cap =
      options.max_violations_per_tuple > 0
          ? static_cast<int64_t>(options.max_violations_per_tuple *
                                 std::max(I.num_rows(), 1))
          : std::numeric_limits<int64_t>::max();
  std::map<DenialConstraint, Facts> facts;
  std::vector<std::map<DenialConstraint, Facts>::iterator> todo;
  auto enqueue = [&](const DenialConstraint& c) {
    auto [it, inserted] = facts.try_emplace(c);
    if (inserted) todo.push_back(it);
  };
  for (const DenialConstraint& phi : sigma) enqueue(phi);
  for (const SigmaVariant& sv : variants) {
    for (const DenialConstraint& phi : sv.constraints) enqueue(phi);
  }
  int64_t violations_found = 0;
  int64_t truncated = 0;
  for (auto it : todo) {
    const DenialConstraint& c = it->first;
    Facts& f = it->second;
    {
      ScopedSpan span(rec, "dc.detect");
      auto idx = index_of.find(c);
      f.violations =
          idx != index_of.end()
              ? idx->second->FindViolationsCapped(c, 0, cap, &f.hopeless)
              : FindViolationsOfCapped(E, c, 0, cap, &f.hopeless);
    }
    if (f.hopeless) {
      ++truncated;
      f.violations.clear();
      f.delta_l = kInf;
      f.delta_u = kInf;
      continue;
    }
    violations_found += static_cast<int64_t>(f.violations.size());
    if (f.violations.empty()) continue;
    ScopedSpan span(rec, "graph.bounds");
    ConflictHypergraph g = ConflictHypergraph::Build(I, {c}, f.violations, cost);
    RepairCostBounds bounds =
        ComputeBounds(g, c.Degree(), cost, vfree.cover, &stats_of_I);
    f.delta_l = bounds.lower;
    f.delta_u = bounds.upper;
  }

  // Candidates in ascending-δ_l order; δ_min seeded with δ_u(Σ).
  std::vector<Candidate> candidates;
  for (const SigmaVariant& sv : variants) {
    Candidate c;
    c.variant = &sv;
    bool hopeless = false;
    for (const DenialConstraint& phi : sv.constraints) {
      const Facts& f = facts.at(phi);
      hopeless |= f.hopeless;
      c.delta_l = std::max(c.delta_l, f.delta_l);
      c.delta_u += f.delta_u;
      c.num_violations += static_cast<int>(f.violations.size());
    }
    if (hopeless) {
      ++result.pruned;
      continue;
    }
    candidates.push_back(c);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.delta_l < b.delta_l;
                   });
  double delta_min = kInf;
  {
    double sigma_upper = 0.0;
    for (const DenialConstraint& phi : sigma) {
      const Facts& f = facts.at(phi);
      result.initial_violations += static_cast<int>(f.violations.size());
      sigma_upper += f.delta_u;
    }
    if (theta_nonnegative) delta_min = sigma_upper;
  }

  MaterializedCache cache;
  int64_t fresh_counter = 1;
  bool have_result = false;
  double best_cost = kInf;
  int aborted = 0;
  int improving = 0;
  int copies = 0;
  for (const Candidate& c : candidates) {
    if (options.enable_bound_pruning && c.delta_l > delta_min + 1e-9) {
      ++result.pruned;
      continue;
    }
    if (result.calls >= options.max_datarepair_calls) break;
    ++result.calls;
    ScopedSpan call_span(rec, "repair.call");

    std::vector<Violation> violations;
    violations.reserve(static_cast<size_t>(c.num_violations));
    const ConstraintSet& set = c.variant->constraints;
    for (size_t i = 0; i < set.size(); ++i) {
      for (Violation v : facts.at(set[i]).violations) {
        v.constraint_index = static_cast<int>(i);
        violations.push_back(std::move(v));
      }
    }
    const std::vector<Cell> changing =
        CoverCells(I, set, violations, stats_of_I, vfree, rec, &tally);
    std::optional<ScopedRepair> scoped = SolveStaged(
        I, stats_of_I, set, changing, E,
        options.enable_bound_pruning ? delta_min + 1e-9 : kInf, vfree,
        options.enable_sharing ? &cache : nullptr, &fresh_counter, rec,
        &tally);
    if (!scoped) {
      ++aborted;
      continue;
    }
    Relation repaired;
    {
      ScopedSpan span(rec, "relation.copy");
      repaired = I;
      for (auto& [cell, value] : scoped->assignments) {
        repaired.SetValue(cell, std::move(value));
      }
    }
    ++copies;
    double delta = 0.0;
    {
      ScopedSpan span(rec, "repair.cost");
      delta = RepairCost(I, repaired, cost);
    }
    if (delta < delta_min) ++improving;
    if (delta < best_cost) {
      best_cost = delta;
      delta_min = std::min(delta_min, delta);
      result.repaired = std::move(repaired);
      result.variant = set;
      have_result = true;
    }
  }
  if (!have_result) {
    // Every candidate was hopeless or aborted: CVTolerantRepair's fallback.
    result.variant = sigma;
    result.repaired =
        theta_nonnegative ? VfreeRepair(I, sigma, vfree).repaired : I;
  }
  {
    ScopedSpan span(rec, "repair.cost");
    result.cost = RepairCost(I, result.repaired, cost);
  }

  const EvalCounters eval = eval_counters::Snapshot() - eval_before;
  tally.FlushInto(counts);
  Counts& out = *counts;
  out["variation.variants"] += result.variants;
  out["dc.partition_builds"] += static_cast<double>(eval.partition_builds);
  out["dc.partition_reuses"] += static_cast<double>(
      eval.partition_hits + eval.partition_refines + eval.partition_merges);
  out["dc.memo_hits"] += static_cast<double>(eval.memo_hits);
  out["dc.constraints"] += static_cast<double>(todo.size());
  out["dc.violations"] += static_cast<double>(violations_found);
  out["dc.truncated"] += static_cast<double>(truncated);
  out["relation.copies"] += copies;
  out["repair.calls"] += result.calls;
  out["repair.pruned"] += result.pruned;
  out["repair.aborted"] += aborted;
  out["repair.improving"] += improving;
  return result;
}

ReplicaSession::ReplicaSession(const Relation& repaired,
                               const ConstraintSet& variant,
                               const CVTolerantOptions& options,
                               SpanRecorder* rec)
    : variant_(variant), vfree_(EngineOptions(options)) {
  // Continue fresh ids above the initial repair's, as the session does.
  for (int r = 0; r < repaired.num_rows(); ++r) {
    for (AttrId a = 0; a < repaired.num_attributes(); ++a) {
      const Value& v = repaired.Get(r, a);
      if (v.is_fresh()) {
        fresh_counter_ = std::max(fresh_counter_, v.fresh_id() + 1);
      }
    }
  }
  ScopedSpan span(rec, "dc.index");
  index_ = std::make_unique<ViolationIndex>(repaired, variant_,
                                            options.use_encoded);
}

void ReplicaSession::ApplyBatch(const std::vector<RowEdit>& edits,
                                SpanRecorder* rec, Counts* counts) {
  ScopedSpan batch_span(rec, "replica.batch");
  Tally tally;
  const int64_t rechecked_before = index_->rows_rechecked();
  std::vector<Violation> violations;
  {
    ScopedSpan span(rec, "dc.delta_detect");
    index_->ApplyBatch(edits);
    violations = index_->CurrentViolations();
  }
  (*counts)["dc.rows_rechecked"] +=
      static_cast<double>(index_->rows_rechecked() - rechecked_before);
  if (!violations.empty()) {
    CanonicalizeViolations(&violations);
    const Relation& W = index_->relation();
    std::optional<DomainStats> stats;
    {
      ScopedSpan span(rec, "relation.stats");
      stats.emplace(W);
    }
    const std::vector<Cell> changing =
        CoverCells(W, variant_, violations, *stats, vfree_, rec, &tally);
    MaterializedCache cold_cache;
    // delta_min is +inf, so the solve cannot abort.
    std::optional<ScopedRepair> fix =
        SolveStaged(W, *stats, variant_, changing, *index_->encoded(), kInf,
                    vfree_, &cold_cache, &fresh_counter_, rec, &tally);
    ScopedSpan span(rec, "dc.writeback");
    for (auto& [cell, value] : fix->assignments) {
      if (index_->relation().Get(cell) == value) continue;
      index_->ApplyChange(cell, std::move(value));
    }
  }
  tally.FlushInto(counts);
}

}  // namespace perfbench
