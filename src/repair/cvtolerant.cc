#include "repair/cvtolerant.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "graph/bounds.h"
#include "relation/encoded.h"
#include "repair/holistic.h"
#include "solver/materialized_cache.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {

namespace {

// Speculative work of the candidate search: plans built ahead of their
// replay, and plans dropped because their candidate became bound-pruned
// first. Both depend on the thread count, hence kRuntime.
MetricCounter* PlansBuiltCounter() {
  static MetricCounter* c = MetricsRegistry::Global().GetCounter(
      "search.plans_built", MetricKind::kRuntime);
  return c;
}
MetricCounter* PlansDiscardedCounter() {
  static MetricCounter* c = MetricsRegistry::Global().GetCounter(
      "search.plans_discarded", MetricKind::kRuntime);
  return c;
}

// A candidate's union violations as one view per position of Σ' over the
// shared facts (position-free, in rows order), i.e. in the canonical
// (position, rows) order. `members` are the candidate's family positions.
ViolationsByPosition UnionViews(const std::vector<int>& members,
                                const std::vector<VariantFacts>& facts) {
  ViolationsByPosition views;
  views.reserve(members.size());
  for (int k : members) {
    const std::vector<Violation>& v = facts[static_cast<size_t>(k)].violations;
    // The hypergraph numbers vertices and edges in view order, which is
    // the canonical one only if BuildVariantFacts sorted the facts.
    assert(std::is_sorted(v.begin(), v.end(),
                          [](const Violation& a, const Violation& b) {
                            return a.rows < b.rows;
                          }));
    views.emplace_back(v);
  }
  return views;
}

}  // namespace

VariantFamily EnumerateVariants(const Relation& I, const ConstraintSet& sigma,
                                const CVTolerantOptions& options) {
  TraceSpan span("cvtolerant/generate_variants");
  VariantGenOptions gen = options.variants;
  gen.always_include_original =
      gen.always_include_original && gen.theta >= 0.0;
  if (gen.data == nullptr) gen.data = &I;
  VariantGenStats gen_stats;
  std::vector<SigmaVariant> variants =
      GenerateSigmaVariants(sigma, I.schema(), gen, &gen_stats);
  VariantFamily family(sigma, std::move(variants),
                       gen_stats.pruned_nonmaximal, gen_stats.capped);
  span.AddArg("variants", static_cast<int64_t>(family.variants.size()));
  return family;
}

RepairResult CVTolerantRepair(const Relation& I, const ConstraintSet& sigma,
                              const CVTolerantOptions& options) {
  const RepairRunStart start;
  TraceSpan repair_span("cvtolerant/repair");
  const VariantFamily family = EnumerateVariants(I, sigma, options);
  // One coded mirror of I, shared by the fact scans and every candidate
  // solve. I is never mutated during the run (repairs are built on copies),
  // so the mirror stays in sync for the whole repair.
  const EncodedRelation E(I);
  const DomainStats stats_of_I(I);
  const std::vector<VariantFacts> facts =
      ScanVariantFacts(I, stats_of_I, family, options, E);
  int64_t fresh_counter = 1;
  return CVTolerantRepairWithFacts(I, stats_of_I, family, facts, options,
                                   &fresh_counter, E, start);
}

int64_t ViolationCap(const CVTolerantOptions& options, int num_rows) {
  return options.max_violations_per_tuple > 0
             ? static_cast<int64_t>(options.max_violations_per_tuple *
                                    std::max(num_rows, 1))
             : std::numeric_limits<int64_t>::max();
}

VariantFacts BuildVariantFacts(const Relation& I, const DomainStats& stats_of_I,
                               const DenialConstraint& c,
                               std::vector<Violation> violations, bool hopeless,
                               const CVTolerantOptions& options) {
  VariantFacts f;
  if (hopeless) {
    // `violations` (a truncated scan of up to the cap) is freed on return.
    f.hopeless = true;
    f.delta_l = std::numeric_limits<double>::infinity();
    f.delta_u = std::numeric_limits<double>::infinity();
    return f;
  }
  // Position-free violations in canonical rows order: scan order depends
  // on the partition layout, and the search must see identical facts no
  // matter which provider produced them. Candidate plans read them in
  // place, one view per position (UnionViews).
  f.violations = std::move(violations);
  for (Violation& v : f.violations) v.constraint_index = 0;
  std::sort(f.violations.begin(), f.violations.end(),
            [](const Violation& a, const Violation& b) {
              return a.rows < b.rows;
            });
  if (!f.violations.empty()) {
    const CostModel& cost = options.vfree.cost;
    ConflictHypergraph g =
        ConflictHypergraph::Build(I, stats_of_I, {c}, f.violations, cost);
    RepairCostBounds bounds = ComputeBounds(g, c.Degree(), cost,
                                            options.vfree.cover, &stats_of_I);
    f.delta_l = bounds.lower;
    f.delta_u = bounds.upper;
  }
  return f;
}

std::vector<VariantFacts> ScanVariantFacts(const Relation& I,
                                           const DomainStats& stats_of_I,
                                           const VariantFamily& family,
                                           const CVTolerantOptions& options,
                                           const EncodedRelation& encoded) {
  TraceSpan span("cvtolerant/detect_facts");
  const int64_t violation_cap = ViolationCap(options, I.num_rows());
  const ConstraintSet& constraints = family.constraints;
  span.AddArg("distinct_constraints",
              static_cast<int64_t>(constraints.size()));
  // Facts are pure per-constraint functions of I, so the distinct
  // constraints are scanned in parallel under the thread budget (serially,
  // inline and in the same order, at one thread); each worker fills its own
  // slot, and each scan is serial.
  std::vector<VariantFacts> facts(constraints.size());
  ThreadPool::ParallelFor(
      static_cast<int64_t>(constraints.size()),
      [&](int64_t k) {
        const DenialConstraint& c = constraints[static_cast<size_t>(k)];
        bool hopeless = false;
        std::vector<Violation> violations =
            FindViolationsOfCapped(encoded, c, 0, violation_cap, &hopeless);
        facts[static_cast<size_t>(k)] = BuildVariantFacts(
            I, stats_of_I, c, std::move(violations), hopeless, options);
      },
      options.threads);
  return facts;
}

VariantSearchResult CVTolerantSearchWithFacts(
    const Relation& I, const DomainStats& stats_of_I,
    const VariantFamily& family, const std::vector<VariantFacts>& facts,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation& encoded, RepairStats* stats) {
  TraceSpan span("cvtolerant/search_with_facts");
  const std::vector<SigmaVariant>& variants = family.variants;
  span.AddArg("variants", static_cast<int64_t>(variants.size()));
  VariantSearchResult result;
  result.solved_costs.assign(variants.size(),
                             std::numeric_limits<double>::quiet_NaN());
  result.abort_bounds.assign(variants.size(),
                             std::numeric_limits<double>::quiet_NaN());

  const VfreeOptions& vfree_options = options.vfree;
  const CostModel& cost = vfree_options.cost;
  // Every lookup is a δ-bound reuse: facts are computed once per distinct
  // constraint, before the search.
  int64_t lookups = 0;
  auto facts_at = [&](int k) -> const VariantFacts& {
    ++lookups;
    return facts[static_cast<size_t>(k)];
  };

  // Bounds for a whole variant Σ' combine its per-constraint facts
  // conservatively: δ_l(Σ') >= max_i δ_l(φ_i') (more edges only enlarge the
  // cover). Candidates are processed in ascending-δ_l order so that early
  // repairs tighten δ_min as fast as possible (Example 8).
  struct Candidate {
    size_t index = 0;  // position in family.variants
    double delta_l = 0.0;
    int num_violations = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(variants.size());
  int hopeless_count = 0;
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    Candidate c;
    c.index = vi;
    bool hopeless = false;
    for (int k : family.members[vi]) {
      const VariantFacts& f = facts_at(k);
      hopeless |= f.hopeless;
      c.delta_l = std::max(c.delta_l, f.delta_l);
      c.num_violations += static_cast<int>(f.violations.size());
    }
    if (hopeless) {
      ++hopeless_count;
      ++result.variants_pruned;
      continue;
    }
    candidates.push_back(c);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.delta_l < b.delta_l;
                   });

  // Algorithm 1 line 1: seed with δ_u(Σ, I) when Σ is a valid candidate.
  // δ_u(Σ) <= Σ_i δ_u(φ_i) (the union of the per-constraint covers is a
  // cover of the union graph) prices cell updates, so it bounds an update
  // repair and a hybrid one (which deletes a tuple only where that is
  // cheaper), but not a subset repair's deletion weights: under the delete
  // strategy the search starts from +∞, as it does for θ < 0.
  int sigma_violations = 0;
  double sigma_upper = 0.0;
  for (int k : family.sigma_members) {
    const VariantFacts& f = facts_at(k);
    sigma_violations += static_cast<int>(f.violations.size());
    sigma_upper += f.delta_u;
  }
  double delta_min = std::numeric_limits<double>::infinity();
  if (options.variants.theta >= 0.0 &&
      vfree_options.strategy != RepairStrategy::kDelete) {
    delta_min = sigma_upper;
  }
  auto pruned = [&](const Candidate& c) {
    return options.enable_bound_pruning && c.delta_l > delta_min + 1e-9;
  };

  // Speculative candidates (DESIGN.md §7): a Vfree or subset DataRepair
  // round splits into a pure plan (PlanDirtyComponents: hypergraph, cover,
  // suspects, context, components — or the tuple cover under the delete
  // strategy) and a serial replay (cache, solves, fresh ids, cost abort).
  // Each window plans the next `width` unpruned candidates at the current
  // δ_min in one ParallelFor — one candidate per thread, so one at a time
  // at one thread or inside a pool worker — then replays them in δ_l order
  // under the pruning and budget tests. δ_min never increases, so every
  // candidate that reaches the replay unpruned was planned; a plan whose
  // candidate has been pruned since is dropped. CVtolerant+Holistic plans
  // nothing and has no window.
  const bool plannable = options.use_vfree ||
                         vfree_options.strategy == RepairStrategy::kDelete;
  const int width =
      plannable ? ThreadPool::EffectiveThreads(options.threads) : 0;
  MaterializedCache cache;
  // The cheapest candidate's repair, applied to a copy of I once, after the
  // loop.
  std::optional<ScopedRepair> incumbent;
  size_t next = 0;
  bool budget_spent = false;
  while (next < candidates.size() && !budget_spent) {
    std::vector<size_t> window;  // candidate positions to plan
    int room = std::min(
        width, options.max_datarepair_calls - result.datarepair_calls);
    for (size_t j = next; j < candidates.size() && room > 0; ++j) {
      if (pruned(candidates[j])) continue;
      window.push_back(j);
      --room;
    }
    std::vector<ComponentPlan> plans(window.size());
    if (!window.empty()) {
      TraceSpan plan_span("cvtolerant/plan_candidates");
      ThreadPool::ParallelFor(
          static_cast<int64_t>(window.size()),
          [&](int64_t i) {
            const Candidate& c = candidates[window[static_cast<size_t>(i)]];
            plans[static_cast<size_t>(i)] = PlanDirtyComponents(
                I, stats_of_I, variants[c.index].constraints,
                UnionViews(family.members[c.index], facts), vfree_options,
                encoded);
          },
          options.threads);
      plan_span.AddArg("plans", static_cast<int64_t>(window.size()));
      PlansBuiltCounter()->Add(static_cast<int64_t>(window.size()));
    }
    // The replay: the serial candidate loop over [next, end). Without a
    // window it runs to the end of the candidate list: every candidate left
    // is pruned or over the budget, or there is no window to plan.
    const size_t end = window.empty() ? candidates.size() : window.back() + 1;
    size_t w = 0;  // next unconsumed window slot
    for (; next < end; ++next) {
      const Candidate& c = candidates[next];
      std::optional<ComponentPlan> plan;
      if (w < window.size() && window[w] == next) plan = std::move(plans[w++]);
      if (pruned(c)) {
        ++result.variants_pruned;
        if (plan) PlansDiscardedCounter()->Increment();
        continue;
      }
      if (result.datarepair_calls >= options.max_datarepair_calls) {
        budget_spent = true;
        break;
      }
      ++result.datarepair_calls;
      TraceSpan solve_span("cvtolerant/solve_candidate");
      solve_span.AddArg("call", result.datarepair_calls);
      solve_span.AddArg("violations", c.num_violations);

      const ConstraintSet& set = variants[c.index].constraints;
      lookups += static_cast<int64_t>(set.size());  // its union's facts
      std::optional<ScopedRepair> scoped;
      if (plannable) {
        assert(plan.has_value());
        const double abort_at = options.enable_bound_pruning
                                    ? delta_min + 1e-9
                                    : std::numeric_limits<double>::infinity();
        scoped = ReplayComponents(
            I, stats_of_I, *plan, abort_at, vfree_options,
            options.enable_sharing ? &cache : nullptr, stats, fresh_counter);
        plan.reset();
        if (!scoped) {
          // δ_min abort: the candidate's cost strictly exceeds the
          // threshold it was solving under — worth recording as a lower
          // bound.
          result.abort_bounds[c.index] = abort_at;
          continue;
        }
      } else {
        // CVtolerant+Holistic (Figure 5): the multi-round Holistic engine
        // repairs the candidate, without sharing or the cost abort.
        HolisticOptions hopts;
        hopts.cost = cost;
        RepairResult hr = HolisticRepair(I, set, hopts);
        if (stats) {
          stats->solver_calls += hr.stats.solver_calls;
          stats->rounds += hr.stats.rounds;
        }
        scoped.emplace().assignments = ChangedCells(I, hr.repaired);
      }
      const double delta =
          TallyRepair(I, stats_of_I, scoped->assignments, cost,
                      vfree_options.strategy, vfree_options.subset)
              .cost;
      result.solved_costs[c.index] = delta;
      if (delta < result.cost) {
        result.cost = delta;
        delta_min = std::min(delta_min, delta);
        incumbent = std::move(scoped);
        result.variant = set;
        result.have_result = true;
      }
    }
  }
  if (incumbent) {
    result.repaired = I;
    for (auto& [cell, value] : incumbent->assignments) {
      result.repaired.SetValue(cell, std::move(value));
    }
  }
  if (stats) {
    stats->initial_violations = sigma_violations;
    stats->variants_enumerated = static_cast<int>(variants.size());
    stats->variants_hopeless = hopeless_count;
    stats->variants_pruned_bounds = result.variants_pruned;
    stats->datarepair_calls = result.datarepair_calls;
    stats->cache_hits = static_cast<int>(cache.hits());
    stats->bound_memo_hits = lookups;
  }
  return result;
}

RepairResult CVTolerantRepairWithFacts(
    const Relation& I, const DomainStats& stats_of_I,
    const VariantFamily& family, const std::vector<VariantFacts>& facts,
    const CVTolerantOptions& options, int64_t* fresh_counter,
    const EncodedRelation& encoded, const RepairRunStart& start,
    VariantSearchResult* search) {
  const VfreeOptions& vfree_options = options.vfree;
  const ConstraintSet& sigma = family.sigma;
  RepairResult result;
  VariantSearchResult found =
      CVTolerantSearchWithFacts(I, stats_of_I, family, facts, options,
                                fresh_counter, encoded, &result.stats);
  if (options.use_vfree) result.stats.rounds = 1;
  result.stats.variants_pruned_nonmaximal = family.pruned_nonmaximal;
  result.stats.variants_capped = family.capped;
  result.satisfied_constraints = sigma;
  if (found.have_result) {
    result.repaired = std::move(found.repaired);
    result.satisfied_constraints = found.variant;
  } else if (options.variants.theta >= 0.0) {
    // Every candidate (including Σ) was hopeless under the violation cap,
    // pruned, or aborted: fall back to a plain uncapped repair of Σ so that
    // θ >= 0 always behaves at least like Vfree.
    RepairResult fallback = VfreeRepair(I, sigma, vfree_options);
    result.repaired = std::move(fallback.repaired);
    result.stats.solver_calls += fallback.stats.solver_calls;
  } else {
    // Extreme negative θ with no viable variant: input unchanged.
    result.repaired = I;
  }

  // The chosen repair's counts, from one diff of the repaired instance.
  const RepairTally tally =
      TallyRepair(I, stats_of_I, ChangedCells(I, result.repaired),
                  vfree_options.cost, vfree_options.strategy,
                  vfree_options.subset);
  result.stats.changed_cells = tally.changed_cells;
  result.stats.repair_cost = tally.cost;
  result.stats.fresh_assignments = tally.fresh_assignments;
  result.stats.rows_deleted = tally.rows_deleted;
  const EvalCounters scanned = eval_counters::Snapshot() - start.counters;
  result.stats.index_partition_builds = scanned.partition_builds;
  result.stats.index_predicate_evals = scanned.predicate_evals;
  result.stats.index_code_evals = scanned.code_predicate_evals;
  result.stats.index_truncated_scans = scanned.truncated_scans;
  result.stats.index_blocks_scanned = scanned.blocks_scanned;
  result.stats.index_blocks_skipped = scanned.blocks_skipped;
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start.time)
          .count();
  if (search) *search = std::move(found);
  return result;
}

}  // namespace cvrepair
