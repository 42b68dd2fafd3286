#include "variation/variant_generator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>

#include "dc/predicate_space.h"

namespace cvrepair {

namespace {

constexpr double kEps = 1e-9;

// Structural caps bounding the searched family of variants: deletions and
// insertions per constraint, and the size of the whole family D.
constexpr int kMaxDeletionsPerConstraint = 3;
constexpr int kMaxInsertionsPerConstraint = 2;
constexpr int kMaxSigmaVariants = 20000;

// An insertion P into φ must hold on at least this fraction of sampled
// tuple pairs that already agree on φ's equality predicates. Below the
// threshold the inserted predicate is key-like for the constraint's
// groups: it would make φ' vacuous on the data (the data-level analogue of
// a trivial DC) and is skipped.
constexpr double kMinConditionalSupport = 0.10;
// Pair-sample size for the conditional-support estimate.
constexpr int kSupportSample = 4000;

// Data-driven meaningful-predicate test (footnote 2 of the paper /
// DC discovery [7]): an insertable predicate must hold on a non-trivial
// fraction of tuple pairs that already agree on the constraint's equality
// predicates — otherwise it is key-like for the constraint's groups and
// would make the variant vacuous on the data.
class SupportEstimator {
 public:
  explicit SupportEstimator(const Relation* data) : data_(data) {}

  // True when the test is disabled or P has enough conditional support.
  bool Meaningful(const std::vector<AttrId>& eq_attrs, const Predicate& p) {
    if (data_ == nullptr) return true;
    const std::vector<std::pair<int, int>>& pairs = SampleFor(eq_attrs);
    if (pairs.empty()) return false;  // base already vacuous on the data
    int hits = 0;
    std::vector<int> rows(2);
    for (const auto& [i, j] : pairs) {
      rows[0] = i;
      rows[1] = j;
      if (p.Eval(*data_, rows)) ++hits;
    }
    return static_cast<double>(hits) / pairs.size() >=
           kMinConditionalSupport;
  }

 private:
  struct AttrVecHash {
    size_t operator()(const std::vector<AttrId>& v) const {
      size_t seed = v.size();
      for (AttrId a : v) seed = seed * 1000003 ^ static_cast<size_t>(a + 7);
      return seed;
    }
  };
  struct ValueVecHash {
    size_t operator()(const std::vector<Value>& vs) const {
      size_t seed = 0x5a5a;
      for (const Value& v : vs) seed = seed * 1000003 ^ v.Hash();
      return seed;
    }
  };

  const std::vector<std::pair<int, int>>& SampleFor(
      const std::vector<AttrId>& eq_attrs) {
    auto it = samples_.find(eq_attrs);
    if (it != samples_.end()) return it->second;
    std::vector<std::pair<int, int>> pairs;
    int n = data_->num_rows();
    if (eq_attrs.empty()) {
      // Unconditioned: deterministic strided pairs.
      int stride = std::max(1, n * n / kSupportSample / 2);
      for (int i = 0; i < n && static_cast<int>(pairs.size()) < kSupportSample;
           ++i) {
        for (int j = (i * 7 + 1) % n; j < n; j += stride + 1) {
          if (i != j) pairs.push_back({i, j});
          if (static_cast<int>(pairs.size()) >= kSupportSample) break;
        }
      }
    } else {
      std::unordered_map<std::vector<Value>, std::vector<int>, ValueVecHash>
          groups;
      for (int i = 0; i < n; ++i) {
        std::vector<Value> key;
        bool usable = true;
        for (AttrId a : eq_attrs) {
          const Value& v = data_->Get(i, a);
          if (v.is_null() || v.is_fresh()) {
            usable = false;
            break;
          }
          key.push_back(v);
        }
        if (usable) groups[std::move(key)].push_back(i);
      }
      for (const auto& [key, members] : groups) {
        (void)key;
        for (size_t a = 0; a + 1 < members.size(); ++a) {
          for (size_t b = a + 1; b < members.size(); ++b) {
            pairs.push_back({members[a], members[b]});
            pairs.push_back({members[b], members[a]});
            if (static_cast<int>(pairs.size()) >= kSupportSample) break;
          }
          if (static_cast<int>(pairs.size()) >= kSupportSample) break;
        }
        if (static_cast<int>(pairs.size()) >= kSupportSample) break;
      }
    }
    return samples_.emplace(eq_attrs, std::move(pairs)).first->second;
  }

  const Relation* data_;
  std::unordered_map<std::vector<AttrId>, std::vector<std::pair<int, int>>,
                     AttrVecHash>
      samples_;
};

// Cheapest valid insertion into `variant` from `cand` (operand pairs not
// already present); infinity when none remains.
double CheapestInsertion(const DenialConstraint& variant,
                         const DenialConstraint& base,
                         const std::vector<Predicate>& cand,
                         const VariationCostModel& model) {
  double best = std::numeric_limits<double>::infinity();
  for (const Predicate& p : cand) {
    if (variant.ContainsOperands(p)) continue;
    best = std::min(best, model.PredicateCost(p, base));
  }
  return best;
}

}  // namespace

VariantFamily::VariantFamily(ConstraintSet sigma_in,
                             std::vector<SigmaVariant> variants_in,
                             int pruned_nonmaximal_in, bool capped_in)
    : sigma(std::move(sigma_in)),
      variants(std::move(variants_in)),
      pruned_nonmaximal(pruned_nonmaximal_in),
      capped(capped_in) {
  std::map<DenialConstraint, int> position;
  auto member = [&](const DenialConstraint& c) {
    auto [it, inserted] =
        position.try_emplace(c, static_cast<int>(constraints.size()));
    if (inserted) constraints.push_back(c);
    return it->second;
  };
  for (const DenialConstraint& phi : sigma) {
    sigma_members.push_back(member(phi));
  }
  members.resize(variants.size());
  for (size_t vi = 0; vi < variants.size(); ++vi) {
    for (const DenialConstraint& phi : variants[vi].constraints) {
      members[vi].push_back(member(phi));
    }
  }
}

std::vector<ConstraintVariant> GenerateConstraintVariants(
    const DenialConstraint& phi, const std::vector<Predicate>& space,
    const VariantGenOptions& options, double max_cost) {
  std::vector<ConstraintVariant> out;
  const std::vector<Predicate>& preds = phi.predicates();
  const int m = static_cast<int>(preds.size());
  const VariationCostModel& model = options.cost_model;

  std::vector<double> del_cost(m);
  for (int i = 0; i < m; ++i) del_cost[i] = model.PredicateCost(preds[i], phi);

  SupportEstimator support(options.data);

  // Enumerate deletion subsets (keep at least one predicate).
  const int num_masks = 1 << m;
  for (int mask = 0; mask < num_masks; ++mask) {
    int deletions = __builtin_popcount(static_cast<unsigned>(mask));
    if (deletions > kMaxDeletionsPerConstraint || deletions >= m) {
      continue;  // too many deletions, or nothing would remain
    }

    double d_cost = 0.0;
    std::vector<Predicate> kept;
    std::vector<const Predicate*> deleted;
    for (int i = 0; i < m; ++i) {
      if (mask & (1 << i)) {
        d_cost += model.lambda * del_cost[i];
        deleted.push_back(&preds[i]);
      } else {
        kept.push_back(preds[i]);
      }
    }
    DenialConstraint base(kept, phi.name());

    // Insertion candidates: operand pairs not present in the reduced
    // constraint, not simply re-inserting a deleted predicate, matching
    // the constraint's tuple arity, and meaningful on the data.
    // The same grouping structure hash-partitioned violation detection
    // keys on (dc/predicate_space.h).
    std::vector<AttrId> eq_attrs = EqualityJoinAttrs(kept);
    std::vector<Predicate> cand;
    for (const Predicate& p : space) {
      if (p.MaxTupleVar() + 1 > phi.NumTupleVars()) continue;
      if (base.ContainsOperands(p)) continue;
      // Order predicates (<, >) are only inserted on attributes already
      // used by the original constraint (strengthening / substitution, as
      // in all of the paper's examples); equality predicates may come from
      // any meaningful attribute (FD-style refinement, Example 5).
      if (p.op() == Op::kLt || p.op() == Op::kGt) {
        bool own = false;
        for (const Predicate& q : preds) {
          if (q.lhs().attr == p.lhs().attr ||
              (!q.has_constant() && q.rhs_cell().attr == p.lhs().attr)) {
            own = true;
            break;
          }
        }
        if (!own) continue;
      }
      bool reinsert = false;
      for (const Predicate* d : deleted) {
        if (*d == p) {
          reinsert = true;
          break;
        }
      }
      if (reinsert) continue;
      if (!support.Meaningful(eq_attrs, p)) continue;
      cand.push_back(p);
    }
    std::sort(cand.begin(), cand.end());

    // DFS over insertion subsets with cost pruning (all costs positive).
    std::vector<Predicate> chosen;
    auto emit = [&](double total_cost) {
      // Every deleted non-equality predicate (the "consequent-like" !=, <,
      // >, <=, >=) must be *strengthened*: an inserted predicate on the
      // same operands whose operator implies the deleted one (<= -> <,
      // != -> <, ... as in Example 4). Deleting it outright would let the
      // Θ budget launder a constraint's meaning away (delete the
      // consequent, insert an unrelated predicate at net cost ≈ 0); this
      // also rules out semantic reversals such as != -> =. The paper's own
      // variants — FD LHS edits and operator substitutions — never do
      // either.
      for (const Predicate* d : deleted) {
        if (d->op() == Op::kEq) continue;
        bool substituted = false;
        for (const Predicate& c : chosen) {
          if (c.SameOperands(*d) && Implies(c.op(), d->op())) {
            substituted = true;
            break;
          }
        }
        if (!substituted) return;
      }
      std::vector<Predicate> all = kept;
      all.insert(all.end(), chosen.begin(), chosen.end());
      DenialConstraint variant(std::move(all), phi.name());
      if (variant.IsTrivial()) return;
      ConstraintVariant cv;
      cv.cost = total_cost;
      cv.num_insertions = static_cast<int>(chosen.size());
      cv.num_deletions = deletions;
      cv.cheapest_next_insertion =
          CheapestInsertion(variant, phi, cand, model);
      for (const Predicate* d : deleted) {
        bool substituted = false;
        for (const Predicate& c : chosen) {
          if (c.SameOperands(*d) && Implies(c.op(), d->op())) {
            substituted = true;
            break;
          }
        }
        if (!substituted) {
          cv.cheapest_deletion_undo =
              std::min(cv.cheapest_deletion_undo,
                       -model.lambda * model.PredicateCost(*d, phi));
        }
      }
      cv.constraint = std::move(variant);
      out.push_back(std::move(cv));
    };
    auto dfs = [&](auto&& self, size_t from, double cost) -> void {
      if (cost <= max_cost + kEps) emit(cost);
      if (static_cast<int>(chosen.size()) >= kMaxInsertionsPerConstraint) {
        return;
      }
      for (size_t i = from; i < cand.size(); ++i) {
        // Two inserted predicates on the same operands would contradict
        // (space operators are {<, >, =}) and trivialize the constraint.
        bool clash = false;
        for (const Predicate& c : chosen) {
          if (c.SameOperands(cand[i])) {
            clash = true;
            break;
          }
        }
        if (clash) continue;
        double c = model.PredicateCost(cand[i], phi);
        if (cost + c > max_cost + kEps) continue;
        chosen.push_back(cand[i]);
        self(self, i + 1, cost + c);
        chosen.pop_back();
      }
    };
    dfs(dfs, 0, d_cost);
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const ConstraintVariant& a, const ConstraintVariant& b) {
                     if (a.cost != b.cost) return a.cost < b.cost;
                     return a.constraint < b.constraint;
                   });
  return out;
}

std::vector<SigmaVariant> GenerateSigmaVariants(const ConstraintSet& sigma,
                                                const Schema& schema,
                                                const VariantGenOptions& options,
                                                VariantGenStats* stats) {
  const int k = static_cast<int>(sigma.size());
  const VariationCostModel& model = options.cost_model;
  std::vector<Predicate> space = BuildPredicateSpace(schema, options.space);

  // Most negative achievable edit cost per constraint: delete the most
  // expensive predicates (bounded by the caps, always keeping one).
  std::vector<double> min_cost(k, 0.0);
  for (int i = 0; i < k; ++i) {
    std::vector<double> costs;
    for (const Predicate& p : sigma[i].predicates()) {
      // Only free-standing deletions contribute negative cost; restricted
      // non-equality deletions come with a paid substitution.
      if (p.op() != Op::kEq) continue;
      costs.push_back(model.PredicateCost(p, sigma[i]));
    }
    std::sort(costs.rbegin(), costs.rend());
    int deletable = std::min<int>(
        kMaxDeletionsPerConstraint,
        std::min<int>(static_cast<int>(costs.size()), sigma[i].size() - 1));
    double sum = 0.0;
    for (int d = 0; d < deletable; ++d) sum += costs[d];
    min_cost[i] = model.lambda * sum;  // λ ≤ 0, so this is ≤ 0
  }
  std::vector<double> suffix_min(k + 1, 0.0);
  for (int i = k - 1; i >= 0; --i) suffix_min[i] = suffix_min[i + 1] + min_cost[i];

  // Per-constraint variant lists. Each constraint's own edit must fit the
  // tolerance (capped at max(θ, 0)): deletions elsewhere in Σ must not
  // subsidize extra insertions here — a cross-subsidized variant is
  // formally θ-maximal but pairs a wrecked constraint with an overfitted
  // one and only bloats the candidate set.
  std::vector<std::vector<ConstraintVariant>> phis(k);
  for (int i = 0; i < k; ++i) {
    double budget = std::min(options.theta - (suffix_min[0] - min_cost[i]),
                             std::max(options.theta, 0.0));
    phis[i] = GenerateConstraintVariants(sigma[i], space, options, budget);
  }

  std::vector<SigmaVariant> out;
  if (options.always_include_original) {
    out.push_back({sigma, 0.0});
  }

  // Cross product with budget pruning (Φ_i sorted by ascending cost).
  std::vector<const ConstraintVariant*> pick(k);
  auto leaf = [&](double total) {
    if (stats) ++stats->sigma_enumerated;
    int changed = 0;
    for (int i = 0; i < k; ++i) {
      if (pick[i]->num_insertions + pick[i]->num_deletions > 0) ++changed;
    }
    if (changed == 0) return;  // the identity Σ is handled above

    if (options.prune_nonmaximal) {
      // θ-maximality (Section 3.1): if one more valid insertion fits the
      // budget and the structural caps, a refining variant with a repair
      // no worse (Lemma 1) is also enumerated — skip this one.
      for (int i = 0; i < k; ++i) {
        const ConstraintVariant& v = *pick[i];
        bool was_changed = v.num_insertions + v.num_deletions > 0;
        if (!was_changed && changed >= options.max_changed_constraints)
          continue;
        if (total + v.cheapest_deletion_undo <= options.theta + kEps) {
          if (stats) ++stats->pruned_nonmaximal;
          return;
        }
        if (v.num_insertions >= kMaxInsertionsPerConstraint) continue;
        if (total + v.cheapest_next_insertion <= options.theta + kEps) {
          if (stats) ++stats->pruned_nonmaximal;
          return;
        }
      }
    }
    SigmaVariant sv;
    sv.cost = total;
    sv.constraints.reserve(k);
    for (int i = 0; i < k; ++i) sv.constraints.push_back(pick[i]->constraint);
    out.push_back(std::move(sv));
  };

  bool capped = false;
  auto dfs = [&](auto&& self, int i, double cost, int changed) -> void {
    if (capped) return;
    if (static_cast<int>(out.size()) >= kMaxSigmaVariants) {
      capped = true;
      return;
    }
    if (i == k) {
      if (cost <= options.theta + kEps) leaf(cost);
      return;
    }
    for (const ConstraintVariant& v : phis[i]) {
      bool is_change = v.num_insertions + v.num_deletions > 0;
      if (is_change && changed >= options.max_changed_constraints) continue;
      // Φ_i is cost-sorted: once even the cheapest completion overflows,
      // later variants of this constraint overflow too.
      if (cost + v.cost + suffix_min[i + 1] > options.theta + kEps) break;
      pick[i] = &v;
      self(self, i + 1, cost + v.cost, changed + (is_change ? 1 : 0));
      if (capped) return;
    }
  };
  dfs(dfs, 0, 0.0, 0);
  if (stats) stats->capped = capped;
  return out;
}

}  // namespace cvrepair
