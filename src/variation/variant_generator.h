#ifndef CVREPAIR_VARIATION_VARIANT_GENERATOR_H_
#define CVREPAIR_VARIATION_VARIANT_GENERATOR_H_

#include <limits>
#include <vector>

#include "dc/constraint.h"
#include "dc/predicate_space.h"
#include "variation/edit_cost.h"

namespace cvrepair {

/// One variant φ' of a single constraint φ, with its edit cost and the
/// price of the cheapest further insertion (∞ when no valid insertion
/// remains) — used for the θ-maximality test.
struct ConstraintVariant {
  DenialConstraint constraint;
  double cost = 0.0;
  int num_insertions = 0;
  int num_deletions = 0;
  double cheapest_next_insertion = std::numeric_limits<double>::infinity();
  /// Cheapest cost increase from undoing one free-standing (non
  /// substituted) deletion; ∞ when every deletion is a substitution.
  /// Undoing a deletion refines the variant (Definition 3), so a variant
  /// whose undo still fits θ is non-maximal (Lemma 1 dominates it).
  double cheapest_deletion_undo = std::numeric_limits<double>::infinity();
};

/// One variant Σ' of the whole constraint set, positionally aligned with
/// the original Σ.
struct SigmaVariant {
  ConstraintSet constraints;
  double cost = 0.0;
};

/// The variant family D of Algorithm 1 in dense form: Σ, its variants, and
/// the distinct constraints across both, each held once. Positions in
/// `constraints` index the per-constraint facts of the variant search
/// (repair/cvtolerant.h) and a VariantTracker's detection index.
struct VariantFamily {
  VariantFamily() = default;
  /// Collects the distinct constraints of Σ, then of each variant in
  /// order, in first-seen order, and records every member's position.
  VariantFamily(ConstraintSet sigma, std::vector<SigmaVariant> variants,
                int pruned_nonmaximal = 0, bool capped = false);

  ConstraintSet sigma;
  std::vector<SigmaVariant> variants;
  /// Distinct constraints of Σ and the variants: Σ's first, first-seen
  /// order.
  ConstraintSet constraints;
  /// Positions in `constraints` of Σ's constraints, aligned with `sigma`.
  std::vector<int> sigma_members;
  /// Per variant, the positions in `constraints` of its constraints,
  /// aligned with `variants[i].constraints`.
  std::vector<std::vector<int>> members;
  /// Σ' the generator dropped as non-maximal w.r.t. θ.
  int pruned_nonmaximal = 0;
  /// The generator stopped at its 20,000-variant cap, so D is truncated.
  bool capped = false;
};

/// Structural limits and the tolerance for variant enumeration.
struct VariantGenOptions {
  /// Constraint-variance tolerance θ: Θ(Σ, Σ') ≤ θ. May be negative
  /// (Appendix D.2: net predicate deletion).
  double theta = 1.0;
  VariationCostModel cost_model;
  PredicateSpaceOptions space;
  /// At most this many constraints of Σ differ from the original in one
  /// variant Σ'.
  int max_changed_constraints = 2;
  /// Data used for the meaningful-predicate test of the generator (not
  /// owned; nullptr disables the test). The determination of meaningful
  /// predicates is delegated to DC discovery in the paper ([7], footnote
  /// 2); this is our data-driven stand-in.
  const Relation* data = nullptr;
  /// Prune Σ' that are non-maximal w.r.t. θ (Section 3.1): some valid
  /// single insertion still fits the budget, so a refining variant with
  /// no worse minimum repair (Lemma 1) is also enumerated.
  bool prune_nonmaximal = true;
  /// Keep Σ itself (Θ = 0) as a candidate even when non-maximal, so that
  /// accurate input constraints always compete (Algorithm 1 seeds its
  /// bound with δ_u(Σ, I) for the same reason).
  bool always_include_original = true;
};

/// Enumeration counters reported back to callers.
struct VariantGenStats {
  int sigma_enumerated = 0;       ///< before maximality pruning
  int pruned_nonmaximal = 0;
  bool capped = false;            ///< the family-size cap was hit
};

/// Enumerates variants of one constraint with edit cost ≤ `max_cost`:
/// all deletion subsets (leaving at least one predicate) combined with
/// insertion subsets drawn from `space`, subject to the generator's
/// structural caps (at most 3 deletions and 2 insertions per constraint).
/// Inserted predicates never duplicate operand pairs remaining in the
/// constraint, and trivial results (contradicting predicates, Section
/// 2.2.1) are discarded. Proposition 2 is honored through the
/// predicate space itself (operators {<, >, =} only). Results are sorted
/// by cost, identity variant first.
std::vector<ConstraintVariant> GenerateConstraintVariants(
    const DenialConstraint& phi, const std::vector<Predicate>& space,
    const VariantGenOptions& options, double max_cost);

/// Enumerates the candidate set D of Section 2.3: the cross product of
/// per-constraint variants with Θ(Σ, Σ') ≤ θ, pruned to θ-maximal
/// variants (plus Σ itself when always_include_original). Deterministic;
/// capped at 20,000 variants.
std::vector<SigmaVariant> GenerateSigmaVariants(const ConstraintSet& sigma,
                                                const Schema& schema,
                                                const VariantGenOptions& options,
                                                VariantGenStats* stats = nullptr);

}  // namespace cvrepair

#endif  // CVREPAIR_VARIATION_VARIANT_GENERATOR_H_
