#ifndef CVREPAIR_SOLVER_MATERIALIZED_CACHE_H_
#define CVREPAIR_SOLVER_MATERIALIZED_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "solver/components.h"
#include "solver/csp_solver.h"

namespace cvrepair {

/// Materialized component solutions, shared across constraint variants
/// (Section 4.2). Keyed by the component's cell set; a stored solution for
/// rc(C_k, Σ1) is reused for a new context rc(C_k, Σ2) when
///   (a) rc(C_k, Σ2) ⊑ rc(C_k, Σ1) (Definition 7: every stored atom is
///       matched by a new atom on the same operands whose operator implies
///       it), and
///   (b) the stored solution satisfies the new context,
/// in which case the stored optimum is optimal for the new context too
/// (Proposition 6). Identical contexts qualify trivially.
class MaterializedCache {
 public:
  /// Returns the first entry for the component's cells, in store order,
  /// that qualifies under (a) and (b), or nullopt. Safe to call
  /// concurrently from pool threads as long as no Store runs: the map is
  /// only read, and the hit/miss counters are relaxed atomics (they are
  /// statistics, not synchronization).
  std::optional<ComponentSolution> Lookup(const Component& component) const;

  /// Stores a solved component for later reuse. Not safe to interleave
  /// with concurrent Lookup/Store calls.
  void Store(const Component& component, const ComponentSolution& solution);

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct CellVecHash {
    size_t operator()(const std::vector<Cell>& cells) const {
      size_t seed = cells.size();
      CellHash h;
      for (const Cell& c : cells) seed = seed * 1000003 ^ h(c);
      return seed;
    }
  };
  struct Entry {
    std::vector<RcAtom> atoms;
    ComponentSolution solution;
  };

  std::unordered_map<std::vector<Cell>, std::vector<Entry>, CellVecHash>
      entries_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

/// Definition 7: true iff `refined` ⊑ `base` — for every atom of `base`
/// there is an atom of `refined` on the same operands whose operator
/// implies it.
bool ContextRefines(const std::vector<RcAtom>& refined,
                    const std::vector<RcAtom>& base);

}  // namespace cvrepair

#endif  // CVREPAIR_SOLVER_MATERIALIZED_CACHE_H_
