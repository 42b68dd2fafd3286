#include "solver/materialized_cache.h"

#include "dc/op.h"
#include "util/metrics.h"

namespace cvrepair {

namespace {

// Registry twins of the per-instance hit/miss atomics: all caches in the
// process aggregate here for metrics.json. Lookups run only during the
// serial replay of component solutions, so the totals are deterministic.
struct CacheMetrics {
  MetricCounter* hits;
  MetricCounter* misses;
  MetricCounter* stores;
};

const CacheMetrics& Metrics() {
  static const CacheMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    CacheMetrics* fresh = new CacheMetrics();
    fresh->hits = r.GetCounter("cache.lookup_hits");
    fresh->misses = r.GetCounter("cache.lookup_misses");
    fresh->stores = r.GetCounter("cache.stores");
    return fresh;
  }();
  return *m;
}

}  // namespace

bool ContextRefines(const std::vector<RcAtom>& refined,
                    const std::vector<RcAtom>& base) {
  for (const RcAtom& b : base) {
    bool matched = false;
    for (const RcAtom& r : refined) {
      if (b.SameOperands(r) && Implies(r.op, b.op)) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::optional<ComponentSolution> MaterializedCache::Lookup(
    const Component& component) const {
  auto it = entries_.find(component.cells);
  if (it != entries_.end()) {
    for (const Entry& entry : it->second) {
      if (!ContextRefines(component.atoms, entry.atoms)) continue;
      if (!SolutionSatisfies(component, entry.solution)) continue;
      hits_.fetch_add(1, std::memory_order_relaxed);
      Metrics().hits->Increment();
      return entry.solution;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Metrics().misses->Increment();
  return std::nullopt;
}

void MaterializedCache::Store(const Component& component,
                              const ComponentSolution& solution) {
  entries_[component.cells].push_back({component.atoms, solution});
  Metrics().stores->Increment();
}

}  // namespace cvrepair
