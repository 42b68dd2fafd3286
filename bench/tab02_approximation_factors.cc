// Table 2 (Appendix B, Theorem 7): the heuristic repair is a
// d·Deg(Σ)-factor approximation of the optimal θ-tolerant repair, with
// per-class bounds d|R| (linear DCs / constant CFDs) and 2d|R| (binary
// DCs / variable CFDs / FDs). This bench measures the *empirical* ratio
// Δ(I, I') / Δ(I, I*) on small random instances where I* is computed by
// exhaustive search, and checks it against the Theorem 7 bound.
#include <random>

#include "bench_util.h"
#include "repair/exact.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

struct CaseResult {
  double worst_ratio = 0.0;
  double mean_ratio = 0.0;
  int instances = 0;
  double bound = 0.0;
};

CaseResult Measure(const ConstraintSet& sigma, int rows, int trials,
                   uint64_t seed) {
  CaseResult out;
  CostModel cost;
  // d = max dist(a, fv) / min dist(a, b) = 1.1 under the count model.
  double d = cost.fresh_cost / 1.0;
  out.bound = d * Degree(sigma);
  std::mt19937_64 rng(seed);
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    Relation rel = Table2Instance(&rng, rows);
    std::optional<RepairResult> exact = ExactMinimumRepair(rel, sigma);
    if (!exact || exact->stats.repair_cost <= 0.0) continue;
    RepairResult heuristic = VfreeRepair(rel, sigma);
    double ratio = heuristic.stats.repair_cost / exact->stats.repair_cost;
    out.worst_ratio = std::max(out.worst_ratio, ratio);
    sum += ratio;
    ++out.instances;
  }
  out.mean_ratio = out.instances ? sum / out.instances : 0.0;
  return out;
}

}  // namespace

int main() {
  ExperimentTable table(
      "Table 2 — empirical approximation factors vs the Theorem 7 bound",
      {"constraint class", "instances", "mean ratio", "worst ratio",
       "bound d*Deg"});

  for (const Table2Class& c : Table2Classes()) {
    CaseResult r = Measure(c.sigma, c.rows, c.trials, c.seed);
    table.BeginRow();
    table.Add(c.name);
    table.Add(r.instances);
    table.Add(r.mean_ratio);
    table.Add(r.worst_ratio);
    table.Add(r.bound, 1);
    if (r.worst_ratio > r.bound) {
      table.Add("BOUND VIOLATED");
    }
  }

  table.Print();
  return 0;
}
