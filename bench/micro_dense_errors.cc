// Microbench for the topology-aware decomposition of giant conflict
// components (graph/decompose.h + the vfree split/stitch path; DESIGN.md
// §12). The DENSE generator builds adversarial high-error ramps whose
// repair context collapses into giant banded components; this bench
// FATAL-guards the tentpole claims:
//   1. the largest component splits into >= 4 sub-components,
//   2. the CSP solver work counter for the giant-component path drops
//      (solve.oversized_solver_cells: every cell solved through the
//      serial oversized path with decompose off, zero with it on), while
//      total solve.csp_atom_evals stays bounded — the per-variable domain
//      filtering dominates it and is split-invariant, and sub-components
//      small enough for the exact search trade a few extra evals for
//      exact solutions,
//   3. the decomposed repair is still violation-free at equal-or-lower
//      realized cost than the undecomposed path.
// Appends wall-clock and counter records to BENCH_dense_errors.json.
#include "bench_util.h"

#include "data/dense.h"
#include "dc/violation.h"
#include "graph/conflict_hypergraph.h"
#include "graph/decompose.h"
#include "graph/vertex_cover.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/repair_context.h"

using namespace cvrepair;
using namespace cvrepair::bench;

namespace {

constexpr int kMaxComponent = 24;

DenseConfig BenchConfig() {
  DenseConfig config;
  config.num_tracks = 2;
  config.rows_per_track = 240;
  config.error_rate = 0.4;  // adversarial: past the 0.3 floor of the claim
  return config;
}

VfreeOptions DenseVfreeOptions(bool decompose) {
  VfreeOptions options;
  options.decompose = decompose;
  options.max_component = kMaxComponent;
  return options;
}

}  // namespace

int main() {
  DenseData dense = MakeDense(BenchConfig());
  std::cout << "dense workload: " << dense.dirty.num_rows() << " rows, "
            << dense.num_errors << " injected errors\n";

  // ---- The pipeline, reconstructed step by step, to look at the giant
  // component directly (the repair engines run the same stages).
  std::vector<Violation> violations =
      FindViolations(dense.dirty, dense.sigma);
  DomainStats stats(dense.dirty);
  ConflictHypergraph g =
      ConflictHypergraph::Build(dense.dirty, dense.sigma, violations);
  VertexCover cover = ApproximateVertexCover(
      g, CoverHeuristic::kGreedyDegree, &stats);
  std::vector<Cell> changing = cover.Cells(g);
  int64_t suspects = 0;
  std::vector<Component> components =
      DecomposeComponents(RepairContext::BuildFromScan(
          EncodedRelation(dense.dirty), dense.sigma, changing, &suspects));

  size_t largest = 0;
  int over_threshold = 0;
  for (size_t ci = 0; ci < components.size(); ++ci) {
    if (components[ci].cells.size() > components[largest].cells.size()) {
      largest = ci;
    }
    if (static_cast<int>(components[ci].cells.size()) > kMaxComponent) {
      ++over_threshold;
    }
  }
  const Component& giant = components[largest];
  std::cout << "components: " << components.size() << " total, "
            << over_threshold << " over " << kMaxComponent
            << " cells; largest has " << giant.cells.size() << " cells, "
            << giant.atoms.size() << " atoms\n";
  if (static_cast<int>(giant.cells.size()) <= kMaxComponent) {
    std::cerr << "FATAL: dense workload produced no giant component "
                 "(largest " << giant.cells.size() << " cells <= "
              << kMaxComponent << ")\n";
    return 1;
  }

  DecomposeOptions dopts;
  dopts.max_component = kMaxComponent;
  SplitPlan plan = SplitComponent(giant, dopts);
  std::cout << "largest component splits into " << plan.parts.size()
            << " parts (" << plan.boundary.size() << " boundary cells, "
            << plan.cross_atoms.size() << " cross atoms)\n";
  if (plan.parts.size() < 4) {
    std::cerr << "FATAL: expected the giant component to split into >= 4 "
                 "sub-components, got " << plan.parts.size() << "\n";
    return 1;
  }

  BenchJsonWriter json("BENCH_dense_errors.json");

  // ---- Deterministic counters, decompose on vs off. The decompose-on
  // snapshot backs the perf-regression CI gate
  // (bench/baselines/micro_dense_errors.json pins
  // solve.components_split != 0).
  RepairResult on_result;
  MetricsSnapshot on =
      WriteWorkMetrics("micro_dense_errors.metrics.json", [&] {
        on_result =
            VfreeRepair(dense.dirty, dense.sigma, DenseVfreeOptions(true));
        PublishRepairStats(on_result.stats);
      });

  RepairResult off_result;
  ThreadPool::SetNumThreads(1);
  MetricsRegistry::Global().ResetAll();
  off_result = VfreeRepair(dense.dirty, dense.sigma, DenseVfreeOptions(false));
  PublishRepairStats(off_result.stats);
  MetricsSnapshot off = MetricsRegistry::Global().SnapshotWork();

  auto counter = [](const MetricsSnapshot& snapshot, const char* name) {
    auto it = snapshot.find(name);
    return it == snapshot.end() ? int64_t{0} : it->second;
  };
  const int64_t on_evals = counter(on, "solve.csp_atom_evals");
  const int64_t off_evals = counter(off, "solve.csp_atom_evals");
  const int64_t on_oversized = counter(on, "solve.oversized_solver_cells");
  const int64_t off_oversized = counter(off, "solve.oversized_solver_cells");
  std::cout << "decompose on:  split=" << counter(on, "solve.components_split")
            << " stitch=" << counter(on, "solve.stitch_merges")
            << " giant_cells=" << counter(on, "solve.giant_component_cells")
            << " oversized_cells=" << on_oversized
            << " atom_evals=" << on_evals
            << " cost=" << on_result.stats.repair_cost << "\n";
  std::cout << "decompose off: oversized_cells=" << off_oversized
            << " atom_evals=" << off_evals
            << " cost=" << off_result.stats.repair_cost << "\n";
  json.RecordCounters(
      "dense_errors/decompose",
      {{"rows", dense.dirty.num_rows()},
       {"violations", static_cast<int64_t>(violations.size())},
       {"largest_component_cells", static_cast<int64_t>(giant.cells.size())},
       {"split_parts", static_cast<int64_t>(plan.parts.size())},
       {"components_split", counter(on, "solve.components_split")},
       {"stitch_merges", counter(on, "solve.stitch_merges")},
       {"giant_component_cells", counter(on, "solve.giant_component_cells")},
       {"oversized_cells_on", on_oversized},
       {"oversized_cells_off", off_oversized},
       {"atom_evals_on", on_evals},
       {"atom_evals_off", off_evals}});

  if (counter(on, "solve.components_split") < 1) {
    std::cerr << "FATAL: decompose-on repair split no component\n";
    return 1;
  }
  if (off_oversized == 0 || on_oversized >= off_oversized) {
    std::cerr << "FATAL: oversized solver cells did not drop ("
              << off_oversized << " -> " << on_oversized << ")\n";
    return 1;
  }
  if (on_evals * 4 > off_evals * 5) {  // exact-search upgrade stays bounded
    std::cerr << "FATAL: CSP atom evals regressed past 1.25x (" << off_evals
              << " -> " << on_evals << ")\n";
    return 1;
  }
  if (!Satisfies(on_result.repaired, dense.sigma)) {
    std::cerr << "FATAL: decomposed repair is not violation-free\n";
    return 1;
  }
  if (on_result.stats.repair_cost > off_result.stats.repair_cost) {
    std::cerr << "FATAL: decomposed repair cost "
              << on_result.stats.repair_cost
              << " exceeds the undecomposed cost "
              << off_result.stats.repair_cost << "\n";
    return 1;
  }
  if (MetricsOnly()) return 0;

  // ---- Wall clock of the monolithic and the decomposed solve.
  for (bool decompose : {false, true}) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      VfreeRepair(dense.dirty, dense.sigma, DenseVfreeOptions(decompose));
      double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best) best = ms;
    }
    const char* mode = decompose ? "decomposed" : "monolithic";
    std::cout << "dense_errors/" << mode << "  threads=1  ms=" << best << "\n";
    json.Record(std::string("dense_errors/") + mode, 1, best);
  }
  return 0;
}
