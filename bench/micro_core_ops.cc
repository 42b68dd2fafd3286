// Microbenchmarks (google-benchmark) for the core operations: violation
// detection, vertex-cover heuristics (the cover ablation of DESIGN.md),
// variant enumeration, suspect detection, and component solving.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "data/census.h"
#include "dc/incremental.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "graph/bounds.h"
#include "relation/encoded.h"
#include "solver/components.h"
#include "solver/csp_solver.h"
#include "solver/repair_context.h"
#include "variation/variant_generator.h"

namespace cvrepair {
namespace {

struct HospEnv {
  HospData hosp;
  NoisyData noisy;
  HospEnv() {
    HospConfig config;
    config.num_hospitals = 40;
    hosp = MakeHosp(config);
    NoiseConfig noise;
    noise.error_rate = 0.05;
    noise.target_attrs = hosp.noise_attrs;
    noisy = InjectNoise(hosp.clean, noise);
  }
};

HospEnv& Env() {
  static HospEnv* env = new HospEnv();
  return *env;
}

void BM_FindViolationsFd(benchmark::State& state) {
  HospEnv& env = Env();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FindViolations(env.noisy.dirty, env.hosp.given_oversimplified));
  }
}
BENCHMARK(BM_FindViolationsFd);

void BM_FindViolationsOrderDc(benchmark::State& state) {
  CensusConfig config;
  config.num_rows = static_cast<int>(state.range(0));
  CensusData census = MakeCensus(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindViolations(census.clean, census.given));
  }
}
BENCHMARK(BM_FindViolationsOrderDc)->Arg(100)->Arg(200)->Arg(400);

void BM_VertexCover(benchmark::State& state) {
  HospEnv& env = Env();
  std::vector<Violation> violations =
      FindViolations(env.noisy.dirty, env.hosp.given_oversimplified);
  ConflictHypergraph g = ConflictHypergraph::Build(
      env.noisy.dirty, env.hosp.given_oversimplified, violations);
  CoverHeuristic heuristic = state.range(0) == 0
                                 ? CoverHeuristic::kLocalRatio
                                 : CoverHeuristic::kGreedyDegree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproximateVertexCover(g, heuristic));
  }
}
BENCHMARK(BM_VertexCover)->Arg(0)->Arg(1);  // 0 = local ratio, 1 = greedy

void BM_SuspectsAndContext(benchmark::State& state) {
  HospEnv& env = Env();
  RepairCostBounds bounds =
      ComputeBounds(env.noisy.dirty, env.hosp.given_oversimplified);
  EncodedRelation encoded(env.noisy.dirty);
  for (auto _ : state) {
    int64_t suspects = 0;
    benchmark::DoNotOptimize(RepairContext::BuildFromScan(
        encoded, env.hosp.given_oversimplified, bounds.cover_cells,
        &suspects));
  }
}
BENCHMARK(BM_SuspectsAndContext);

void BM_ComponentSolve(benchmark::State& state) {
  HospEnv& env = Env();
  RepairCostBounds bounds =
      ComputeBounds(env.noisy.dirty, env.hosp.given_oversimplified);
  int64_t suspects = 0;
  std::vector<Component> components =
      DecomposeComponents(RepairContext::BuildFromScan(
          EncodedRelation(env.noisy.dirty), env.hosp.given_oversimplified,
          bounds.cover_cells, &suspects));
  DomainStats stats(env.noisy.dirty);
  for (auto _ : state) {
    int64_t fresh = 1;
    CspSolver solver(env.noisy.dirty, stats, CostModel{}, &fresh);
    double total = 0;
    for (const Component& comp : components) total += solver.Solve(comp).cost;
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ComponentSolve);

void BM_IncrementalVsFullDetection(benchmark::State& state) {
  // One repair-round's worth of cell changes, violations refreshed either
  // incrementally or from scratch.
  HospEnv& env = Env();
  const ConstraintSet& sigma = env.hosp.given_oversimplified;
  bool incremental = state.range(0) == 1;
  for (auto _ : state) {
    if (incremental) {
      ViolationIndex index(env.noisy.dirty, sigma);
      state.PauseTiming();  // exclude the initial build
      state.ResumeTiming();
      for (int i = 0; i < 20; ++i) {
        index.ApplyChange({i * 7 % env.noisy.dirty.num_rows(),
                           HospAttrs::kPhone},
                          Value::String("p" + std::to_string(i)));
      }
      benchmark::DoNotOptimize(index.CurrentViolations());
    } else {
      Relation current = env.noisy.dirty;
      for (int i = 0; i < 20; ++i) {
        current.SetValue(i * 7 % current.num_rows(), HospAttrs::kPhone,
                         Value::String("p" + std::to_string(i)));
        benchmark::DoNotOptimize(FindViolations(current, sigma));
      }
    }
  }
}
BENCHMARK(BM_IncrementalVsFullDetection)->Arg(0)->Arg(1);

void BM_VariantEnumeration(benchmark::State& state) {
  HospEnv& env = Env();
  VariantGenOptions options;
  options.theta = static_cast<double>(state.range(0));
  options.space = env.hosp.space;
  options.data = &env.noisy.dirty;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateSigmaVariants(
        env.hosp.given_oversimplified, env.noisy.dirty.schema(), options));
  }
}
BENCHMARK(BM_VariantEnumeration)->Arg(1)->Arg(2);

// Deterministic work-counter section for the perf-regression CI gate:
// one serial violation scan per detector family plus a full Vfree repair,
// snapshotted into micro_core_ops.metrics.json (compared against
// bench/baselines/micro_core_ops.json by tools/check_metrics.py).
void WriteCoreOpsMetrics() {
  bench::WriteWorkMetrics("micro_core_ops.metrics.json", [] {
    HospEnv& env = Env();
    FindViolations(env.noisy.dirty, env.hosp.given_oversimplified);
    CensusConfig config;
    config.num_rows = 200;
    CensusData census = MakeCensus(config);
    FindViolations(census.clean, census.given);
    RepairResult repair =
        VfreeRepair(env.noisy.dirty, env.hosp.given_oversimplified);
    PublishRepairStats(repair.stats);
  });
}

}  // namespace
}  // namespace cvrepair

int main(int argc, char** argv) {
  cvrepair::WriteCoreOpsMetrics();
  if (cvrepair::bench::MetricsOnly()) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
