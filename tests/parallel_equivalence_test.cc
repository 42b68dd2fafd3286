// Determinism contract of the parallel execution layer: for every dataset
// generator, the serial path (--threads 1) and the parallel path
// (--threads 4) must produce bit-identical violation sets, repairs, and
// Θ costs, and the violation sets must be viol(I, Σ) as the naive
// reference (reference_scan.h) computes it. Run under ThreadSanitizer by
// tools/run_tsan.sh.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include <limits>

#include "data/census.h"
#include "data/gps.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/eval_index.h"
#include "dc/violation.h"
#include "reference_scan.h"
#include "relation/encoded.h"
#include "repair/cvtolerant.h"
#include "repair/holistic.h"
#include "repair/streaming.h"
#include "repair/vfree.h"
#include "solver/materialized_cache.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace {

struct Workload {
  std::string name;
  Relation dirty;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

NoisyData Corrupt(const Relation& clean, const std::vector<AttrId>& attrs) {
  NoiseConfig noise;
  noise.error_rate = 0.05;
  noise.target_attrs = attrs;
  noise.seed = 7;
  return InjectNoise(clean, noise);
}

// One small instance of every generator in src/data/, each with its
// evaluation ("given") constraint set.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;

  HospConfig hosp_config;
  hosp_config.num_hospitals = 12;
  HospData hosp = MakeHosp(hosp_config);
  workloads.push_back({"hosp", Corrupt(hosp.clean, hosp.noise_attrs).dirty,
                       hosp.given_oversimplified, hosp.space});

  CensusConfig census_config;
  census_config.num_rows = 120;
  CensusData census = MakeCensus(census_config);
  workloads.push_back({"census", Corrupt(census.clean, census.noise_attrs).dirty,
                       census.given, census.space});

  GpsConfig gps_config;
  gps_config.num_points = 150;
  GpsData gps = MakeGps(gps_config);
  workloads.push_back({"gps", gps.dirty, gps.given, {}});

  TaxConfig tax_config;
  tax_config.num_rows = 100;
  TaxData tax = MakeTax(tax_config);
  workloads.push_back({"tax", Corrupt(tax.clean, tax.noise_attrs).dirty,
                       tax.given, tax.space});

  return workloads;
}

void ExpectSameRelation(const Relation& a, const Relation& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_attributes(), b.num_attributes()) << context;
  for (int i = 0; i < a.num_rows(); ++i) {
    for (AttrId attr = 0; attr < a.num_attributes(); ++attr) {
      ASSERT_EQ(a.Get(i, attr), b.Get(i, attr))
          << context << ": cell t" << i << "." << attr << " differs: "
          << a.Get(i, attr).ToString() << " vs " << b.Get(i, attr).ToString();
    }
  }
}

// Restores the global pool budget even when an assertion bails out.
class PoolGuard {
 public:
  ~PoolGuard() { ThreadPool::SetNumThreads(1); }
};

TEST(ParallelEquivalence, ViolationDetectionIdentical) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    ThreadPool::SetNumThreads(1);
    std::vector<Violation> serial = FindViolations(w.dirty, w.sigma);
    ThreadPool::SetNumThreads(4);
    std::vector<Violation> parallel = FindViolations(w.dirty, w.sigma);
    EXPECT_EQ(serial, parallel) << w.name;
    EXPECT_EQ(reference::Sorted(serial),
              reference::ReferenceViolations(w.dirty, w.sigma))
        << w.name;
  }
}

TEST(ParallelEquivalence, CappedViolationDetectionIdentical) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    EncodedRelation E(w.dirty);
    for (size_t k = 0; k < w.sigma.size(); ++k) {
      for (int64_t cap : {int64_t{1}, int64_t{5}, int64_t{1000}}) {
        ThreadPool::SetNumThreads(1);
        bool serial_truncated = false;
        std::vector<Violation> serial = FindViolationsOfCapped(
            E, w.sigma[k], static_cast<int>(k), cap, &serial_truncated);
        ThreadPool::SetNumThreads(4);
        bool parallel_truncated = false;
        std::vector<Violation> parallel =
            FindViolationsOfCapped(E, w.sigma[k], static_cast<int>(k), cap,
                                   &parallel_truncated);
        EXPECT_EQ(serial, parallel) << w.name << " #" << k << " cap " << cap;
        EXPECT_EQ(serial_truncated, parallel_truncated)
            << w.name << " #" << k << " cap " << cap;
      }
    }
  }
}

TEST(ParallelEquivalence, VfreeRepairIdentical) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    ThreadPool::SetNumThreads(1);
    RepairResult serial = VfreeRepair(w.dirty, w.sigma);

    ThreadPool::SetNumThreads(4);
    RepairResult parallel = VfreeRepair(w.dirty, w.sigma);

    ExpectSameRelation(serial.repaired, parallel.repaired, w.name + "/vfree");
    EXPECT_EQ(serial.stats.repair_cost, parallel.stats.repair_cost) << w.name;
    EXPECT_EQ(serial.stats.changed_cells, parallel.stats.changed_cells)
        << w.name;
    EXPECT_EQ(serial.stats.fresh_assignments, parallel.stats.fresh_assignments)
        << w.name;
    EXPECT_EQ(serial.stats.solver_calls, parallel.stats.solver_calls)
        << w.name;
    EXPECT_EQ(serial.stats.initial_violations,
              parallel.stats.initial_violations)
        << w.name;
  }
}

// Every arm of the candidate search — serial, and the speculative window at
// 2, 3 and 4 threads — under the update and hybrid strategies, with and
// without component decomposition (a low threshold, so components do split).
TEST(ParallelEquivalence, CVTolerantRepairIdentical) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    for (RepairStrategy strategy :
         {RepairStrategy::kUpdate, RepairStrategy::kHybrid}) {
      for (bool decompose : {false, true}) {
        const std::string arm = w.name + "/" +
                                RepairStrategyToString(strategy) +
                                (decompose ? "/decompose" : "");
        auto run = [&](int threads) {
          ThreadPool::SetNumThreads(threads);
          CVTolerantOptions options;
          options.variants.theta = 1.0;
          options.variants.space = w.space;
          options.max_datarepair_calls = 8;
          options.threads = threads;
          options.vfree.strategy = strategy;
          options.vfree.decompose = decompose;
          options.vfree.max_component = 6;
          return CVTolerantRepair(w.dirty, w.sigma, options);
        };
        RepairResult serial = run(1);
        for (int threads : {2, 3, 4}) {
          RepairResult parallel = run(threads);
          const std::string context =
              arm + "@" + std::to_string(threads) + " threads";
          ExpectSameRelation(serial.repaired, parallel.repaired, context);
          // Θ is folded into the chosen variant: the satisfied constraint
          // sets must match exactly, as must the repair cost.
          ASSERT_EQ(serial.satisfied_constraints.size(),
                    parallel.satisfied_constraints.size())
              << context;
          for (size_t i = 0; i < serial.satisfied_constraints.size(); ++i) {
            EXPECT_EQ(
                serial.satisfied_constraints[i].ToString(w.dirty.schema()),
                parallel.satisfied_constraints[i].ToString(w.dirty.schema()))
                << context;
          }
          const RepairStats& s = serial.stats;
          const RepairStats& p = parallel.stats;
          EXPECT_EQ(s.repair_cost, p.repair_cost) << context;
          EXPECT_EQ(s.changed_cells, p.changed_cells) << context;
          EXPECT_EQ(s.fresh_assignments, p.fresh_assignments) << context;
          EXPECT_EQ(s.rows_deleted, p.rows_deleted) << context;
          EXPECT_EQ(s.cache_hits, p.cache_hits) << context;
          EXPECT_EQ(s.solver_calls, p.solver_calls) << context;
          EXPECT_EQ(s.suspects, p.suspects) << context;
          EXPECT_EQ(s.components_split, p.components_split) << context;
          EXPECT_EQ(s.stitch_merges, p.stitch_merges) << context;
          EXPECT_EQ(s.giant_component_cells, p.giant_component_cells)
              << context;
          EXPECT_EQ(s.datarepair_calls, p.datarepair_calls) << context;
          EXPECT_EQ(s.variants_pruned_bounds, p.variants_pruned_bounds)
              << context;
          EXPECT_EQ(s.variants_hopeless, p.variants_hopeless) << context;
          EXPECT_EQ(s.bound_memo_hits, p.bound_memo_hits) << context;
          EXPECT_EQ(s.index_blocks_scanned, p.index_blocks_scanned)
              << context;
          EXPECT_EQ(s.index_blocks_skipped, p.index_blocks_skipped)
              << context;
        }
      }
    }
  }
}

// Scans large enough to be worth splitting (1-tuple DCs over ~9000 rows,
// FD-style DCs with ~10800 in-block pairs, caps that stop a scan midway):
// the pool budget must not change a scan's output or its truncation
// verdict.
TEST(ParallelEquivalence, ShardedScanPathsIdentical) {
  PoolGuard guard;

  // 1-tuple DCs over ~9000 rows.
  CensusConfig census_config;
  census_config.num_rows = 9000;
  CensusData census = MakeCensus(census_config);
  NoiseConfig noise;
  noise.error_rate = 0.2;
  noise.target_attrs = {CensusAttrs::kTax};
  noise.seed = 11;
  Relation dirty = InjectNoise(census.clean, noise).dirty;
  EncodedRelation E(dirty);
  bool found_unary = false;
  for (size_t k = 0; k < census.given.size(); ++k) {
    if (census.given[k].NumTupleVars() != 1) continue;
    found_unary = true;
    for (int64_t cap : {int64_t{3}, int64_t{1000000}}) {
      ThreadPool::SetNumThreads(1);
      bool serial_truncated = false;
      std::vector<Violation> serial = FindViolationsOfCapped(
          E, census.given[k], static_cast<int>(k), cap, &serial_truncated);
      ThreadPool::SetNumThreads(4);
      bool parallel_truncated = false;
      std::vector<Violation> parallel = FindViolationsOfCapped(
          E, census.given[k], static_cast<int>(k), cap, &parallel_truncated);
      EXPECT_EQ(serial, parallel) << "census unary #" << k << " cap " << cap;
      EXPECT_EQ(serial_truncated, parallel_truncated)
          << "census unary #" << k << " cap " << cap;
    }
  }
  EXPECT_TRUE(found_unary);

  // FD-style 2-tuple DCs with large hash-partition blocks (12 names ×
  // 30 measures: ~10800 in-block pairs).
  HospConfig hosp_config;
  hosp_config.num_hospitals = 12;
  hosp_config.measures_per_hospital = 30;
  HospData hosp = MakeHosp(hosp_config);
  NoiseConfig hosp_noise;
  hosp_noise.error_rate = 0.1;
  hosp_noise.target_attrs = hosp.noise_attrs;
  hosp_noise.seed = 13;
  Relation hosp_dirty = InjectNoise(hosp.clean, hosp_noise).dirty;
  EncodedRelation hosp_encoded(hosp_dirty);
  for (size_t k = 0; k < hosp.given_oversimplified.size(); ++k) {
    const DenialConstraint& c = hosp.given_oversimplified[k];
    if (c.NumTupleVars() != 2) continue;
    for (int64_t cap : {int64_t{5}, int64_t{1000000}}) {
      ThreadPool::SetNumThreads(1);
      bool serial_truncated = false;
      std::vector<Violation> serial = FindViolationsOfCapped(
          hosp_encoded, c, static_cast<int>(k), cap, &serial_truncated);
      ThreadPool::SetNumThreads(4);
      bool parallel_truncated = false;
      std::vector<Violation> parallel = FindViolationsOfCapped(
          hosp_encoded, c, static_cast<int>(k), cap, &parallel_truncated);
      EXPECT_EQ(serial, parallel) << "hosp fd #" << k << " cap " << cap;
      EXPECT_EQ(serial_truncated, parallel_truncated)
          << "hosp fd #" << k << " cap " << cap;
    }
  }
}

// One EvalIndex per base constraint, prepared serially and then scanned
// through concurrently: the scans must be bit-identical to the plain
// detector at every thread count (and race-free under TSan — the index is
// read-only after Prepare, and the eval counters are relaxed atomics).
TEST(ParallelEquivalence, SharedIndexScansIdenticalAcrossThreads) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    EncodedRelation E(w.dirty);
    for (size_t k = 0; k < w.sigma.size(); ++k) {
      EvalIndex index(w.dirty, w.sigma[k], EvalIndex::kDefaultMemoBudget, &E);
      index.Prepare(w.sigma[k]);
      for (int64_t cap :
           {int64_t{1}, int64_t{5}, std::numeric_limits<int64_t>::max()}) {
        ThreadPool::SetNumThreads(1);
        bool plain_truncated = false;
        std::vector<Violation> plain = FindViolationsOfCapped(
            E, w.sigma[k], static_cast<int>(k), cap, &plain_truncated);
        for (int threads : {1, 4}) {
          ThreadPool::SetNumThreads(threads);
          // Concurrent scans of one shared index: every pool worker reads
          // the same partitions and memo.
          std::vector<std::vector<Violation>> results(4);
          std::vector<char> truncated(4, 0);
          ThreadPool::ParallelFor(4, [&](int64_t i) {
            bool t = false;
            results[static_cast<size_t>(i)] = index.FindViolationsCapped(
                w.sigma[k], static_cast<int>(k), cap, &t);
            truncated[static_cast<size_t>(i)] = t ? 1 : 0;
          });
          for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(plain, results[static_cast<size_t>(i)])
                << w.name << " #" << k << " cap " << cap << " threads "
                << threads;
            EXPECT_EQ(plain_truncated, truncated[static_cast<size_t>(i)] != 0)
                << w.name << " #" << k << " cap " << cap << " threads "
                << threads;
          }
        }
      }
    }
  }
}

// The metrics.json determinism contract (DESIGN.md §8): the registry's
// work-counter snapshot after a repair must be identical at any thread
// count. A truncated scan publishes eval.truncated_scans alone, never the
// work it spent before the cap (eval_counters::AddScan).
TEST(ParallelEquivalence, WorkMetricsIdenticalAcrossThreads) {
  PoolGuard guard;
  for (const Workload& w : MakeWorkloads()) {
    auto run = [&](int threads) {
      ThreadPool::SetNumThreads(threads);
      MetricsRegistry::Global().ResetAll();
      CVTolerantOptions options;
      options.variants.theta = 1.0;
      options.variants.space = w.space;
      options.max_datarepair_calls = 8;
      options.threads = threads;
      RepairResult result = CVTolerantRepair(w.dirty, w.sigma, options);
      PublishRepairStats(result.stats);
      return MetricsRegistry::Global().SnapshotWork();
    };
    MetricsSnapshot serial = run(1);
    MetricsSnapshot parallel = run(4);
    ASSERT_EQ(serial.size(), parallel.size()) << w.name;
    for (const auto& [name, value] : serial) {
      ASSERT_TRUE(parallel.count(name)) << w.name << ": " << name;
      EXPECT_EQ(value, parallel.at(name)) << w.name << ": " << name;
    }
    // The rendered file (what CI diffs) must therefore match bytewise.
    EXPECT_EQ(MetricsToJson(serial), MetricsToJson(parallel)) << w.name;
  }
}

// Same contract on the raw capped scans: the eval counters of a capped
// scan, truncated or not, are the same at every pool budget.
TEST(ParallelEquivalence, CappedScanCountersIdenticalAcrossThreads) {
  PoolGuard guard;
  HospConfig config;
  config.num_hospitals = 12;
  config.measures_per_hospital = 30;
  HospData hosp = MakeHosp(config);
  NoiseConfig noise;
  noise.error_rate = 0.1;
  noise.target_attrs = hosp.noise_attrs;
  noise.seed = 13;
  Relation dirty = InjectNoise(hosp.clean, noise).dirty;
  EncodedRelation E(dirty);

  for (size_t k = 0; k < hosp.given_oversimplified.size(); ++k) {
    for (int64_t cap : {int64_t{5}, int64_t{1000000}}) {
      auto scan = [&](int threads) {
        ThreadPool::SetNumThreads(threads);
        eval_counters::Reset();
        bool truncated = false;
        FindViolationsOfCapped(E, hosp.given_oversimplified[k],
                               static_cast<int>(k), cap, &truncated);
        return eval_counters::Snapshot();
      };
      EvalCounters serial = scan(1);
      EvalCounters parallel = scan(4);
      EXPECT_EQ(serial.predicate_evals, parallel.predicate_evals)
          << "#" << k << " cap " << cap;
      EXPECT_EQ(serial.code_predicate_evals, parallel.code_predicate_evals)
          << "#" << k << " cap " << cap;
      EXPECT_EQ(serial.truncated_scans, parallel.truncated_scans)
          << "#" << k << " cap " << cap;
      EXPECT_EQ(serial.partition_builds, parallel.partition_builds)
          << "#" << k << " cap " << cap;
    }
  }
}

// Algorithm 1's two outer loops — ScanVariantFacts over the distinct
// constraints and the candidate search's planning window — are the only
// parallel loops on the repair path; every loop inside them is serial. So
// at a pool budget of 4 detection, the single-round and multi-round
// repairs, a frozen stream's batches and a θ-tolerant repair whose own
// budget is one thread start no parallel loop at all.
TEST(ParallelEquivalence, InnerLoopsRunSerially) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);
  MetricCounter* loops = MetricsRegistry::Global().GetCounter(
      "pool.parallel_loops", MetricKind::kRuntime);
  auto loops_in = [&](const std::function<void()>& fn) {
    const int64_t before = loops->value();
    fn();
    return loops->value() - before;
  };

  NoiseConfig noise;
  CensusConfig census_config;
  census_config.num_rows = 1000;
  CensusData census = MakeCensus(census_config);
  noise.target_attrs = census.noise_attrs;
  const Relation census_dirty = InjectNoise(census.clean, noise).dirty;
  HospConfig hosp_config;
  hosp_config.num_hospitals = 24;
  HospData hosp = MakeHosp(hosp_config);
  noise.target_attrs = hosp.noise_attrs;
  const Relation hosp_dirty = InjectNoise(hosp.clean, noise).dirty;

  EXPECT_EQ(loops_in([&] { FindViolations(census_dirty, census.given); }), 0);
  struct Instance {
    std::string name;
    const Relation* dirty;
    const ConstraintSet* sigma;
  };
  for (const Instance& in :
       {Instance{"census", &census_dirty, &census.given},
        Instance{"hosp", &hosp_dirty, &hosp.given_oversimplified}}) {
    EXPECT_EQ(loops_in([&] { VfreeRepair(*in.dirty, *in.sigma); }), 0)
        << in.name;
    EXPECT_EQ(loops_in([&] { HolisticRepair(*in.dirty, *in.sigma); }), 0)
        << in.name;
  }

  StreamingOptions stream_options;
  stream_options.repair.variants.space = hosp.space;
  const ReplayWorkload replay = MakeReplayWorkload(
      hosp_dirty, /*num_batches=*/4, /*batch_size=*/16);
  StreamingRepairer streamer(replay.base, hosp.given_oversimplified,
                             stream_options);
  int components = 0;
  EXPECT_EQ(loops_in([&] {
              for (const std::vector<RowEdit>& batch : replay.batches) {
                components += streamer.ApplyBatch(batch).components;
              }
            }),
            0);
  EXPECT_GT(components, 1) << "no batch re-solved several components";

  CVTolerantOptions serial;
  serial.threads = 1;
  EXPECT_EQ(loops_in([&] {
              CVTolerantRepair(census_dirty, census.given, serial);
            }),
            0);
}

// Regression for the MaterializedCache statistics race: Lookup is const
// but bumps the hit/miss counters, so concurrent lookups from pool workers
// must not race (they were plain mutable int64_t once; TSan flagged the
// increments). Exercised with both hits and misses in flight.
TEST(ParallelEquivalence, MaterializedCacheConcurrentLookups) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);

  MaterializedCache cache;
  Component stored;
  stored.cells = {{0, 0}, {1, 0}};
  RcAtom atom;
  atom.lhs_var = 0;
  atom.op = Op::kEq;
  atom.rhs_is_var = true;
  atom.rhs_var = 1;
  stored.atoms = {atom};
  ComponentSolution solution;
  solution.values = {Value::Int(1), Value::Int(1)};
  solution.cost = 1.0;
  cache.Store(stored, solution);

  Component missing;
  missing.cells = {{2, 0}, {3, 0}};
  missing.atoms = {atom};

  constexpr int kLookups = 4096;
  std::vector<char> hit(kLookups, 0);
  ThreadPool::ParallelFor(kLookups, [&](int64_t i) {
    const Component& c = (i % 2 == 0) ? stored : missing;
    hit[static_cast<size_t>(i)] = cache.Lookup(c).has_value() ? 1 : 0;
  });

  for (int i = 0; i < kLookups; ++i) {
    EXPECT_EQ(hit[static_cast<size_t>(i)] != 0, i % 2 == 0) << i;
  }
  EXPECT_EQ(cache.hits(), kLookups / 2);
  EXPECT_EQ(cache.misses(), kLookups / 2);
}

// The pool itself: full coverage of the ParallelFor contract (order-free
// slot writes, nesting, exceptions, the per-call budget).
TEST(ThreadPoolTest, SlotWritesMatchSerial) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);
  std::vector<int64_t> squares(1000, -1);
  ThreadPool::ParallelFor(1000, [&](int64_t i) {
    squares[static_cast<size_t>(i)] = i * i;
  });
  for (int64_t i = 0; i < 1000; ++i) ASSERT_EQ(squares[i], i * i);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);
  std::vector<int> outer(64, 0);
  ThreadPool::ParallelFor(64, [&](int64_t i) {
    int inner_sum = 0;
    ThreadPool::ParallelFor(10, [&](int64_t j) {
      inner_sum += static_cast<int>(j);  // safe: nested call is serial
    });
    outer[i] = inner_sum;
  });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(outer[i], 45);
}

TEST(ThreadPoolTest, ExceptionPropagates) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);
  EXPECT_THROW(ThreadPool::ParallelFor(
                   100,
                   [](int64_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PerCallOverrideForcesSerial) {
  PoolGuard guard;
  ThreadPool::SetNumThreads(4);
  EXPECT_EQ(ThreadPool::EffectiveThreads(1), 1);
  EXPECT_GE(ThreadPool::EffectiveThreads(0), 1);
  EXPECT_EQ(ThreadPool::EffectiveThreads(3), 3);
  bool ran = false;
  ThreadPool::ParallelFor(
      5, [&](int64_t) { ran = true; }, /*max_threads=*/1);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace cvrepair
