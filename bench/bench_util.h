#ifndef CVREPAIR_BENCH_BENCH_UTIL_H_
#define CVREPAIR_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates the series of one figure of the paper's evaluation and
// prints them as an aligned table (same x-axis, one row per point).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/census.h"
#include "data/gps.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "repair/cvtolerant.h"
#include "repair/greedy.h"
#include "repair/holistic.h"
#include "repair/relative.h"
#include "repair/unified.h"
#include "repair/vfree.h"
#include "repair/vrepair.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace cvrepair {
namespace bench {

/// Wall-clock stopwatch for the serial-vs-parallel timing sections.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable timing records, one JSON object per line:
///   {"bench": "...", "threads": N, "ms": M}
/// Opened in append mode so every bench binary can contribute to the same
/// BENCH_parallel.json (delete the file first for a fresh run).
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(const std::string& path)
      : out_(path, std::ios::app) {}

  void Record(const std::string& bench, int threads, double ms) {
    out_ << "{\"bench\": \"" << bench << "\", \"threads\": " << threads
         << ", \"ms\": " << ms << "}\n";
    out_.flush();
  }

  /// Work-counter record: one JSON object with arbitrary integer fields,
  /// for benches whose claim is about operation counts rather than time.
  void RecordCounters(
      const std::string& bench,
      const std::vector<std::pair<std::string, int64_t>>& fields) {
    out_ << "{\"bench\": \"" << bench << "\"";
    for (const auto& [key, value] : fields) {
      out_ << ", \"" << key << "\": " << value;
    }
    out_ << "}\n";
    out_.flush();
  }

 private:
  std::ofstream out_;
};

/// Times `fn(threads)` at each thread budget (best of `repeats` runs to
/// damp scheduler noise), prints the point, and appends it to `json`.
inline void TimeAcrossThreads(const std::string& bench,
                              const std::vector<int>& thread_counts,
                              BenchJsonWriter* json,
                              const std::function<void(int)>& fn,
                              int repeats = 3) {
  for (int threads : thread_counts) {
    ThreadPool::SetNumThreads(threads);
    double best_ms = 0.0;
    for (int r = 0; r < repeats; ++r) {
      WallTimer timer;
      fn(threads);
      double ms = timer.ElapsedMs();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    std::cout << bench << "  threads=" << threads << "  ms=" << best_ms
              << "\n";
    if (json) json->Record(bench, threads, best_ms);
  }
  ThreadPool::SetNumThreads(1);
}

/// Per-batch latency sample with nearest-rank percentile reads — shared by
/// the serve load generator (tools/cvrepair_cli --serve-bench) and
/// bench/micro_serve, which report p50/p99 batch latency and sustained
/// edits/sec from the same recorded timings.
class LatencyHistogram {
 public:
  void Record(double seconds) { samples_.push_back(seconds); }
  void RecordAll(const std::vector<double>& seconds) {
    samples_.insert(samples_.end(), seconds.begin(), seconds.end());
  }

  size_t count() const { return samples_.size(); }

  double TotalSeconds() const {
    double total = 0.0;
    for (double s : samples_) total += s;
    return total;
  }

  /// Nearest-rank percentile over the recorded samples: the
  /// ceil(p/100 * n)-th smallest (p in (0, 100]); 0 when empty. With 100
  /// samples, Percentile(50) is the 50th smallest and Percentile(99) the
  /// 99th — the fixed-sample unit test pins exactly this.
  double Percentile(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted(samples_);
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank < 1) rank = 1;
    if (rank > sorted.size()) rank = sorted.size();
    return sorted[rank - 1];
  }

  double p50() const { return Percentile(50.0); }
  double p99() const { return Percentile(99.0); }

 private:
  std::vector<double> samples_;
};

/// True when CVREPAIR_METRICS_ONLY asks a bench binary to emit only its
/// deterministic metrics section. The perf-regression CI job sets it so
/// the wall-clock parts (meaningless on shared runners) are skipped.
inline bool MetricsOnly() {
  const char* v = std::getenv("CVREPAIR_METRICS_ONLY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Deterministic work-counter section backing the perf-regression CI gate:
/// resets the registry, runs `workload` serially, and writes the kWork
/// snapshot to `path`. tools/check_metrics.py compares the file against
/// the checked-in bench/baselines/ copy. Returns the snapshot so benches
/// can assert on individual counters.
inline MetricsSnapshot WriteWorkMetrics(const std::string& path,
                                        const std::function<void()>& workload) {
  int saved_threads = ThreadPool::num_threads();
  ThreadPool::SetNumThreads(1);
  MetricsRegistry::Global().ResetAll();
  workload();
  MetricsSnapshot snapshot = MetricsRegistry::Global().SnapshotWork();
  ThreadPool::SetNumThreads(saved_threads);
  if (!WriteMetricsJsonFile(path, snapshot)) {
    std::cerr << "FATAL: cannot write metrics file " << path << "\n";
    std::exit(1);
  }
  std::cout << "metrics: " << path << " (" << snapshot.size()
            << " counters)\n";
  return snapshot;
}

/// Everything a figure series needs about one algorithm run.
struct RunResult {
  AccuracyResult accuracy;
  double mnad = 0.0;
  double relative_accuracy = 0.0;
  RepairStats stats;
};

inline RunResult Evaluate(const Relation& clean, const Relation& dirty,
                          const RepairResult& r,
                          const std::vector<AttrId>& numeric_attrs = {}) {
  RunResult out;
  out.accuracy = CellAccuracy(clean, dirty, r.repaired);
  if (!numeric_attrs.empty()) {
    out.mnad = Mnad(clean, r.repaired, numeric_attrs);
    out.relative_accuracy =
        RelativeAccuracy(clean, dirty, r.repaired, numeric_attrs);
  }
  out.stats = r.stats;
  return out;
}

/// Standard CVtolerant options for a HOSP workload.
inline CVTolerantOptions HospCvOptions(const HospData& hosp, double theta) {
  CVTolerantOptions options;
  options.variants.theta = theta;
  options.variants.space = hosp.space;
  return options;
}

/// Standard noisy-HOSP construction.
inline NoisyData MakeDirtyHosp(const HospData& hosp, double error_rate,
                               int errors_per_tuple = 1, uint64_t seed = 42) {
  NoiseConfig noise;
  noise.error_rate = error_rate;
  noise.target_attrs = hosp.noise_attrs;
  noise.errors_per_tuple = errors_per_tuple;
  noise.seed = seed;
  return InjectNoise(hosp.clean, noise);
}

inline NoisyData MakeDirtyCensus(const CensusData& census, double error_rate,
                                 uint64_t seed = 42) {
  NoiseConfig noise;
  noise.error_rate = error_rate;
  noise.target_attrs = census.noise_attrs;
  noise.seed = seed;
  return InjectNoise(census.clean, noise);
}

/// Attribute exclusions granted to the FD baselines on HOSP: only the
/// per-row numeric measure values. The published Unified/Relative models
/// have no data-driven meaningful-predicate test, so key-like categorical
/// extensions (e.g. MeasureCode) remain available to them and their DL/τ
/// objectives often prefer those vacuous refinements — the behaviour
/// behind their mediocre accuracy in the paper's Figures 9-11.
inline std::vector<AttrId> HospBaselineExclusions() {
  return {HospAttrs::kSample, HospAttrs::kScore};
}

/// One constraint class of Table 2 (Appendix B, Theorem 7) with the size,
/// count and seed of its random instances.
struct Table2Class {
  const char* name;
  ConstraintSet sigma;
  int rows;
  int trials;
  uint64_t seed;
};

/// Table 2's four classes over Table2Instance's schema (A, B, X, Y).
inline std::vector<Table2Class> Table2Classes() {
  return {
      // Linear DC (single tuple): not(t0.X > 4).
      {"linear DC (ell=1)",
       {DenialConstraint(
           {Predicate::WithConstant(0, 2, Op::kGt, Value::Int(4))},
           "linear")},
       8, 40, 11},
      // Constant CFD-style: not(t0.A = 'a0' & t0.X > 3).
      {"constant CFD (ell=1)",
       {DenialConstraint(
           {Predicate::WithConstant(0, 0, Op::kEq, Value::String("a0")),
            Predicate::WithConstant(0, 2, Op::kGt, Value::Int(3))},
           "constant_cfd")},
       8, 40, 23},
      // FD: A -> B (binary DC).
      {"FD / binary DC (ell=2)",
       {DenialConstraint::FromFd({0}, 1, "fd")},
       5, 40, 37},
      // Order DC: not(X> & Y<).
      {"order DC (ell=2)",
       {DenialConstraint({Predicate::TwoCell(0, 2, Op::kGt, 1, 2),
                          Predicate::TwoCell(0, 3, Op::kLt, 1, 3)},
                         "order")},
       5, 30, 41},
  };
}

/// A random Table 2 instance: two 3-valued strings A, B and two integers
/// X, Y in [0, 6].
inline Relation Table2Instance(std::mt19937_64* rng, int rows) {
  Schema schema;
  schema.AddAttribute("A", AttrType::kString);
  schema.AddAttribute("B", AttrType::kString);
  schema.AddAttribute("X", AttrType::kInt);
  schema.AddAttribute("Y", AttrType::kInt);
  Relation rel(schema);
  std::uniform_int_distribution<int> cat(0, 2);
  std::uniform_int_distribution<int> num(0, 6);
  for (int i = 0; i < rows; ++i) {
    rel.AddRow({Value::String("a" + std::to_string(cat(*rng))),
                Value::String("b" + std::to_string(cat(*rng))),
                Value::Int(num(*rng)), Value::Int(num(*rng))});
  }
  return rel;
}

}  // namespace bench
}  // namespace cvrepair

#endif  // CVREPAIR_BENCH_BENCH_UTIL_H_
