// perfbench — the repository benchmark. Runs one workload for one seed and
// prints its metrics; perfbench/README.md lists the workloads and metrics
// and why each was chosen, and perfbench/run.py builds and runs this
// program.
//
//   perfbench --workload hosp-repair|census-repair|hosp-serve --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, timed with no spans recorded and calibrated against
// the host's momentary speed (calibrate.h). With --trace 1 they
// are the per-layer ones, from a separate run at one thread that stages
// each operation through the library's public calls and records a span
// around every call (FILE receives the spans as Chrome trace-event JSON).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "dc/violation.h"
#include "eval/metrics.h"
#include "inputs.h"
#include "repair/cvtolerant.h"
#include "repair/streaming.h"
#include "serve/server.h"
#include "spans.h"
#include "staged.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace cvrepair;
using Clock = std::chrono::steady_clock;

// Threads of the multi-threaded settings: nproc of the host the benchmark
// was defined on.
constexpr int kThreads = 4;
// hosp-serve: 400 batches of 32 edits per session on 4 shards. Batches
// alternate between 4 engine threads and 1, so each setting gets 200
// latency samples per session and p95 has ten samples beyond it.
constexpr int kServeBatches = 400;
constexpr int kServeBatchSize = 32;
constexpr int kServeShards = 4;
// Batch workloads time their set-up (a parse) in bursts of kParsesPerBurst
// before every timed repair. Spreading the bursts over the whole run lets
// them see the same machine as the repairs do.
constexpr size_t kParsesPerBurst = 20;
// Untimed parses of the traced runs, for relation.load_s.
constexpr size_t kTracedParses = 5;
// Timed repairs per thread setting, even when --seconds runs out first.
constexpr size_t kMinRepairs = 3;

struct Workload {
  const char* name;
  const char* dataset;
  int size;
  bool serve;
};
constexpr Workload kWorkloads[] = {
    {"hosp-repair", "hosp", 60, false},
    {"census-repair", "census", 1000, false},
    {"hosp-serve", "hosp", 60, true},
};

struct MetricDef {
  const char* name;
  const char* unit;
};
// Must match BENCHMARK.json; run.py checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_t1_ms", "ms"},
    {"op_t4_ms", "ms"},
    {"peak_rss_mb", "MB"},
};
constexpr MetricDef kPerLayer[] = {
    {"relation.load_s", "s"},
    {"relation.encode_s", "s"},
    {"relation.copy_s", "s"},
    {"relation.copies", "count"},
    {"relation.stats_s", "s"},
    {"variation.generate_s", "s"},
    {"variation.variants", "count"},
    {"dc.index_s", "s"},
    {"dc.partition_builds", "count"},
    {"dc.partition_reuses", "count"},
    {"dc.memo_hits", "count"},
    {"dc.detect_s", "s"},
    {"dc.constraints", "count"},
    {"dc.violations", "count"},
    {"dc.truncated", "count"},
    {"dc.suspects_s", "s"},
    {"dc.suspect_lists", "count"},
    {"dc.code_evals", "count"},
    {"dc.delta_detect_s", "s"},
    {"dc.rows_rechecked", "count"},
    {"dc.writeback_s", "s"},
    {"graph.bounds_s", "s"},
    {"graph.cover_s", "s"},
    {"graph.builds", "count"},
    {"graph.edges", "count"},
    {"graph.cover_cells", "count"},
    {"solver.context_s", "s"},
    {"solver.decompose_s", "s"},
    {"solver.components", "count"},
    {"solver.solve_s", "s"},
    {"solver.solves", "count"},
    {"solver.atom_evals", "count"},
    {"solver.interval_narrowings", "count"},
    {"solver.fresh", "count"},
    {"solver.cache_s", "s"},
    {"solver.cache_hits", "count"},
    {"solver.cache_hit_ratio", "ratio"},
    {"repair.cost_s", "s"},
    {"repair.loop_s", "s"},
    {"repair.calls", "count"},
    {"repair.pruned", "count"},
    {"repair.aborted", "count"},
    {"repair.improving_ratio", "ratio"},
    {"serve.open_s", "s"},
    {"serve.open_repair_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.apply_s", "s"},
    {"serve.shard_overhead_s", "s"},
    {"serve.rejected", "count"},
    {"serve.rows_migrated", "count"},
    {"serve.shard_local_components", "count"},
    {"serve.cross_shard_components", "count"},
    {"util.parallel_loops", "count"},
    {"util.chunks_claimed", "count"},
    {"trace.wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace_overhead_frac", "ratio"},
};

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(2);
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest rank: the ceil(p/100 * n)-th smallest sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Operations attempted and failed, and the metrics to print.
class Report {
 public:
  /// Records one operation; `ok` is whether it passed every check.
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cout << "CHECK FAILED: " << what << "\n";
    }
  }
  void Set(const std::string& name, double value) { values_[name] = value; }
  int64_t failed() const { return failed_; }

  /// Prints `defs` as a table, then the result line.
  template <size_t N>
  void Print(const MetricDef (&defs)[N]) const {
    char line[160];
    for (const MetricDef& d : defs) {
      std::snprintf(line, sizeof(line), "  %-30s %16.6f %s", d.name,
                    Value(d.name), d.unit);
      std::cout << line << "\n";
    }
    std::snprintf(line, sizeof(line), "  %-30s %16.6f (%lld of %lld)",
                  "failed_frac",
                  static_cast<double>(failed_) /
                      static_cast<double>(std::max<int64_t>(1, attempted_)),
                  static_cast<long long>(failed_),
                  static_cast<long long>(attempted_));
    std::cout << line << "\n";
    std::cout << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted_
              << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (size_t i = 0; i < N; ++i) {
      std::snprintf(line, sizeof(line), "%.17g", Value(defs[i].name));
      std::cout << (i ? ", " : "") << "\"" << defs[i].name
                << "\": {\"value\": " << line << ", \"unit\": \""
                << defs[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  double Value(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() || !std::isfinite(it->second) ? 0.0
                                                             : it->second;
  }

  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, double> values_;
};

void PrintLine(const char* name, double value, const std::string& unit) {
  char line[160];
  std::snprintf(line, sizeof(line), "  %-30s %16.6f %s", name, value,
                unit.c_str());
  std::cout << line << "\n";
}

// Prints the median of `samples` times `scale`, with the sample count.
void PrintMedian(const char* name, const std::vector<double>& samples,
                 double scale, const std::string& unit,
                 const std::string& what) {
  PrintLine(name, Median(samples) * scale,
            unit + " median (" + std::to_string(samples.size()) + " " +
                what + ")");
}

// The calibration kernel's runs during one workload run, in order. The
// gated metrics are medians of calibrated times (calibrate.h): the shared
// host's speed drifts in phases of 10 to 30 s, by up to 1.8x over an hour,
// and the kernel drifts with it. A time measured after run k is calibrated
// by the geometric mean of runs k and k + 1, the two that bracket it.
class Calibration {
 public:
  /// Runs the kernel and returns the index of the run.
  size_t Run() {
    runs_.push_back(CalibrationSeconds());
    return runs_.size() - 1;
  }

  /// The kernel time around the times measured after run `k`.
  double Around(size_t k) const {
    return k + 1 < runs_.size() ? std::sqrt(runs_[k] * runs_[k + 1])
                                : runs_[k];
  }

  const std::vector<double>& runs() const { return runs_; }

 private:
  std::vector<double> runs_;
};

// Wall times of one kind of operation, each with the calibration run that
// preceded it.
struct Samples {
  std::vector<double> raw;
  std::vector<size_t> after_run;

  void Add(double seconds, size_t calibration_run) {
    raw.push_back(seconds);
    after_run.push_back(calibration_run);
  }

  double CalibratedMedian(const Calibration& calibration) const {
    std::vector<double> calibrated;
    for (size_t i = 0; i < raw.size(); ++i) {
      calibrated.push_back(
          Calibrated(raw[i], calibration.Around(after_run[i])));
    }
    return Median(std::move(calibrated));
  }
};

ParsedInput ParseOrDie(const GeneratedInput& input) {
  ParsedInput parsed;
  std::string error;
  if (!Parse(input, &parsed, &error)) Die(error);
  return parsed;
}

// Parses the input kParsesPerBurst times into `parsed` and adds each parse
// time to `samples`, as measured after `calibration_run`.
void TimeSetup(const GeneratedInput& input, ParsedInput* parsed,
               size_t calibration_run, Samples* samples) {
  for (size_t i = 0; i < kParsesPerBurst; ++i) {
    const Clock::time_point t = Clock::now();
    ParsedInput p = ParseOrDie(input);
    samples->Add(SecondsSince(t), calibration_run);
    *parsed = std::move(p);
  }
  if (!RoundTrips(input, *parsed)) {
    Die("the parsed input differs from the generated instance");
  }
}

bool SameCells(const Relation& a, const Relation& b, bool compare_fresh_ids) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes()) {
    return false;
  }
  for (int r = 0; r < a.num_rows(); ++r) {
    for (AttrId t = 0; t < a.num_attributes(); ++t) {
      const Value& x = a.Get(r, t);
      const Value& y = b.Get(r, t);
      if (!compare_fresh_ids && x.is_fresh() && y.is_fresh()) continue;
      if (!(x == y)) return false;
    }
  }
  return true;
}

bool SameRepair(const RepairResult& a, const RepairResult& b) {
  return a.satisfied_constraints == b.satisfied_constraints &&
         a.stats.repair_cost == b.stats.repair_cost &&
         SameCells(a.repaired, b.repaired, /*compare_fresh_ids=*/true);
}

bool ViolationFree(const RepairResult& r) {
  return Satisfies(r.repaired, r.satisfied_constraints);
}

// The CLI's repair settings (θ = 1, λ = -0.5, update strategy) plus the
// generator's predicate space, as `--generate` passes it.
CVTolerantOptions RepairOptions(const GeneratedInput& input, int threads) {
  CVTolerantOptions options;
  options.variants.space = input.space;
  options.threads = threads;
  return options;
}

RepairResult TimedRepair(const ParsedInput& parsed,
                         const GeneratedInput& input, int threads,
                         double* seconds) {
  ThreadPool::SetNumThreads(threads);
  const Clock::time_point t = Clock::now();
  RepairResult r =
      CVTolerantRepair(parsed.data, parsed.sigma, RepairOptions(input, threads));
  *seconds = SecondsSince(t);
  return r;
}

ServeOptions ServeSettings(const GeneratedInput& input, int threads) {
  ServeOptions options;
  options.session.repair = RepairOptions(input, threads);
  options.session.num_shards = kServeShards;
  return options;
}

void PrintRepairFacts(const RepairResult& r) {
  std::cout << "  repair: " << r.stats.initial_violations
            << " violations of sigma, " << r.stats.variants_enumerated
            << " variants, " << r.stats.datarepair_calls
            << " DataRepair calls, " << r.stats.cache_hits
            << " cache hits, cost " << r.stats.repair_cost << "\n";
}

// --- end-to-end runs (no spans) --------------------------------------------

void RunRepairWorkload(const Workload& w, uint64_t seed, double seconds,
                       Report* report) {
  const GeneratedInput input = Generate(w.dataset, w.size, seed);
  ParsedInput parsed;
  Calibration calibration;
  Samples setup;
  TimeSetup(input, &parsed, calibration.Run(), &setup);
  // Untimed warm-up at 4 threads: starts the pool's threads and lets the
  // allocator grow. Every timed repair must reproduce it cell for cell.
  double unused = 0.0;
  const RepairResult reference = TimedRepair(parsed, input, kThreads, &unused);
  const double f1 =
      CellAccuracy(input.clean, parsed.data, reference.repaired).f_measure;
  report->Op(ViolationFree(reference), "warm-up repair violates its variant");
  PrintRepairFacts(reference);

  Samples t1, t4;
  const Clock::time_point start = Clock::now();
  for (int i = 0; SecondsSince(start) < seconds ||
                  t1.raw.size() < kMinRepairs || t4.raw.size() < kMinRepairs;
       ++i) {
    const int threads = i % 2 == 0 ? 1 : kThreads;
    const size_t c = calibration.Run();
    TimeSetup(input, &parsed, c, &setup);
    double s = 0.0;
    const RepairResult r = TimedRepair(parsed, input, threads, &s);
    (threads == 1 ? t1 : t4).Add(s, c);
    const bool ok =
        ViolationFree(r) && SameRepair(r, reference) &&
        CellAccuracy(input.clean, parsed.data, r.repaired).f_measure == f1;
    report->Op(ok, "repair " + std::to_string(i) + " at " +
                       std::to_string(threads) +
                       " threads: not violation-free or differs");
  }
  calibration.Run();  // closes the last repair's bracket
  PrintMedian("repair_t1_s", t1.raw, 1.0, "s", "repairs");
  PrintMedian("repair_t4_s", t4.raw, 1.0, "s", "repairs");
  PrintMedian("parse_s", setup.raw, 1.0, "s", "parses");
  PrintMedian("calibration_s", calibration.runs(), 1.0, "s", "kernel runs");
  PrintLine("repair_f1", f1, "");
  report->Set("setup_s", setup.CalibratedMedian(calibration));
  report->Set("op_t1_ms", t1.CalibratedMedian(calibration) * 1e3);
  report->Set("op_t4_ms", t4.CalibratedMedian(calibration) * 1e3);
  report->Set("peak_rss_mb", PeakRssMb());
}

void RunServeWorkload(const Workload& w, uint64_t seed, double seconds,
                      Report* report) {
  const GeneratedInput input = Generate(w.dataset, w.size, seed);
  // Engine threads 0 = follow the pool budget, which is set per batch.
  const ServeOptions options = ServeSettings(input, 0);
  Calibration calibration;
  Samples setup, lat1, lat4;
  int64_t edits4 = 0;
  std::optional<Relation> first_final;
  const Clock::time_point start = Clock::now();
  for (int session_no = 0; session_no == 0 || SecondsSince(start) < seconds;
       ++session_no) {
    ThreadPool::SetNumThreads(kThreads);
    const size_t open_run = calibration.Run();
    Clock::time_point t = Clock::now();
    ParsedInput parsed = ParseOrDie(input);
    const double parse_s = SecondsSince(t);
    if (session_no == 0 && !RoundTrips(input, parsed)) {
      Die("the parsed input differs from the generated instance");
    }
    const ReplayWorkload replay = MakeReplayWorkload(
        parsed.data, kServeBatches, kServeBatchSize, ReplaySeed(seed));
    RepairServer server(options);
    t = Clock::now();
    ServeSession* session = server.Open("bench", replay.base, parsed.sigma);
    setup.Add(parse_s + SecondsSince(t), open_run);
    if (session == nullptr) Die("cannot open the serve session");
    const ShardedSession& engine = session->repair();
    report->Op(Satisfies(engine.current(), engine.variant()),
               "session open left violations");

    const size_t replay_run = calibration.Run();
    for (size_t b = 0; b < replay.batches.size(); ++b) {
      const int threads = b % 2 == 0 ? kThreads : 1;
      ThreadPool::SetNumThreads(threads);
      std::vector<RowEdit> batch = replay.batches[b];
      const int64_t edits = static_cast<int64_t>(batch.size());
      t = Clock::now();
      const bool admitted = session->Submit(std::move(batch)).admitted;
      if (admitted) session->Pump();
      const double s = SecondsSince(t);
      if (admitted) {
        (threads == 1 ? lat1 : lat4).Add(s, replay_run);
        if (threads == kThreads) edits4 += edits;
      }
      report->Op(admitted && Satisfies(engine.current(), engine.variant()),
                 "batch " + std::to_string(b) +
                     " was not admitted or left violations");
    }
    std::optional<Relation> final_instance = server.Close("bench");
    report->Op(final_instance.has_value() &&
                   (!first_final ||
                    SameCells(*final_instance, *first_final, true)),
               "sessions of one seed ended in different instances");
    if (!first_final) first_final = std::move(final_instance);
  }
  calibration.Run();  // closes the last replay's bracket
  double busy4 = 0.0;
  for (double s : lat4.raw) busy4 += s;
  PrintMedian("batch_p50_ms", lat4.raw, 1e3, "ms", "batches, 4 threads");
  PrintLine("batch_p95_ms", Percentile(lat4.raw, 95.0) * 1e3,
            "ms 95th percentile (" + std::to_string(lat4.raw.size()) +
                " batches, 4 threads)");
  PrintMedian("batch_p50_t1_ms", lat1.raw, 1e3, "ms", "batches, 1 thread");
  PrintLine("edits_per_s", busy4 > 0 ? static_cast<double>(edits4) / busy4 : 0,
            "1/s (4 threads)");
  PrintMedian("open_s", setup.raw, 1.0, "s", "sessions");
  PrintMedian("calibration_s", calibration.runs(), 1.0, "s", "kernel runs");
  report->Set("setup_s", setup.CalibratedMedian(calibration));
  report->Set("op_t1_ms", lat1.CalibratedMedian(calibration) * 1e3);
  report->Set("op_t4_ms", lat4.CalibratedMedian(calibration) * 1e3);
  report->Set("peak_rss_mb", PeakRssMb());
}

// --- traced runs (one thread, staged, spans) ---------------------------------

// One measured group of operations (ops first..last of the recorder) and
// its wall time, taken with the checks left out.
struct Group {
  int64_t first_op = 0;
  int64_t last_op = 0;
  double wall_s = 0.0;
};

std::string MetricOfSpan(const std::string& span) {
  // The staged loops' own code: union assembly, bound bookkeeping,
  // solution replay.
  if (span == "repair" || span == "repair.call" || span == "replica.batch") {
    return "repair.loop_s";
  }
  return span + "_s";
}

// Turns the recorded spans into per-layer self times. Each metric is the
// median over the groups of the group's total; relation.load_s is the
// median parse. Also prints the self-time profile per span and thread.
void SummariseSpans(const SpanRecorder& rec, const std::vector<Group>& groups,
                    Report* report) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  int64_t max_op = 0;
  for (const Group& g : groups) max_op = std::max(max_op, g.last_op);
  std::vector<int> group_of(static_cast<size_t>(max_op) + 1, -1);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int64_t op = groups[g].first_op; op <= groups[g].last_op; ++op) {
      group_of[static_cast<size_t>(op)] = static_cast<int>(g);
    }
  }
  std::vector<std::map<std::string, double>> totals(groups.size());
  std::vector<double> loads;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double s = static_cast<double>(self[i]) / 1e9;
    if (name == "relation.load") {
      loads.push_back(s);
      continue;
    }
    const int64_t op = spans[i].op;
    if (op < 0 || op > max_op || group_of[static_cast<size_t>(op)] < 0) {
      continue;
    }
    totals[static_cast<size_t>(group_of[static_cast<size_t>(op)])]
          [MetricOfSpan(name)] += s;
  }
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> walls, unattributed;
  for (size_t g = 0; g < groups.size(); ++g) {
    double attributed = 0.0;
    for (const auto& [metric, s] : totals[g]) {
      samples[metric].push_back(s);
      attributed += s;
    }
    walls.push_back(groups[g].wall_s);
    unattributed.push_back(groups[g].wall_s - attributed);
  }
  for (const auto& [metric, values] : samples) {
    report->Set(metric, Median(values));
  }
  report->Set("relation.load_s", Median(loads));
  report->Set("trace.wall_s", Median(walls));
  report->Set("trace.unattributed_s", Median(unattributed));

  std::cout << "  self time per span and thread, all groups ("
            << groups.size() << "):\n";
  for (const auto& [key, ns] : SelfTimeByNameAndThread(spans)) {
    char line[160];
    std::snprintf(line, sizeof(line), "    %-24s thread %d %12.6f s",
                  key.first.c_str(), key.second,
                  static_cast<double>(ns) / 1e9);
    std::cout << line << "\n";
  }
}

// Work counts of the first group (they repeat exactly in every group).
void SetCounts(const Counts& counts, Report* report) {
  for (const auto& [name, value] : counts) report->Set(name, value);
  auto get = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  const double lookups = get("solver.cache_lookups");
  const double calls = get("repair.calls");
  report->Set("solver.cache_hit_ratio",
              lookups > 0 ? get("solver.cache_hits") / lookups : 0.0);
  report->Set("repair.improving_ratio",
              calls > 0 ? get("repair.improving") / calls : 0.0);
}

ParsedInput TracedParse(const GeneratedInput& input, SpanRecorder* rec) {
  ParsedInput parsed;
  for (size_t i = 0; i < kTracedParses; ++i) {
    rec->BeginOp();
    ParsedInput p;
    {
      ScopedSpan span(rec, "relation.load");
      p = ParseOrDie(input);
    }
    parsed = std::move(p);
  }
  if (!RoundTrips(input, parsed)) {
    Die("the parsed input differs from the generated instance");
  }
  return parsed;
}

std::string StagedMismatch(const StagedResult& s, const RepairResult& r) {
  if (s.variant != r.satisfied_constraints) return "variant";
  if (s.cost != r.stats.repair_cost) return "cost";
  if (!SameCells(s.repaired, r.repaired, true)) return "repaired cells";
  if (s.variants != r.stats.variants_enumerated) return "variants";
  if (s.calls != r.stats.datarepair_calls) return "DataRepair calls";
  if (s.pruned != r.stats.variants_pruned_bounds) return "pruned";
  if (s.initial_violations != r.stats.initial_violations) return "violations";
  return "";
}

int64_t PoolCounter(const MetricsSnapshot& snapshot, const char* name) {
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

void RunRepairTraced(const Workload& w, uint64_t seed, double seconds,
                     SpanRecorder* rec, Report* report) {
  const GeneratedInput input = Generate(w.dataset, w.size, seed);
  const ParsedInput parsed = TracedParse(input, rec);
  const CVTolerantOptions options = RepairOptions(input, 1);
  double unused = 0.0;
  TimedRepair(parsed, input, 1, &unused);  // warm-up, as in the timed run

  std::optional<RepairResult> reference;
  std::vector<double> untraced;
  std::vector<Group> groups;
  Counts counts;
  const Clock::time_point start = Clock::now();
  while (groups.empty() || SecondsSince(start) < seconds) {
    double s = 0.0;
    RepairResult r = TimedRepair(parsed, input, 1, &s);
    untraced.push_back(s);
    report->Op(ViolationFree(r) && (!reference || SameRepair(r, *reference)),
               "untraced repair is not violation-free or differs");
    if (!reference) {
      reference = std::move(r);
      PrintRepairFacts(*reference);
    }

    Group g;
    g.first_op = g.last_op = rec->BeginOp();
    Counts c;
    const Clock::time_point t = Clock::now();
    const StagedResult staged =
        StagedCVTolerantRepair(parsed.data, parsed.sigma, options, rec, &c);
    g.wall_s = SecondsSince(t);
    const std::string mismatch = StagedMismatch(staged, *reference);
    report->Op(mismatch.empty(),
               "staged pipeline differs from CVTolerantRepair: " + mismatch);
    if (groups.empty()) counts = c;
    groups.push_back(g);
  }

  // Pool work of one 4-thread repair.
  const MetricsSnapshot before = MetricsRegistry::Global().SnapshotAll();
  const RepairResult r4 = TimedRepair(parsed, input, kThreads, &unused);
  const MetricsSnapshot pool =
      MetricsDiff(MetricsRegistry::Global().SnapshotAll(), before);
  report->Op(SameRepair(r4, *reference),
             "4-thread repair differs from the 1-thread one");
  counts["util.parallel_loops"] =
      static_cast<double>(PoolCounter(pool, "pool.parallel_loops"));
  counts["util.chunks_claimed"] =
      static_cast<double>(PoolCounter(pool, "pool.chunks_claimed"));

  SetCounts(counts, report);
  SummariseSpans(*rec, groups, report);
  std::vector<double> traced;
  for (const Group& g : groups) traced.push_back(g.wall_s);
  const double base = Median(untraced);
  report->Set("trace_overhead_frac", (Median(traced) - base) / base);
}

void RunServeTraced(const Workload& w, uint64_t seed, double seconds,
                    SpanRecorder* rec, Report* report) {
  const GeneratedInput input = Generate(w.dataset, w.size, seed);
  const ParsedInput parsed = TracedParse(input, rec);
  const CVTolerantOptions repair_options = RepairOptions(input, 1);
  const ServeOptions options = ServeSettings(input, 1);
  ThreadPool::SetNumThreads(1);
  const ReplayWorkload replay = MakeReplayWorkload(
      parsed.data, kServeBatches, kServeBatchSize, ReplaySeed(seed));

  std::vector<double> untraced, traced, overhead;
  std::vector<Group> groups;
  Counts counts;
  std::optional<Relation> reference;
  const Clock::time_point start = Clock::now();
  while (groups.empty() || SecondsSince(start) < seconds) {
    // The same session and replay without spans, for trace_overhead_frac.
    {
      RepairServer server(options);
      ServeSession* session = server.Open("bench", replay.base, parsed.sigma);
      if (session == nullptr) Die("cannot open the serve session");
      double replay_s = 0.0;
      for (const std::vector<RowEdit>& edits : replay.batches) {
        std::vector<RowEdit> batch = edits;
        const Clock::time_point t = Clock::now();
        const bool admitted = session->Submit(std::move(batch)).admitted;
        if (admitted) session->Pump();
        replay_s += SecondsSince(t);
        report->Op(admitted, "batch was not admitted");
      }
      untraced.push_back(replay_s);
      std::optional<Relation> final_instance = server.Close("bench");
      report->Op(final_instance.has_value() &&
                     (!reference || SameCells(*final_instance, *reference,
                                              true)),
                 "sessions of one seed ended in different instances");
      if (!reference) reference = std::move(final_instance);
    }

    Group g;
    Counts c;
    g.first_op = rec->BeginOp();
    Clock::time_point t = Clock::now();
    RepairResult base_repair;
    {
      ScopedSpan span(rec, "serve.open_repair");
      base_repair =
          CVTolerantRepair(replay.base, parsed.sigma, repair_options);
    }
    RepairServer server(options);
    ServeSession* session = nullptr;
    {
      ScopedSpan span(rec, "serve.open");
      session = server.Open("bench", replay.base, parsed.sigma);
    }
    if (session == nullptr) Die("cannot open the serve session");
    const ShardedSession& engine = session->repair();
    ReplicaSession replica(engine.current(), engine.variant(), repair_options,
                           rec);
    g.wall_s += SecondsSince(t);
    report->Op(SameCells(base_repair.repaired, engine.current(), true) &&
                   base_repair.satisfied_constraints == engine.variant(),
               "the session's initial repair differs from CVTolerantRepair");

    double served_s = 0.0, apply_s = 0.0, replica_s = 0.0;
    for (const std::vector<RowEdit>& edits : replay.batches) {
      g.last_op = rec->BeginOp();
      std::vector<RowEdit> batch = edits;
      t = Clock::now();
      bool admitted = false;
      {
        ScopedSpan span(rec, "serve.submit");
        admitted = session->Submit(std::move(batch)).admitted;
      }
      const Clock::time_point applied = Clock::now();
      if (admitted) {
        ScopedSpan span(rec, "serve.apply");
        session->Pump();
      }
      apply_s += SecondsSince(applied);
      served_s += SecondsSince(t);
      const Clock::time_point r = Clock::now();
      replica.ApplyBatch(edits, rec, &c);
      replica_s += SecondsSince(r);
      g.wall_s += SecondsSince(t);
      report->Op(admitted && Satisfies(engine.current(), engine.variant()),
                 "batch was not admitted or left violations");
    }
    const ServeTotals& totals = engine.totals();
    c["serve.rows_migrated"] = static_cast<double>(totals.rows_migrated);
    c["serve.shard_local_components"] =
        static_cast<double>(totals.shard_local_components);
    c["serve.cross_shard_components"] =
        static_cast<double>(totals.cross_shard_components);
    c["serve.rejected"] = static_cast<double>(session->rejected());
    std::optional<Relation> final_instance = server.Close("bench");
    report->Op(final_instance.has_value() &&
                   SameCells(*final_instance, replica.current(), false),
               "served instance differs from the unsharded replica");
    traced.push_back(served_s);
    overhead.push_back(apply_s - replica_s);
    if (groups.empty()) counts = c;
    groups.push_back(g);
  }
  SetCounts(counts, report);
  SummariseSpans(*rec, groups, report);
  report->Set("serve.shard_overhead_s", Median(overhead));
  const double base = Median(untraced);
  report->Set("trace_overhead_frac", (Median(traced) - base) / base);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-out FILE]");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Die("unknown workload '" + args.workload + "'");

  std::cout << "perfbench " << workload->name << " seed " << args.seed
            << ", " << args.seconds << " s, trace " << args.trace << "\n"
            << "  host: nproc " << std::thread::hardware_concurrency()
            << ", " << PERFBENCH_COMPILER << ", " << PERFBENCH_BUILD_TYPE
            << "\n";
  Report report;
  if (args.trace) {
    const std::string summarizer = CheckSelfTimeSummarizer();
    report.Op(summarizer.empty(), summarizer);
    SpanRecorder rec;
    if (workload->serve) {
      RunServeTraced(*workload, args.seed, args.seconds, &rec, &report);
    } else {
      RunRepairTraced(*workload, args.seed, args.seconds, &rec, &report);
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << rec.ToChromeJson();
      if (!out) Die("cannot write " + args.trace_out);
    }
    report.Print(kPerLayer);
  } else {
    if (workload->serve) {
      RunServeWorkload(*workload, args.seed, args.seconds, &report);
    } else {
      RunRepairWorkload(*workload, args.seed, args.seconds, &report);
    }
    report.Print(kEndToEnd);
  }
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
