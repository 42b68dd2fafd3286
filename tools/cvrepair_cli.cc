// cvrepair — command-line data repairing.
//
// Repairs a CSV file against a set of denial constraints / FDs, optionally
// tolerating constraint variance (the θ-tolerant model), and writes the
// repaired CSV plus a human-readable report.
//
//   cvrepair_cli --schema s.txt --data d.csv --constraints c.txt
//                [--algorithm cvtolerant] [--theta 1.0] [--lambda -0.5]
//                [--output repaired.csv] [--show-constraints]
//   cvrepair_cli --schema s.txt --data d.csv --discover [--confidence 0.95]
//
// Schema file:      one "<Name>:<type>[:key]" per line (see
//                   relation/schema_parser.h).
// Constraint file:  one constraint per line — "not(...)" DCs or FD sugar
//                   "A,B -> C" (see dc/parser.h). '#' comments allowed.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "data/census.h"
#include "data/dense.h"
#include "data/hosp.h"
#include "data/noise.h"
#include "data/tax.h"
#include "dc/parser.h"
#include "eval/explanation.h"
#include "eval/json_report.h"
#include "discovery/dc_discovery.h"
#include "discovery/fd_discovery.h"
#include "relation/csv.h"
#include "relation/schema_parser.h"
#include "bench/bench_util.h"
#include "repair/cvtolerant.h"
#include "repair/greedy.h"
#include "repair/streaming.h"
#include "serve/server.h"
#include "repair/holistic.h"
#include "repair/relative.h"
#include "repair/unified.h"
#include "repair/vfree.h"
#include "repair/vrepair.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using namespace cvrepair;

struct CliOptions {
  std::string schema_path;
  std::string data_path;
  std::string constraints_path;
  std::string output_path;
  std::string metrics_out;
  std::string trace_out;
  bool profile = false;  ///< print the per-span self-time table
  std::string generate;  ///< hosp | census | tax | dense: built-in workload
  std::string algorithm = "cvtolerant";
  RepairStrategy strategy = RepairStrategy::kUpdate;
  std::string repr_attr;  ///< grouping attribute for deletion weights
  double theta = 1.0;
  double lambda = -0.5;
  double confidence = 1.0;
  double error_rate = 0.05;
  int size = 0;  ///< generator scale knob; 0 = the generator's default
  int stream_batches = 0;  ///< >0 = streaming replay mode
  int batch_size = 32;
  bool serve_bench = false;  ///< closed-loop load generator mode
  int clients = 4;           ///< simulated closed-loop clients
  int queue_watermark = 8;   ///< admission-control queue bound
  bool reopen_variants = false;
  bool drift = false;  ///< drifting replay (sliding value-source window)
  int threads = 1;
  bool decompose = false;
  int max_component = 24;
  bool discover = false;
  bool show_constraints = false;
  bool explain = false;
  bool json = false;
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " --schema FILE --data FILE (--constraints FILE | --discover)\n"
      << "  --algorithm NAME   cvtolerant | vfree | holistic | greedy |\n"
      << "                     vrepair | unified | relative  (default: "
         "cvtolerant)\n"
      << "  --strategy NAME    how violations are resolved:\n"
         "                     update = cell updates (the paper's model,\n"
         "                     default); delete = subset repair, tombstone\n"
         "                     whole tuples via a weighted vertex cover of\n"
         "                     the conflict hypergraph's tuple projection;\n"
         "                     hybrid = update first, then delete any tuple\n"
         "                     whose summed update cost exceeds its\n"
         "                     deletion weight\n"
      << "  --repr-attr NAME   group tuples by this attribute for the\n"
         "                     representation-cost deletion weights: rows\n"
         "                     of rare groups cost more to delete (needs\n"
         "                     --strategy delete|hybrid)\n"
      << "  --theta X          constraint-variance tolerance (default 1.0;\n"
      << "                     negative values force predicate deletion)\n"
      << "  --lambda X         deletion weight in [-1, 0] (default -0.5)\n"
      << "  --threads N        thread budget for the repair engine\n"
      << "                     (0 = all hardware threads, 1 = serial;\n"
      << "                     default 1 — results are identical either "
         "way)\n"
      << "  --decompose 0|1    split conflict components larger than\n"
         "                     --max-component cells at low-density\n"
         "                     articulation vertices, solve the parts\n"
         "                     independently, and re-verify the boundary\n"
         "                     with a stitching pass (default 0; the\n"
         "                     repair stays violation-free either way)\n"
      << "  --max-component N  decomposition size threshold in cells\n"
         "                     (default 24; needs --decompose 1)\n"
      << "  --output FILE      write the repaired CSV here\n"
      << "  --metrics-out FILE write the run's deterministic work counters\n"
         "                     as flat JSON (byte-identical across runs and\n"
         "                     thread counts for the same workload)\n"
      << "  --trace-out FILE   write a Chrome trace-event timeline of the\n"
         "                     repair phases (chrome://tracing / Perfetto)\n"
      << "  --profile          trace the run and print each span's calls,\n"
         "                     total and self time (its time minus that of\n"
         "                     its child spans), largest self time first\n"
      << "  --generate NAME    repair a built-in synthetic workload instead\n"
         "                     of --schema/--data/--constraints:\n"
         "                     hosp | census | tax | dense (adversarial\n"
         "                     high-error ramps whose conflicts form giant\n"
         "                     banded components; pair with --error-rate\n"
         "                     0.3+ and --decompose 1)\n"
      << "  --size N           generator scale (hosp: hospitals; census/\n"
         "                     tax: rows; dense: rows per track; 0 =\n"
         "                     generator default)\n"
      << "  --stream-batches N streaming replay: repair a prefix of the\n"
         "                     instance, then stream the held-out rows and\n"
         "                     synthetic edits back in as N batches, re-\n"
         "                     solving only the dirty components per batch\n"
         "                     (cvtolerant only)\n"
      << "  --batch-size K     edits per streamed batch (default 32)\n"
      << "  --serve-bench      closed-loop load generator against a\n"
         "                     server-hosted session: the replay batches\n"
         "                     are dealt round-robin to --clients\n"
         "                     closed-loop clients, each retrying rejected\n"
         "                     submissions after a drain; reports p50/p99\n"
         "                     batch latency and edits/sec, appending them\n"
         "                     to BENCH_serve.json\n"
         "                     (cvtolerant only; uses --stream-batches and\n"
         "                     --batch-size for the stream shape)\n"
      << "  --clients N        simulated closed-loop clients (default 4)\n"
      << "  --queue-watermark N\n"
         "                     admission control rejects submissions while\n"
         "                     this many batches are pending (default 8)\n"
      << "  --reopen-variants 0|1\n"
         "                     unfreeze the streamed or served variant:\n"
         "                     track per-variant cost bounds across\n"
         "                     batches and re-open the Σ' search when a\n"
         "                     rival's bound reaches the incumbent's\n"
         "                     realized cost\n"
         "                     (default 0: frozen incumbent)\n"
      << "  --drift            make the streamed update edits draw values\n"
         "                     from a window sliding over the instance, so\n"
         "                     attribute frequencies skew over the stream\n"
      << "  --error-rate X     generator noise rate (default 0.05)\n"
      << "  --show-constraints print the constraint set the repair "
         "satisfies\n"
      << "  --explain          print per-cell repair provenance\n"
      << "  --json             emit the run report as JSON\n"
      << "  --discover         discover FDs/order-DCs instead of repairing\n"
      << "  --confidence X     discovery confidence threshold (default 1.0)\n";
  return 2;
}

/// --profile: the run's spans summed per name (Tracer::SelfTimes), largest
/// self time first, then the summed durations of the top-level spans,
/// which the self times add up to.
void PrintProfile(std::ostream& os) {
  double top_level_us = 0.0;
  for (const Tracer::Event& e : Tracer::CollectEvents()) {
    if (e.depth == 0) top_level_us += e.dur_us;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%-36s %8s %14s %14s\n", "profile (ms)",
                "calls", "total", "self");
  os << line;
  for (const Tracer::SpanTotals& t : Tracer::SelfTimes()) {
    std::snprintf(line, sizeof(line), "  %-34s %8lld %14.4f %14.4f\n",
                  t.name.c_str(), static_cast<long long>(t.calls),
                  t.total_us / 1e3, t.self_us / 1e3);
    os << line;
  }
  std::snprintf(line, sizeof(line), "  %-34s %8s %14s %14.4f\n",
                "top-level spans", "", "", top_level_us / 1e3);
  os << line;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream f(path);
  if (!f) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  *out = buf.str();
  return true;
}

/// Parses a whole flag value into a T within [lo, hi] with
/// std::from_chars. A non-number, trailing garbage, a value that overflows
/// T, NaN, or a value outside the range is rejected with a message saying
/// why ("FLAG must be RULE" for the range) instead of being coerced.
template <typename T>
bool ParseNumber(const std::string& flag, const std::string& text, T lo, T hi,
                 const char* rule, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    std::cerr << flag << ": " << text << " is out of range\n";
    return false;
  }
  if (ec != std::errc() || ptr != end) {
    std::cerr << flag << ": expected "
              << (std::is_integral_v<T> ? "an integer" : "a number")
              << ", got \"" << text << "\"\n";
    return false;
  }
  if (!(value >= lo && value <= hi)) {  // NaN fails both comparisons
    std::cerr << flag << " must be " << rule << "\n";
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  constexpr int kMaxInt = std::numeric_limits<int>::max();
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--schema" && next(&value)) {
      options->schema_path = value;
    } else if (arg == "--data" && next(&value)) {
      options->data_path = value;
    } else if (arg == "--constraints" && next(&value)) {
      options->constraints_path = value;
    } else if (arg == "--output" && next(&value)) {
      options->output_path = value;
    } else if (arg == "--metrics-out" && next(&value)) {
      options->metrics_out = value;
    } else if (arg == "--trace-out" && next(&value)) {
      options->trace_out = value;
    } else if (arg == "--profile") {
      options->profile = true;
    } else if (arg == "--generate" && next(&value)) {
      if (value != "hosp" && value != "census" && value != "tax" &&
          value != "dense") {
        std::cerr << "--generate must be hosp, census, tax, or dense\n";
        return false;
      }
      options->generate = value;
    } else if (arg == "--size" && next(&value)) {
      if (!ParseNumber(arg, value, 0, kMaxInt, ">= 0", &options->size)) {
        return false;
      }
    } else if (arg == "--stream-batches" && next(&value)) {
      if (!ParseNumber(arg, value, 0, kMaxInt, ">= 0",
                       &options->stream_batches)) {
        return false;
      }
    } else if (arg == "--batch-size" && next(&value)) {
      if (!ParseNumber(arg, value, 1, kMaxInt, "> 0", &options->batch_size)) {
        return false;
      }
    } else if (arg == "--serve-bench") {
      options->serve_bench = true;
    } else if (arg == "--clients" && next(&value)) {
      if (!ParseNumber(arg, value, 1, kMaxInt, "> 0", &options->clients)) {
        return false;
      }
    } else if (arg == "--queue-watermark" && next(&value)) {
      if (!ParseNumber(arg, value, 1, kMaxInt, "> 0",
                       &options->queue_watermark)) {
        return false;
      }
    } else if (arg == "--error-rate" && next(&value)) {
      if (!ParseNumber(arg, value, 0.0, 1.0, "in [0, 1]",
                       &options->error_rate)) {
        return false;
      }
    } else if (arg == "--algorithm" && next(&value)) {
      options->algorithm = value;
    } else if (arg == "--strategy" && next(&value)) {
      if (!ParseRepairStrategy(value, &options->strategy)) {
        std::cerr << "--strategy must be update, delete, or hybrid\n";
        return false;
      }
    } else if (arg == "--repr-attr" && next(&value)) {
      options->repr_attr = value;
    } else if (arg == "--theta" && next(&value)) {
      if (!ParseNumber(arg, value, -kMaxDouble, kMaxDouble, "finite",
                       &options->theta)) {
        return false;
      }
    } else if (arg == "--lambda" && next(&value)) {
      if (!ParseNumber(arg, value, -1.0, 0.0, "in [-1, 0]",
                       &options->lambda)) {
        return false;
      }
    } else if (arg == "--confidence" && next(&value)) {
      if (!ParseNumber(arg, value, 0.0, 1.0, "in [0, 1]",
                       &options->confidence)) {
        return false;
      }
    } else if (arg == "--threads" && next(&value)) {
      if (!ParseNumber(arg, value, 0, kMaxInt, ">= 0", &options->threads)) {
        return false;
      }
    } else if (arg == "--decompose" && next(&value)) {
      if (value != "0" && value != "1") {
        std::cerr << "--decompose must be 0 or 1\n";
        return false;
      }
      options->decompose = (value == "1");
    } else if (arg == "--max-component" && next(&value)) {
      if (!ParseNumber(arg, value, 1, kMaxInt, "> 0",
                       &options->max_component)) {
        return false;
      }
    } else if (arg == "--reopen-variants" && next(&value)) {
      if (value != "0" && value != "1") {
        std::cerr << "--reopen-variants must be 0 or 1\n";
        return false;
      }
      options->reopen_variants = (value == "1");
    } else if (arg == "--drift") {
      options->drift = true;
    } else if (arg == "--discover") {
      options->discover = true;
    } else if (arg == "--show-constraints") {
      options->show_constraints = true;
    } else if (arg == "--explain") {
      options->explain = true;
    } else if (arg == "--json") {
      options->json = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return false;
    }
  }
  if (!options->generate.empty()) {
    // Generated workloads bring their own schema, data, and constraints.
    return options->schema_path.empty() && options->data_path.empty() &&
           options->constraints_path.empty() && !options->discover;
  }
  return !options->schema_path.empty() && !options->data_path.empty() &&
         (options->discover || !options->constraints_path.empty());
}

/// Resolves --strategy / --repr-attr into the vfree options. Returns false
/// (after printing a message) when --repr-attr names no schema attribute.
bool ApplyStrategyOptions(const CliOptions& options, const Schema& schema,
                          VfreeOptions* vfree) {
  vfree->strategy = options.strategy;
  if (!options.repr_attr.empty()) {
    std::optional<AttrId> attr = schema.Find(options.repr_attr);
    if (!attr) {
      std::cerr << "--repr-attr: no attribute named " << options.repr_attr
                << "\n";
      return false;
    }
    vfree->subset.repr_attr = *attr;
  }
  return true;
}

/// The θ-tolerant repair options shared by every cvtolerant mode (batch,
/// stream, serve). Returns false (after printing why) when --repr-attr
/// names no schema attribute.
bool MakeRepairOptions(const CliOptions& options, const Schema& schema,
                       const PredicateSpaceOptions* space,
                       CVTolerantOptions* repair) {
  repair->variants.theta = options.theta;
  repair->variants.cost_model.lambda = options.lambda;
  if (space) repair->variants.space = *space;
  repair->threads = options.threads;
  repair->vfree.decompose = options.decompose;
  repair->vfree.max_component = options.max_component;
  return ApplyStrategyOptions(options, schema, &repair->vfree);
}

/// The session options shared by --stream-batches and --serve-bench: the
/// repair options plus the reopen toggle. Returns false like
/// MakeRepairOptions.
bool MakeStreamingOptions(const CliOptions& options, const Schema& schema,
                          const PredicateSpaceOptions* space,
                          StreamingOptions* stream) {
  stream->reopen_variants = options.reopen_variants;
  return MakeRepairOptions(options, schema, space, &stream->repair);
}

/// The --reopen-variants summary lines of both session modes.
void PrintVariantTotals(const StreamTotals& t) {
  std::cout << "variant reopens:  " << t.variant_reopens << "\n"
            << "variant switches: " << t.variant_switches << "\n"
            << "bound updates:    " << t.bound_updates << "\n";
}

/// A --generate workload: dirty instance, constraints, and the predicate
/// space the variant generator should use (hosp recommends one).
struct GeneratedWorkload {
  Relation data;
  ConstraintSet sigma;
  PredicateSpaceOptions space;
};

GeneratedWorkload MakeGeneratedWorkload(const CliOptions& options) {
  NoiseConfig noise;
  noise.error_rate = options.error_rate;
  if (options.generate == "hosp") {
    HospConfig config;
    if (options.size > 0) config.num_hospitals = options.size;
    HospData hosp = MakeHosp(config);
    noise.target_attrs = hosp.noise_attrs;
    return {InjectNoise(hosp.clean, noise).dirty, hosp.given_oversimplified,
            hosp.space};
  }
  if (options.generate == "census") {
    CensusConfig config;
    if (options.size > 0) config.num_rows = options.size;
    CensusData census = MakeCensus(config);
    noise.target_attrs = census.noise_attrs;
    return {InjectNoise(census.clean, noise).dirty, census.given, {}};
  }
  if (options.generate == "dense") {
    // The dense generator injects its own local band noise; InjectNoise's
    // global-range perturbations would defeat the banded conflict shape.
    DenseConfig config;
    if (options.size > 0) config.rows_per_track = options.size;
    config.error_rate = options.error_rate;
    DenseData dense = MakeDense(config);
    return {std::move(dense.dirty), std::move(dense.sigma), {}};
  }
  TaxConfig config;
  if (options.size > 0) config.num_rows = options.size;
  TaxData tax = MakeTax(config);
  noise.target_attrs = tax.noise_attrs;
  return {InjectNoise(tax.clean, noise).dirty, tax.given, {}};
}

int RunDiscovery(const CliOptions& options, const Relation& data) {
  FdDiscoveryOptions fd_options;
  fd_options.min_confidence = options.confidence;
  std::vector<DiscoveredFd> fds = DiscoverFds(data, fd_options);
  std::cout << "# discovered functional dependencies (confidence >= "
            << options.confidence << ")\n";
  for (const DiscoveredFd& d : fds) {
    std::ostringstream lhs;
    for (size_t i = 0; i < d.fd.lhs.size(); ++i) {
      lhs << (i ? "," : "") << data.schema().name(d.fd.lhs[i]);
    }
    std::cout << lhs.str() << " -> " << data.schema().name(d.fd.rhs)
              << "   # confidence=" << d.confidence
              << " support=" << d.support << "\n";
  }
  DcDiscoveryOptions dc_options;
  dc_options.min_confidence = std::max(options.confidence, 0.9);
  std::vector<DiscoveredDc> dcs = DiscoverOrderDcs(data, dc_options);
  std::cout << "# discovered order denial constraints\n";
  for (const DiscoveredDc& d : dcs) {
    std::cout << d.constraint.ToString(data.schema())
              << "   # confidence=" << d.confidence << "\n";
  }
  return 0;
}

/// --stream-batches mode: repairs a prefix of `data` to freeze a variant,
/// then replays the held-out rows plus synthetic edits as batches through
/// a StreamingRepairer, printing per-batch localization numbers.
int RunStream(const CliOptions& options, const Relation& data,
              const ConstraintSet& sigma,
              const PredicateSpaceOptions* space = nullptr) {
  if (options.algorithm != "cvtolerant") {
    std::cerr << "--stream-batches requires --algorithm cvtolerant\n";
    return 2;
  }
  ThreadPool::SetNumThreads(options.threads);
  if (!options.trace_out.empty() || options.profile) Tracer::SetEnabled(true);

  StreamingOptions stream_options;
  if (!MakeStreamingOptions(options, data.schema(), space, &stream_options)) {
    return 2;
  }

  ReplayWorkload workload =
      options.drift
          ? MakeDriftWorkload(data, options.stream_batches, options.batch_size)
          : MakeReplayWorkload(data, options.stream_batches,
                               options.batch_size);
  StreamingRepairer repairer(workload.base, sigma, stream_options);
  std::cout << "algorithm:        cvtolerant (streaming"
            << (options.drift ? ", drift" : "")
            << (options.reopen_variants ? ", unfrozen variant" : "");
  if (options.strategy != RepairStrategy::kUpdate) {
    std::cout << ", strategy=" << RepairStrategyToString(options.strategy);
  }
  std::cout << ")\n"
            << "base tuples:      " << workload.base.num_rows() << "\n"
            << "initial repair:   cost "
            << repairer.initial_stats().repair_cost << ", "
            << repairer.initial_stats().changed_cells << " cells, "
            << repairer.initial_stats().elapsed_seconds << "s\n";
  for (size_t b = 0; b < workload.batches.size(); ++b) {
    StreamBatchResult r = repairer.ApplyBatch(workload.batches[b]);
    std::cout << "batch " << b << ": edits " << r.edits << ", touched "
              << r.rows_touched << ", violations " << r.violations
              << ", dirty rows " << r.dirty_rows << ", components "
              << r.components << ", cells changed " << r.cells_changed
              << ", rechecked " << r.rows_rechecked << ", cost "
              << r.repair_cost;
    if (options.reopen_variants) {
      std::cout << ", reopened " << (r.reopened ? "yes" : "no")
                << (r.variant_switched ? " (switched)" : "") << ", realized "
                << r.realized_cost << ", rival bound " << r.rival_bound;
    }
    std::cout << ", " << r.elapsed_seconds << "s\n";
  }
  const StreamTotals& t = repairer.totals();
  std::cout << "tuples:           " << repairer.current().num_rows() << "\n"
            << "rows ingested:    " << t.rows_ingested << "\n"
            << "rows rechecked:   " << t.rows_rechecked << "\n"
            << "components:       " << t.components_resolved << "\n"
            << "cells changed:    " << t.cells_changed << "\n";
  if (options.reopen_variants) PrintVariantTotals(t);
  std::cout << "violation-free:   "
            << (repairer.IsViolationFree() ? "yes" : "NO") << "\n";

  PublishRepairStats(repairer.initial_stats());
  if (!options.metrics_out.empty() &&
      !WriteMetricsJsonFile(options.metrics_out,
                            MetricsRegistry::Global().SnapshotWork())) {
    std::cerr << "cannot write " << options.metrics_out << "\n";
    return 1;
  }
  if (!options.trace_out.empty() &&
      !Tracer::WriteChromeTrace(options.trace_out)) {
    std::cerr << "cannot write " << options.trace_out << "\n";
    return 1;
  }
  if (options.show_constraints) {
    std::cout << "satisfied constraints:\n"
              << ToString(repairer.variant(), data.schema());
  }
  if (!options.output_path.empty()) {
    if (!WriteCsvFile(repairer.current(), options.output_path)) {
      std::cerr << "cannot write " << options.output_path << "\n";
      return 1;
    }
    std::cout << "repaired CSV:     " << options.output_path << "\n";
  }
  if (options.profile) PrintProfile(std::cout);
  return repairer.IsViolationFree() ? 0 : 1;
}

/// --serve-bench mode: a closed-loop load generator against a
/// server-hosted session. The replay batches are dealt round-robin to
/// --clients simulated closed-loop clients; clients take turns
/// submitting, and a client whose submission is rejected pumps the queue
/// (the drain a real deployment's worker performs) and retries, so every
/// batch is eventually admitted in canonical order and the final instance
/// stays bit-identical to the --stream-batches replay of the same stream.
/// Reports p50/p99 batch latency, edits/sec and admission counts; appends
/// the numbers to BENCH_serve.json next to bench/micro_serve's records.
int RunServeBench(const CliOptions& options, const Relation& data,
                  const ConstraintSet& sigma,
                  const PredicateSpaceOptions* space = nullptr) {
  if (options.algorithm != "cvtolerant") {
    std::cerr << "--serve-bench requires --algorithm cvtolerant\n";
    return 2;
  }
  ThreadPool::SetNumThreads(options.threads);
  if (!options.trace_out.empty() || options.profile) Tracer::SetEnabled(true);

  ServeOptions serve_options;
  if (!MakeStreamingOptions(options, data.schema(), space,
                            &serve_options.session)) {
    return 2;
  }
  serve_options.admission.queue_watermark = options.queue_watermark;

  const int num_batches =
      options.stream_batches > 0 ? options.stream_batches : 8;
  ReplayWorkload workload =
      options.drift
          ? MakeDriftWorkload(data, num_batches, options.batch_size)
          : MakeReplayWorkload(data, num_batches, options.batch_size);

  RepairServer server(serve_options);
  ServeSession* session = server.Open("cli", workload.base, sigma);
  if (session == nullptr) {
    std::cerr << "cannot open serve session\n";
    return 1;
  }
  const StreamingRepairer& engine = session->repair();
  std::cout << "algorithm:        cvtolerant (serve, " << options.clients
            << " clients"
            << (options.drift ? ", drift" : "")
            << (options.reopen_variants ? ", unfrozen variant" : "");
  if (options.strategy != RepairStrategy::kUpdate) {
    std::cout << ", strategy=" << RepairStrategyToString(options.strategy);
  }
  std::cout << ")\n"
            << "base tuples:      " << workload.base.num_rows() << "\n"
            << "initial repair:   cost "
            << engine.initial_stats().repair_cost << ", "
            << engine.initial_stats().changed_cells << " cells, "
            << engine.initial_stats().elapsed_seconds << "s\n"
            << "stream:           " << num_batches << " batches x "
            << options.batch_size << " edits, watermark "
            << options.queue_watermark << "\n";

  // Closed loop: batch i belongs to client i % clients; clients take
  // turns in round-robin order, each driving its next batch to admission
  // before yielding the turn. Retries pump the queue first, so progress
  // is guaranteed and the submit order stays canonical. A malformed batch
  // can never be admitted, so it ends the run instead.
  bench::WallTimer wall;
  std::vector<size_t> next_of(static_cast<size_t>(options.clients), 0);
  for (size_t turn = 0; turn < workload.batches.size(); ++turn) {
    const int client = static_cast<int>(turn) % options.clients;
    size_t batch = static_cast<size_t>(client) +
                   next_of[static_cast<size_t>(client)] *
                       static_cast<size_t>(options.clients);
    for (;;) {
      SubmitOutcome out = session->Submit(workload.batches[batch]);
      if (out.admitted) break;
      if (!out.error.empty()) {
        std::cerr << "batch " << batch << " rejected: " << out.error << "\n";
        return 1;
      }
      session->Pump();
    }
    ++next_of[static_cast<size_t>(client)];
  }
  session->Flush();
  const double wall_seconds = wall.ElapsedMs() / 1e3;

  bench::LatencyHistogram latency;
  latency.RecordAll(session->batch_seconds());
  const StreamTotals& totals = engine.totals();
  const double busy = latency.TotalSeconds();
  const double edits_per_sec =
      busy > 0.0 ? static_cast<double>(totals.edits) / busy : 0.0;
  const int64_t admitted = session->admitted();
  const int64_t rejected = session->rejected();
  std::cout << "admitted:         " << admitted << " (rejected " << rejected
            << ", retried until admitted)\n"
            << "p50 latency:      " << latency.p50() * 1e3 << " ms\n"
            << "p99 latency:      " << latency.p99() * 1e3 << " ms\n"
            << "edits/sec:        " << edits_per_sec << "\n"
            << "components:       " << totals.components_resolved << "\n"
            << "rows rechecked:   " << totals.rows_rechecked << "\n"
            << "cells changed:    " << totals.cells_changed << "\n"
            << "wall time:        " << wall_seconds << "s\n";
  if (options.reopen_variants) PrintVariantTotals(totals);

  bench::BenchJsonWriter json("BENCH_serve.json");
  json.Record("serve_cli/p50", options.threads, latency.p50() * 1e3);
  json.Record("serve_cli/p99", options.threads, latency.p99() * 1e3);
  json.Record("serve_cli/edits_per_sec", options.threads, edits_per_sec);
  json.RecordCounters("serve_cli/load",
                      {{"clients", options.clients},
                       {"batches_admitted", admitted},
                       {"batches_rejected", rejected},
                       {"cells_changed", totals.cells_changed}});

  PublishRepairStats(engine.initial_stats());
  if (!options.metrics_out.empty() &&
      !WriteMetricsJsonFile(options.metrics_out,
                            MetricsRegistry::Global().SnapshotWork())) {
    std::cerr << "cannot write " << options.metrics_out << "\n";
    return 1;
  }
  if (!options.trace_out.empty() &&
      !Tracer::WriteChromeTrace(options.trace_out)) {
    std::cerr << "cannot write " << options.trace_out << "\n";
    return 1;
  }
  if (options.show_constraints) {
    std::cout << "satisfied constraints:\n"
              << ToString(engine.variant(), data.schema());
  }

  ConstraintSet variant = engine.variant();
  std::optional<Relation> final_instance = server.Close("cli");
  if (!final_instance) {
    std::cerr << "serve session lost on close\n";
    return 1;
  }
  const bool clean = FindViolations(*final_instance, variant).empty();
  std::cout << "violation-free:   " << (clean ? "yes" : "NO") << "\n";
  if (!options.output_path.empty()) {
    if (!WriteCsvFile(*final_instance, options.output_path)) {
      std::cerr << "cannot write " << options.output_path << "\n";
      return 1;
    }
    std::cout << "repaired CSV:     " << options.output_path << "\n";
  }
  if (options.profile) PrintProfile(std::cout);
  return clean ? 0 : 1;
}

int RunRepair(const CliOptions& options, const Relation& data,
              const ConstraintSet& sigma,
              const PredicateSpaceOptions* space = nullptr) {
  // 0 = auto: size the global pool to the hardware; per-repair options
  // then inherit it via their own 0 default.
  ThreadPool::SetNumThreads(options.threads);
  if (!options.trace_out.empty() || options.profile) Tracer::SetEnabled(true);
  if (options.strategy != RepairStrategy::kUpdate &&
      options.algorithm != "cvtolerant" && options.algorithm != "vfree") {
    std::cerr << "--strategy " << RepairStrategyToString(options.strategy)
              << " requires --algorithm cvtolerant or vfree\n";
    return 2;
  }
  RepairResult result;
  if (options.algorithm == "cvtolerant") {
    CVTolerantOptions repair_options;
    if (!MakeRepairOptions(options, data.schema(), space, &repair_options)) {
      return 2;
    }
    result = CVTolerantRepair(data, sigma, repair_options);
  } else if (options.algorithm == "vfree") {
    VfreeOptions vfree_options;
    vfree_options.decompose = options.decompose;
    vfree_options.max_component = options.max_component;
    if (!ApplyStrategyOptions(options, data.schema(), &vfree_options)) {
      return 2;
    }
    result = VfreeRepair(data, sigma, vfree_options);
  } else if (options.algorithm == "holistic") {
    result = HolisticRepair(data, sigma);
  } else if (options.algorithm == "greedy") {
    result = GreedyRepair(data, sigma);
  } else if (options.algorithm == "vrepair") {
    result = VrepairRepair(data, sigma);
  } else if (options.algorithm == "unified") {
    result = UnifiedRepair(data, sigma);
  } else if (options.algorithm == "relative") {
    result = RelativeRepair(data, sigma);
  } else {
    std::cerr << "unknown algorithm: " << options.algorithm << "\n";
    return 2;
  }

  // Fold the run's outcome counters into the registry, then export. The
  // work snapshot excludes scheduling-dependent counters, so the file is
  // byte-identical across runs and --threads settings (see util/metrics.h).
  PublishRepairStats(result.stats);
  if (!options.metrics_out.empty() &&
      !WriteMetricsJsonFile(options.metrics_out,
                            MetricsRegistry::Global().SnapshotWork())) {
    std::cerr << "cannot write " << options.metrics_out << "\n";
    return 1;
  }
  if (!options.trace_out.empty() &&
      !Tracer::WriteChromeTrace(options.trace_out)) {
    std::cerr << "cannot write " << options.trace_out << "\n";
    return 1;
  }

  if (options.json) {
    RepairExplanation explanation =
        ExplainRepair(data, result.repaired, result.satisfied_constraints);
    std::cout << RepairResultToJson(result, data.schema(), options.algorithm,
                                    &explanation);
    if (!options.output_path.empty() &&
        !WriteCsvFile(result.repaired, options.output_path)) {
      std::cerr << "cannot write " << options.output_path << "\n";
      return 1;
    }
    // stdout holds exactly the JSON report.
    if (options.profile) PrintProfile(std::cerr);
    return 0;
  }
  std::cout << "algorithm:        " << options.algorithm << "\n";
  if (options.strategy != RepairStrategy::kUpdate) {
    std::cout << "strategy:         "
              << RepairStrategyToString(options.strategy) << "\n"
              << "rows deleted:     " << result.stats.rows_deleted << "\n";
  }
  std::cout << "tuples:           " << data.num_rows() << "\n"
            << "violations found: " << result.stats.initial_violations << "\n"
            << "cells changed:    " << result.stats.changed_cells << "\n"
            << "fresh variables:  " << result.stats.fresh_assignments << "\n"
            << "repair cost:      " << result.stats.repair_cost << "\n"
            << "time:             " << result.stats.elapsed_seconds << "s\n";
  if (options.decompose) {
    std::cout << "decompose:        " << result.stats.components_split
              << " components split, " << result.stats.stitch_merges
              << " stitch merges, " << result.stats.giant_component_cells
              << " giant-component cells\n";
  }
  if (options.algorithm == "cvtolerant") {
    // hopeless + bound-pruned + budget-cut + calls = variants tried.
    const RepairStats& st = result.stats;
    std::cout << "variants tried:   " << st.variants_enumerated
              << " (hopeless " << st.variants_hopeless << ", bound-pruned "
              << st.variants_pruned_bounds - st.variants_hopeless
              << ", budget-cut "
              << st.variants_enumerated - st.variants_pruned_bounds -
                     st.datarepair_calls
              << ", DataRepair calls " << st.datarepair_calls
              << ", shared solutions " << st.cache_hits << ")"
              << (st.variants_capped ? ", truncated at the variant cap" : "")
              << "\n";
    std::cout << "scan work:        " << result.stats.index_partition_builds
              << " partition builds, " << result.stats.index_predicate_evals
              << " predicate evals, " << result.stats.index_code_evals
              << " code evals, " << result.stats.bound_memo_hits
              << " bound memo hits, " << result.stats.index_truncated_scans
              << " truncated scans\n";
    std::cout << "zone maps:        " << result.stats.index_blocks_scanned
              << " blocks scanned, " << result.stats.index_blocks_skipped
              << " blocks skipped\n";
  }
  if (!options.metrics_out.empty()) {
    std::cout << "metrics:          " << options.metrics_out << "\n";
  }
  if (!options.trace_out.empty()) {
    std::cout << "trace:            " << options.trace_out << "\n";
  }
  if (options.show_constraints) {
    std::cout << "satisfied constraints:\n"
              << ToString(result.satisfied_constraints, data.schema());
  }
  if (options.explain) {
    RepairExplanation explanation = ExplainRepair(
        data, result.repaired, result.satisfied_constraints);
    std::cout << "explanation:\n"
              << explanation.ToString(data.schema());
  }
  if (!options.output_path.empty()) {
    if (!WriteCsvFile(result.repaired, options.output_path)) {
      std::cerr << "cannot write " << options.output_path << "\n";
      return 1;
    }
    std::cout << "repaired CSV:     " << options.output_path << "\n";
  }
  if (options.profile) PrintProfile(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage(argv[0]);

  if (!options.generate.empty()) {
    GeneratedWorkload workload = MakeGeneratedWorkload(options);
    if (options.serve_bench) {
      return RunServeBench(options, workload.data, workload.sigma,
                           &workload.space);
    }
    if (options.stream_batches > 0) {
      return RunStream(options, workload.data, workload.sigma,
                       &workload.space);
    }
    return RunRepair(options, workload.data, workload.sigma, &workload.space);
  }

  std::string text, error;
  if (!ReadFile(options.schema_path, &text, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  ParseSchemaResult schema = ParseSchema(text);
  if (!schema.ok()) {
    std::cerr << "schema: " << schema.error << "\n";
    return 1;
  }

  CsvResult data = ReadCsvFile(*schema.schema, options.data_path);
  if (!data.ok()) {
    std::cerr << "data: " << data.error << "\n";
    return 1;
  }

  if (options.discover) return RunDiscovery(options, *data.relation);

  if (!ReadFile(options.constraints_path, &text, &error)) {
    std::cerr << error << "\n";
    return 1;
  }
  ParseSetResult constraints = ParseConstraintSet(*schema.schema, text);
  if (!constraints.ok()) {
    std::cerr << "constraints: " << constraints.error << "\n";
    return 1;
  }
  if (options.serve_bench) {
    return RunServeBench(options, *data.relation, *constraints.constraints);
  }
  if (options.stream_batches > 0) {
    return RunStream(options, *data.relation, *constraints.constraints);
  }
  return RunRepair(options, *data.relation, *constraints.constraints);
}
