// End-to-end test of the command-line tool: writes schema/data/constraint
// files, invokes the binary (path injected by CMake), and checks the
// repaired CSV and the JSON report.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <sstream>

namespace cvrepair {
namespace {

#ifndef CVREPAIR_CLI_PATH
#define CVREPAIR_CLI_PATH ""
#endif

std::string TempDir() {
  const char* dir = std::getenv("TMPDIR");
  return dir ? dir : "/tmp";
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  ASSERT_TRUE(f.is_open()) << path;
  f << text;
}

/// Runs `command` through the shell and returns its stdout + stderr. With
/// `exit_code`, also reports the exit status (-1 when the shell did not
/// exit normally).
std::string RunAndCapture(const std::string& command,
                          int* exit_code = nullptr) {
  std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  if (exit_code != nullptr) {
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return out;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = CVREPAIR_CLI_PATH;
    ASSERT_FALSE(cli_.empty()) << "CLI path not configured";
    dir_ = TempDir() + "/cvrepair_cli_test";
    std::string ignore = RunAndCapture("mkdir -p " + dir_);
    WriteFile(dir_ + "/schema.txt",
              "Name:string\nGroup:string\nValue:string\n");
    WriteFile(dir_ + "/data.csv",
              "Name,Group,Value\n"
              "n1,g1,x\nn2,g1,x\nn3,g1,BAD\nn4,g2,y\nn5,g2,y\n");
    WriteFile(dir_ + "/rules.txt", "# cleaning rule\nGroup -> Value\n");
  }

  std::string cli_;
  std::string dir_;
};

TEST_F(CliTest, RepairWritesCsvAndReport) {
  std::string out = RunAndCapture(
      cli_ + " --schema " + dir_ + "/schema.txt --data " + dir_ +
      "/data.csv --constraints " + dir_ + "/rules.txt --theta 0" +
      " --output " + dir_ + "/repaired.csv --show-constraints --explain");
  EXPECT_NE(out.find("cells changed:    1"), std::string::npos) << out;
  EXPECT_NE(out.find("satisfied constraints:"), std::string::npos) << out;
  EXPECT_NE(out.find("t3.Value: BAD -> x"), std::string::npos) << out;

  std::ifstream f(dir_ + "/repaired.csv");
  ASSERT_TRUE(f.is_open());
  std::stringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(buf.str().find("BAD"), std::string::npos) << buf.str();
  EXPECT_NE(buf.str().find("n3,g1,x"), std::string::npos) << buf.str();
}

TEST_F(CliTest, JsonModeEmitsParsableSkeleton) {
  std::string out = RunAndCapture(
      cli_ + " --schema " + dir_ + "/schema.txt --data " + dir_ +
      "/data.csv --constraints " + dir_ + "/rules.txt --json");
  EXPECT_NE(out.find("\"algorithm\": \"cvtolerant\""), std::string::npos)
      << out;
  EXPECT_NE(out.find("\"changed_cells\": 1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"changes\": ["), std::string::npos) << out;
}

TEST_F(CliTest, DiscoveryModeListsFds) {
  std::string out = RunAndCapture(cli_ + " --schema " + dir_ +
                                  "/schema.txt --data " + dir_ +
                                  "/data.csv --discover --confidence 0.6");
  EXPECT_NE(out.find("Group -> Value"), std::string::npos) << out;
}

TEST_F(CliTest, BadArgumentsFailWithUsage) {
  std::string out = RunAndCapture(cli_ + " --nonsense");
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(CliTest, NegativeThreadsRejected) {
  std::string out = RunAndCapture(
      cli_ + " --schema " + dir_ + "/schema.txt --data " + dir_ +
      "/data.csv --constraints " + dir_ + "/rules.txt --threads -2");
  EXPECT_NE(out.find("--threads must be >= 0"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

// Numeric flags are parsed whole and range-checked: each malformed form
// below used to be coerced by atoi/atof into a value that ran.
TEST_F(CliTest, NonNumericThreadsRejected) {
  std::string out = RunAndCapture(cli_ + " --generate hosp --threads abc");
  EXPECT_NE(out.find("--threads: expected an integer, got \"abc\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(CliTest, TrailingGarbageSizeRejected) {
  std::string out = RunAndCapture(cli_ + " --generate hosp --size 4abc");
  EXPECT_NE(out.find("--size: expected an integer, got \"4abc\""),
            std::string::npos)
      << out;
  EXPECT_EQ(out.find("cells changed:"), std::string::npos) << out;
}

TEST_F(CliTest, OutOfRangeLambdaRejected) {
  std::string out = RunAndCapture(cli_ + " --generate hosp --lambda 3");
  EXPECT_NE(out.find("--lambda must be in [-1, 0]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(CliTest, NanThetaRejected) {
  std::string out = RunAndCapture(cli_ + " --generate hosp --theta nan");
  EXPECT_NE(out.find("--theta must be finite"), std::string::npos) << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

// An int-overflowing count is rejected like any malformed number; the
// served session has no shard count, so its old flag is unknown.
TEST_F(CliTest, OverflowingClientsRejected) {
  std::string out = RunAndCapture(
      cli_ + " --generate hosp --serve-bench --clients 99999999999");
  EXPECT_NE(out.find("--clients: 99999999999 is out of range"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
  const std::string removed = std::string("--") + "shards";
  std::string flag =
      RunAndCapture(cli_ + " --generate hosp --serve-bench " + removed + " 4");
  EXPECT_NE(flag.find("unknown or incomplete argument: " + removed),
            std::string::npos)
      << flag;
  EXPECT_NE(flag.find("usage:"), std::string::npos) << flag;
  EXPECT_EQ(flag.find("admitted:"), std::string::npos) << flag;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// A `nan` in a numeric CSV field loads as NULL, exactly like an empty
// field: detection must report the same violations for both files, never
// the NaN != 3 "violation" a Value comparison would see, and the repaired
// CSVs must be the same file.
TEST_F(CliTest, NanNumericFieldLoadsAsNull) {
  WriteFile(dir_ + "/nan_schema.txt", "A:string\nB:double\n");
  WriteFile(dir_ + "/nan_rules.txt", "A -> B\n");
  WriteFile(dir_ + "/nan.csv", "A,B\nx,nan\nx,3\n");
  WriteFile(dir_ + "/empty.csv", "A,B\nx,\nx,3\n");
  auto violations_line = [&](const std::string& data) {
    std::remove((dir_ + "/" + data + "_repaired.csv").c_str());
    std::string out = RunAndCapture(
        cli_ + " --schema " + dir_ + "/nan_schema.txt --data " + dir_ + "/" +
        data + ".csv --constraints " + dir_ + "/nan_rules.txt --output " +
        dir_ + "/" + data + "_repaired.csv");
    std::smatch m;
    const std::regex line("violations found: *\\d+");
    EXPECT_TRUE(std::regex_search(out, m, line)) << out;
    return m.empty() ? std::string() : m.str();
  };
  const std::string with_nan = violations_line("nan");
  EXPECT_EQ(with_nan, violations_line("empty"));
  EXPECT_EQ(with_nan, "violations found: 0");
  EXPECT_EQ(ReadWholeFile(dir_ + "/nan_repaired.csv"),
            ReadWholeFile(dir_ + "/empty_repaired.csv"));
}

// --metrics-out writes the deterministic work-counter snapshot: the file
// must exist, carry the expected counter families, and be byte-identical
// across repeated runs and across thread counts (the CI baseline
// contract).
TEST_F(CliTest, MetricsOutIsByteIdenticalAcrossRunsAndThreads) {
  std::string base = cli_ + " --schema " + dir_ + "/schema.txt --data " +
                     dir_ + "/data.csv --constraints " + dir_ +
                     "/rules.txt --theta 0";
  std::string out1 =
      RunAndCapture(base + " --threads 1 --metrics-out " + dir_ + "/m1.json");
  std::string out2 =
      RunAndCapture(base + " --threads 1 --metrics-out " + dir_ + "/m2.json");
  std::string out4 =
      RunAndCapture(base + " --threads 4 --metrics-out " + dir_ + "/m4.json");
  EXPECT_NE(out1.find("metrics:"), std::string::npos) << out1;

  std::string m1 = ReadWholeFile(dir_ + "/m1.json");
  ASSERT_FALSE(m1.empty());
  EXPECT_EQ(m1, ReadWholeFile(dir_ + "/m2.json"));
  EXPECT_EQ(m1, ReadWholeFile(dir_ + "/m4.json"));
  EXPECT_NE(m1.find("\"eval."), std::string::npos) << m1;
  EXPECT_NE(m1.find("\"repair.solver_calls\""), std::string::npos) << m1;
  // Scheduling counters must never leak into the deterministic file.
  EXPECT_EQ(m1.find("\"pool."), std::string::npos) << m1;
}

// --trace-out writes a Chrome trace with the pipeline phase spans.
TEST_F(CliTest, TraceOutWritesPhaseSpans) {
  std::string out = RunAndCapture(
      cli_ + " --schema " + dir_ + "/schema.txt --data " + dir_ +
      "/data.csv --constraints " + dir_ + "/rules.txt --theta 0" +
      " --trace-out " + dir_ + "/trace.json");
  EXPECT_NE(out.find("trace:"), std::string::npos) << out;
  std::string trace = ReadWholeFile(dir_ + "/trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("cvtolerant/repair"), std::string::npos);
  EXPECT_NE(trace.find("vfree/data_repair"), std::string::npos);
  EXPECT_NE(trace.find("vfree/context"), std::string::npos);

  // With several DataRepair calls and threads to spare, the candidate
  // search plans candidates ahead of their replay.
  std::string threaded = RunAndCapture(
      cli_ + " --generate hosp --size 6 --threads 4 --trace-out " + dir_ +
      "/trace4.json");
  EXPECT_NE(threaded.find("trace:"), std::string::npos) << threaded;
  std::string trace4 = ReadWholeFile(dir_ + "/trace4.json");
  EXPECT_NE(trace4.find("cvtolerant/plan_candidates"), std::string::npos);
  EXPECT_NE(trace4.find("vfree/cover"), std::string::npos);
}

// The variants line sorts every enumerated variant into exactly one
// outcome: hopeless under the violation cap, bound-pruned, cut by the
// DataRepair budget, or repaired. hosp@24 exhausts the 64-call budget.
TEST_F(CliTest, VariantOutcomesAddUp) {
  std::string out = RunAndCapture(cli_ + " --generate hosp --size 24");
  std::smatch m;
  ASSERT_TRUE(std::regex_search(
      out, m,
      std::regex(R"(variants tried:\s+(\d+) \(hopeless (\d+), )"
                 R"(bound-pruned (\d+), budget-cut (\d+), )"
                 R"(DataRepair calls (\d+),)")))
      << out;
  const int tried = std::stoi(m[1]);
  const int hopeless = std::stoi(m[2]);
  const int bound_pruned = std::stoi(m[3]);
  const int budget_cut = std::stoi(m[4]);
  const int calls = std::stoi(m[5]);
  EXPECT_EQ(hopeless + bound_pruned + budget_cut + calls, tried) << out;
  EXPECT_GT(budget_cut, 0) << out;
  EXPECT_GE(bound_pruned, 0) << out;
}

// The generator mode runs without any input files.
TEST_F(CliTest, GeneratorModeRepairsSyntheticWorkload) {
  std::string out = RunAndCapture(
      cli_ + " --generate hosp --size 6 --algorithm vfree");
  EXPECT_NE(out.find("cells changed:"), std::string::npos) << out;
  std::string bad = RunAndCapture(cli_ + " --generate nosuch");
  EXPECT_NE(bad.find("--generate"), std::string::npos) << bad;
  EXPECT_NE(bad.find("usage:"), std::string::npos) << bad;
}

// Streaming replay mode: ends violation-free, reports per-batch
// localization, and its per-batch numbers are thread-count invariant.
TEST_F(CliTest, StreamBatchesReplaysAndStaysViolationFree) {
  std::string base = cli_ + " --generate hosp --size 6 --stream-batches 3" +
                     " --batch-size 6";
  std::string out1 = RunAndCapture(base + " --threads 1");
  EXPECT_NE(out1.find("cvtolerant (streaming)"), std::string::npos) << out1;
  EXPECT_NE(out1.find("batch 2:"), std::string::npos) << out1;
  EXPECT_NE(out1.find("violation-free:   yes"), std::string::npos) << out1;

  std::string out4 = RunAndCapture(base + " --threads 4");
  // Batch lines carry wall-clock; compare everything up to the cost field.
  auto batch_lines = [](const std::string& s) {
    std::istringstream in(s);
    std::string line, kept;
    while (std::getline(in, line)) {
      if (line.rfind("batch ", 0) == 0) {
        kept += line.substr(0, line.rfind(", ")) + "\n";
      }
    }
    return kept;
  };
  EXPECT_EQ(batch_lines(out1), batch_lines(out4)) << out1 << out4;
}

TEST_F(CliTest, StreamBatchesWritesMetricsAndCsv) {
  std::string out = RunAndCapture(
      cli_ + " --generate hosp --size 6 --stream-batches 2 --batch-size 5" +
      " --metrics-out " + dir_ + "/stream.json --output " + dir_ +
      "/streamed.csv");
  EXPECT_NE(out.find("violation-free:   yes"), std::string::npos) << out;
  std::string metrics = ReadWholeFile(dir_ + "/stream.json");
  EXPECT_NE(metrics.find("\"stream.batches\": 2"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"stream.rows_rechecked\""), std::string::npos)
      << metrics;
  EXPECT_FALSE(ReadWholeFile(dir_ + "/streamed.csv").empty());
}

// --serve-bench honours --reopen-variants: the served session re-opens
// the variant search on the drift stream and still ends violation-free.
TEST_F(CliTest, ServeBenchReopensVariants) {
  // Run inside the scratch dir: --serve-bench appends to BENCH_serve.json.
  std::string out = RunAndCapture(
      "cd " + dir_ + " && " + cli_ +
      " --generate hosp --size 6 --serve-bench --drift --reopen-variants 1" +
      " --stream-batches 6 --batch-size 10");
  const std::string label = "variant reopens:  ";
  size_t at = out.find(label);
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_GT(std::atoi(out.c_str() + at + label.size()), 0) << out;
  EXPECT_NE(out.find("violation-free:   yes"), std::string::npos) << out;
}

// A header-only CSV has no tuples: both session modes replay empty
// batches, exit 0 and end violation-free, like a plain repair of it.
TEST_F(CliTest, SessionModesRunOnHeaderOnlyCsv) {
  WriteFile(dir_ + "/empty.csv", "Name,Group,Value\n");
  const std::string base = cli_ + " --schema " + dir_ +
                           "/schema.txt --data " + dir_ +
                           "/empty.csv --constraints " + dir_ + "/rules.txt";
  // Run inside the scratch dir: --serve-bench appends to BENCH_serve.json.
  for (const std::string mode : {" --stream-batches 2 --batch-size 4",
                                 " --serve-bench --stream-batches 2"
                                 " --batch-size 4"}) {
    SCOPED_TRACE(mode);
    int exit_code = -1;
    std::string out =
        RunAndCapture("cd " + dir_ + " && " + base + mode, &exit_code);
    EXPECT_EQ(exit_code, 0) << out;
    EXPECT_NE(out.find("violation-free:   yes"), std::string::npos) << out;
  }
}

TEST_F(CliTest, StreamBatchesRejectsOtherAlgorithmsAndBadSizes) {
  std::string wrong = RunAndCapture(
      cli_ + " --generate hosp --stream-batches 2 --algorithm vfree");
  EXPECT_NE(wrong.find("--stream-batches requires"), std::string::npos)
      << wrong;
  std::string bad = RunAndCapture(cli_ + " --generate hosp --batch-size 0");
  EXPECT_NE(bad.find("--batch-size must be > 0"), std::string::npos) << bad;
}

// Scans run on the dictionary-coded columns only: the stats line counts
// their code evals, and there is no backend switch — --encoded is an
// unknown argument like any other.
TEST_F(CliTest, CodeEvalsReportedWithoutEncodedFlag) {
  std::string base = cli_ + " --schema " + dir_ + "/schema.txt --data " +
                     dir_ + "/data.csv --constraints " + dir_ +
                     "/rules.txt --theta 0";
  std::string out = RunAndCapture(base);
  EXPECT_NE(out.find("cells changed:    1"), std::string::npos) << out;
  EXPECT_NE(out.find("code evals"), std::string::npos) << out;
  EXPECT_EQ(out.find("encoded:"), std::string::npos) << out;
  std::string flag = RunAndCapture(base + " --encoded 1");
  EXPECT_NE(flag.find("unknown or incomplete argument: --encoded"),
            std::string::npos)
      << flag;
  EXPECT_NE(flag.find("usage:"), std::string::npos) << flag;
  EXPECT_EQ(flag.find("cells changed:"), std::string::npos) << flag;
}

}  // namespace
}  // namespace cvrepair
