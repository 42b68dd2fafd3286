// End-to-end test of the command-line tool: writes schema/data/constraint
// files, invokes the binary (path injected by CMake), and checks the
// repaired CSV and the JSON report.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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

std::string RunAndCapture(const std::string& command) {
  std::string full = command + " 2>&1";
  FILE* pipe = popen(full.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  pclose(pipe);
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

TEST_F(CliTest, OverflowingShardsRejected) {
  std::string out = RunAndCapture(
      cli_ + " --generate hosp --serve-bench --shards 99999999999");
  EXPECT_NE(out.find("--shards: 99999999999 is out of range"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST_F(CliTest, BadEncodedValueRejected) {
  std::string out = RunAndCapture(
      cli_ + " --schema " + dir_ + "/schema.txt --data " + dir_ +
      "/data.csv --constraints " + dir_ + "/rules.txt --encoded yes");
  EXPECT_NE(out.find("--encoded must be 0 or 1"), std::string::npos) << out;
}

// --encoded only moves work between the predicate-eval and code-eval
// counters, never the repair: both modes must report the same changed
// cells, and the stats line must say which backend ran.
std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
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
      " --stream-batches 6 --batch-size 10 --shards 2");
  const std::string label = "variant reopens:  ";
  size_t at = out.find(label);
  ASSERT_NE(at, std::string::npos) << out;
  EXPECT_GT(std::atoi(out.c_str() + at + label.size()), 0) << out;
  EXPECT_NE(out.find("violation-free:   yes"), std::string::npos) << out;
}

TEST_F(CliTest, StreamBatchesRejectsOtherAlgorithmsAndBadSizes) {
  std::string wrong = RunAndCapture(
      cli_ + " --generate hosp --stream-batches 2 --algorithm vfree");
  EXPECT_NE(wrong.find("--stream-batches requires"), std::string::npos)
      << wrong;
  std::string bad = RunAndCapture(cli_ + " --generate hosp --batch-size 0");
  EXPECT_NE(bad.find("--batch-size must be > 0"), std::string::npos) << bad;
}

TEST_F(CliTest, EncodedTogglesBackendNotResults) {
  std::string base = cli_ + " --schema " + dir_ + "/schema.txt --data " +
                     dir_ + "/data.csv --constraints " + dir_ +
                     "/rules.txt --theta 0";
  std::string with = RunAndCapture(base + " --encoded 1");
  std::string without = RunAndCapture(base + " --encoded 0");
  EXPECT_NE(with.find("cells changed:    1"), std::string::npos) << with;
  EXPECT_NE(without.find("cells changed:    1"), std::string::npos) << without;
  EXPECT_NE(with.find("encoded:          on"), std::string::npos) << with;
  EXPECT_NE(without.find("encoded:          off"), std::string::npos)
      << without;
  EXPECT_NE(with.find("code evals"), std::string::npos) << with;
}

}  // namespace
}  // namespace cvrepair
