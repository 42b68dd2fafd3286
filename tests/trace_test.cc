// Contract tests for the observability layer (util/trace.h and
// util/metrics.h): span nesting and counter attribution, thread safety of
// the per-thread buffers under ParallelFor, the disabled-mode no-op
// contract, and byte-stable metrics.json rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cvrepair {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Restores the global tracer and pool state even when an assertion bails.
class TraceGuard {
 public:
  ~TraceGuard() {
    Tracer::SetEnabled(false);
    Tracer::Clear();
    ThreadPool::SetNumThreads(1);
  }
};

const Tracer::Event* FindEvent(const std::vector<Tracer::Event>& events,
                               const std::string& name) {
  for (const Tracer::Event& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

int64_t ArgValue(const Tracer::Event& e, const std::string& key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return -1;
}

TEST(TracerTest, SpansNestWithDepthAndContainment) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  {
    TraceSpan outer("outer");
    {
      TraceSpan inner("inner");
      inner.AddArg("shards", 4);
    }
    {
      TraceSpan sibling("sibling");
    }
  }
  Tracer::SetEnabled(false);

  std::vector<Tracer::Event> events = Tracer::CollectEvents();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: the parent opens first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);

  const Tracer::Event* outer = FindEvent(events, "outer");
  const Tracer::Event* inner = FindEvent(events, "inner");
  const Tracer::Event* sibling = FindEvent(events, "sibling");
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(sibling->depth, 1);
  EXPECT_EQ(ArgValue(*inner, "shards"), 4);

  // Children run inside the parent's window.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us + 1.0);
  EXPECT_GE(sibling->start_us, inner->start_us + inner->dur_us - 1.0);
}

TEST(TracerTest, CounterDeltasCreditEveryOpenSpan) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  {
    TraceSpan outer("outer");
    Tracer::AddCounterDelta("eval.things", 10);
    {
      TraceSpan inner("inner");
      Tracer::AddCounterDelta("eval.things", 5);
    }
    // After inner closed: this delta belongs to outer only.
    Tracer::AddCounterDelta("eval.things", 2);
  }
  Tracer::SetEnabled(false);

  std::vector<Tracer::Event> events = Tracer::CollectEvents();
  const Tracer::Event* outer = FindEvent(events, "outer");
  const Tracer::Event* inner = FindEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(ArgValue(*inner, "eval.things"), 5);
  EXPECT_EQ(ArgValue(*outer, "eval.things"), 17);
}

TEST(TracerTest, DeltasOutsideAnySpanAreDropped) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  Tracer::AddCounterDelta("eval.orphan", 99);  // no span open: no-op
  {
    TraceSpan span("lone");
  }
  Tracer::SetEnabled(false);
  std::vector<Tracer::Event> events = Tracer::CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(ArgValue(events[0], "eval.orphan"), -1);
}

TEST(TracerTest, DisabledModeRecordsNothing) {
  TraceGuard guard;
  Tracer::Clear();
  ASSERT_FALSE(Tracer::enabled());
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("ghost");
    span.AddArg("i", i);
    Tracer::AddCounterDelta("eval.ghost", 1);
  }
  EXPECT_TRUE(Tracer::CollectEvents().empty());
}

TEST(TracerTest, SpanOpenedWhileEnabledSurvivesMidSpanDisable) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  {
    TraceSpan span("straddler");
    Tracer::SetEnabled(false);
  }
  // The span was active at construction, so it completes and records.
  EXPECT_EQ(Tracer::CollectEvents().size(), 1u);
}

TEST(TracerTest, ParallelSpansLandInPerThreadBuffers) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  ThreadPool::SetNumThreads(4);
  constexpr int kTasks = 64;
  ThreadPool::ParallelFor(kTasks, [](int64_t i) {
    TraceSpan span("task");
    span.AddArg("index", i);
    Tracer::AddCounterDelta("eval.work", 1);
    TraceSpan nested("task/inner");
  });
  Tracer::SetEnabled(false);

  std::vector<Tracer::Event> events = Tracer::CollectEvents();
  ASSERT_EQ(events.size(), 2u * kTasks);
  int outer_spans = 0;
  std::vector<int64_t> seen_index;
  for (const Tracer::Event& e : events) {
    if (e.name == "task") {
      ++outer_spans;
      EXPECT_EQ(e.depth, 0) << e.name;
      EXPECT_EQ(ArgValue(e, "eval.work"), 1);
      seen_index.push_back(ArgValue(e, "index"));
    } else {
      EXPECT_EQ(e.name, "task/inner");
      EXPECT_EQ(e.depth, 1);
    }
  }
  EXPECT_EQ(outer_spans, kTasks);
  std::sort(seen_index.begin(), seen_index.end());
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(seen_index[i], i);
}

// Self time subtracts a span's direct children on its own thread only: a
// span another thread runs meanwhile is top-level there, and the self
// times add up to the top-level spans' durations.
TEST(TracerTest, SelfTimesSubtractSameThreadChildren) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  const auto pause = std::chrono::milliseconds(2);
  {
    TraceSpan outer("outer");
    std::thread worker([pause] {
      TraceSpan work("worker");
      {
        TraceSpan leaf("leaf");
        std::this_thread::sleep_for(pause);
      }
      std::this_thread::sleep_for(pause);
    });
    {
      TraceSpan leaf("leaf");
      std::this_thread::sleep_for(pause);
    }
    {
      TraceSpan mid("mid");
      TraceSpan leaf("leaf");
      std::this_thread::sleep_for(pause);
    }
    worker.join();
  }
  Tracer::SetEnabled(false);

  const std::vector<Tracer::Event> events = Tracer::CollectEvents();
  ASSERT_EQ(events.size(), 6u);
  const Tracer::Event* outer = FindEvent(events, "outer");
  const Tracer::Event* worker = FindEvent(events, "worker");
  const Tracer::Event* mid = FindEvent(events, "mid");
  ASSERT_TRUE(outer && worker && mid);
  ASSERT_NE(outer->tid, worker->tid);
  double outer_children = mid->dur_us;
  double mid_children = 0.0;
  double worker_children = 0.0;
  double leaves = 0.0;
  double top_level = 0.0;
  for (const Tracer::Event& e : events) {
    if (e.depth == 0) top_level += e.dur_us;
    if (e.name != "leaf") continue;
    leaves += e.dur_us;
    if (e.tid == worker->tid) {
      worker_children += e.dur_us;
    } else if (e.depth == 1) {
      outer_children += e.dur_us;
    } else {
      mid_children += e.dur_us;
    }
  }

  const std::vector<Tracer::SpanTotals> totals = Tracer::SelfTimes();
  ASSERT_EQ(totals.size(), 4u);
  double self_sum = 0.0;
  for (size_t i = 0; i < totals.size(); ++i) {
    const Tracer::SpanTotals& t = totals[i];
    self_sum += t.self_us;
    if (i > 0) {
      EXPECT_GE(totals[i - 1].self_us, t.self_us);
    }
    if (t.name == "outer") {
      EXPECT_EQ(t.calls, 1);
      EXPECT_EQ(t.total_us, outer->dur_us);
      EXPECT_NEAR(t.self_us, outer->dur_us - outer_children, 1e-6);
    } else if (t.name == "worker") {
      EXPECT_EQ(t.calls, 1);
      EXPECT_NEAR(t.self_us, worker->dur_us - worker_children, 1e-6);
      EXPECT_GT(t.self_us, 0.0);
    } else if (t.name == "mid") {
      EXPECT_EQ(t.calls, 1);
      EXPECT_NEAR(t.self_us, mid->dur_us - mid_children, 1e-6);
    } else {
      EXPECT_EQ(t.name, "leaf");
      EXPECT_EQ(t.calls, 3);
      EXPECT_NEAR(t.total_us, leaves, 1e-6);
      EXPECT_EQ(t.self_us, t.total_us);
    }
  }
  EXPECT_NEAR(self_sum, top_level, 1e-6);
}

TEST(TracerTest, ChromeTraceFileIsWellFormed) {
  TraceGuard guard;
  Tracer::Clear();
  Tracer::SetEnabled(true);
  {
    TraceSpan span("phase \"quoted\\name\"");
    span.AddArg("n", 3);
  }
  Tracer::SetEnabled(false);
  std::string path = TempPath("cvrepair_trace_test.json");
  ASSERT_TRUE(Tracer::WriteChromeTrace(path));
  std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // The quote and backslash in the span name must be escaped.
  EXPECT_NE(text.find("phase \\\"quoted\\\\name\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsTest, RegistryHandlesAreStableAndKindIsFixedByFirstUse) {
  MetricsRegistry registry;
  MetricCounter* a = registry.GetCounter("test.a");
  EXPECT_EQ(a, registry.GetCounter("test.a"));
  EXPECT_EQ(a->kind(), MetricKind::kWork);
  a->Add(5);
  a->Increment();
  EXPECT_EQ(a->value(), 6);

  MetricCounter* r = registry.GetCounter("test.r", MetricKind::kRuntime);
  // Second registration with a different kind keeps the first kind.
  EXPECT_EQ(registry.GetCounter("test.r", MetricKind::kWork), r);
  EXPECT_EQ(r->kind(), MetricKind::kRuntime);
}

TEST(MetricsTest, WorkSnapshotExcludesRuntimeCounters) {
  MetricsRegistry registry;
  registry.GetCounter("work.one")->Add(1);
  registry.GetCounter("sched.noise", MetricKind::kRuntime)->Add(7);

  MetricsSnapshot all = registry.SnapshotAll();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("sched.noise"), 7);

  MetricsSnapshot work = registry.SnapshotWork();
  EXPECT_EQ(work.size(), 1u);
  EXPECT_EQ(work.at("work.one"), 1);

  registry.ResetAll();
  EXPECT_EQ(registry.SnapshotAll().at("sched.noise"), 0);
  EXPECT_EQ(registry.GetCounter("work.one")->value(), 0);
}

TEST(MetricsTest, JsonRenderingIsTheExactStableFormat) {
  MetricsSnapshot snapshot;
  snapshot["b.second"] = 20;
  snapshot["a.first"] = 1;
  EXPECT_EQ(MetricsToJson(snapshot),
            "{\n"
            "  \"a.first\": 1,\n"
            "  \"b.second\": 20\n"
            "}\n");
}

TEST(MetricsTest, JsonFileIsByteIdenticalAcrossWrites) {
  MetricsRegistry registry;
  registry.GetCounter("eval.scans")->Add(42);
  registry.GetCounter("repair.rounds")->Add(3);
  std::string p1 = TempPath("cvrepair_metrics_test_1.json");
  std::string p2 = TempPath("cvrepair_metrics_test_2.json");
  ASSERT_TRUE(WriteMetricsJsonFile(p1, registry.SnapshotWork()));
  ASSERT_TRUE(WriteMetricsJsonFile(p2, registry.SnapshotWork()));
  std::string t1 = ReadFile(p1);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, ReadFile(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(MetricsTest, DiffSubtractsPerKeyAndKeepsVanishedKeysNegated) {
  MetricsSnapshot before{{"x", 10}, {"gone", 4}};
  MetricsSnapshot after{{"x", 25}, {"fresh", 2}};
  MetricsSnapshot diff = MetricsDiff(after, before);
  EXPECT_EQ(diff.at("x"), 15);
  EXPECT_EQ(diff.at("fresh"), 2);
  EXPECT_EQ(diff.at("gone"), -4);
}

}  // namespace
}  // namespace cvrepair
