#ifndef CVREPAIR_UTIL_TRACE_H_
#define CVREPAIR_UTIL_TRACE_H_

// Hierarchical phase tracer. A TraceSpan marks one pipeline phase (variant
// generation, an index build, a violation scan, a component solve); spans
// nest naturally through scoping, may run on pool worker threads, and
// record wall time plus any counter deltas flushed on their thread while
// they were open.
//
// Cost model: tracing is off by default and the disabled path is one
// relaxed atomic load per span — no clock reads, no allocation, no
// buffering (tests/trace_test.cc pins that contract). When enabled, each
// thread appends completed spans to its own buffer (registered once, under
// a mutex), so concurrent spans never contend; buffers are merged only at
// export time.
//
// Export is the Chrome trace-event format ("X" complete events, one per
// span), loadable in chrome://tracing or Perfetto. trace.json carries
// wall-clock durations and is for humans; the deterministic CI contract
// lives in metrics.json (util/metrics.h) — see DESIGN.md §8.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cvrepair {

class Tracer {
 public:
  /// One completed span, in export form. `depth` is the span's nesting
  /// level on its thread (0 = top-level); `tid` is a small stable id
  /// assigned in thread-registration order.
  struct Event {
    std::string name;
    double start_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
    int depth = 0;
    std::vector<std::pair<std::string, int64_t>> args;
  };

  /// Turns span recording on or off (off by default). Enable before the
  /// run being traced; events survive until Clear().
  static void SetEnabled(bool enabled);
  static bool enabled();

  /// Drops all buffered events. Call only between runs (no spans open).
  static void Clear();

  /// All completed spans, merged across thread buffers and sorted by
  /// (start time, tid, depth) — parents before their children.
  static std::vector<Event> CollectEvents();

  /// Writes CollectEvents() as a Chrome trace-event JSON file. Returns
  /// false when the file cannot be written.
  static bool WriteChromeTrace(const std::string& path);

  /// One span name's share of the recorded time.
  struct SpanTotals {
    std::string name;
    int64_t calls = 0;
    double total_us = 0.0;  ///< summed durations
    double self_us = 0.0;   ///< summed durations minus direct children's
  };

  /// CollectEvents() summed per span name. A span's self time is its
  /// duration minus the durations of its direct children on the same
  /// thread, so the self times of all spans add up to the summed durations
  /// of the top-level (depth 0) spans of every thread. Sorted by
  /// descending self time, ties by name. Call between runs, like
  /// CollectEvents.
  static std::vector<SpanTotals> SelfTimes();

  /// Credits a counter delta to the open spans of the calling thread
  /// (util/metrics.h flush sites call this). No-op while disabled.
  static void AddCounterDelta(const char* key, int64_t value);
};

/// RAII span. Construct at phase entry; the destructor stamps the
/// duration, attaches counter deltas accumulated on this thread since
/// construction, and appends the event to the thread's buffer.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a named integer to the span (block counts, suspects, variant
  /// indexes). No-op while tracing is disabled.
  void AddArg(const char* key, int64_t value);

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  double start_us_ = 0.0;
  int depth_ = 0;
  std::vector<std::pair<std::string, int64_t>> args_;
  std::vector<std::pair<std::string, int64_t>> counter_base_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_UTIL_TRACE_H_
