#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One recorded interval. `parent` indexes the enclosing span (-1 for a
/// root); `op` is shared by every span of one measured operation (a repair
/// or a served batch); `thread` is a small thread number.
struct Span {
  const char* name = "";  ///< a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t op = 0;
  int thread = 0;
};

/// The benchmark's own span buffer. The benchmark opens and closes spans
/// around its calls into the library, never from inside it, so tracing
/// added to the library later cannot move these numbers. Spans stay in
/// memory until the run ends. Single-threaded: the staged runs call the
/// library from the main thread only.
class SpanRecorder {
 public:
  /// Spans opened from now on belong to a new operation; returns its id.
  int64_t BeginOp() { return ++op_; }

  /// Opens a span under the innermost open one; returns its index.
  int Open(const char* name);
  /// Closes the span `Open` returned; spans close innermost first.
  void Close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON: one complete ("X") event per span, with the
  /// operation id and parent index under "args".
  std::string ToChromeJson() const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  int64_t op_ = 0;
};

/// Records one span for the lifetime of the scope; a null recorder records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of its interval that its children on the same thread cover.
/// Overlapping children count once, and a child reaching past its parent
/// counts only inside it. A child on another thread ran alongside its
/// parent, so it is charged to its own thread and leaves the parent's self
/// time alone; per thread, self times then add up to busy time.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time summed per (span name, thread).
std::map<std::pair<std::string, int>, int64_t> SelfTimeByNameAndThread(
    const std::vector<Span>& spans);

/// Checks the summarizer on a hand-built span set with nesting, siblings,
/// a repeated name, a child on another thread, a child reaching past its
/// parent and a zero-length span. Returns "" on success, else what
/// differed.
std::string CheckSelfTimeSummarizer();

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
