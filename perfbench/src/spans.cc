#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Open(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Read the clock last, so the buffer's own growth is not charged to the
  // span.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(int index) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(index)].end_ns = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::string SpanRecorder::ToChromeJson() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread;
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf << ",\"args\":{\"op\":" << s.op << ",\"parent\":" << s.parent
       << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    if (p.thread != s.thread) continue;
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t end = INT64_MIN;
    for (const auto& [lo, hi] : parts) {
      const int64_t from = std::max(lo, end);
      if (hi > from) union_ns += hi - from;
      end = std::max(end, hi);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - union_ns;
  }
  return self;
}

std::map<std::pair<std::string, int>, int64_t> SelfTimeByNameAndThread(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::pair<std::string, int>, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[{spans[i].name, spans[i].thread}] += self[i];
  }
  return out;
}

std::string CheckSelfTimeSummarizer() {
  auto span = [](const char* name, int64_t start, int64_t end, int parent,
                 int thread) {
    Span s;
    s.name = name;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    s.thread = thread;
    return s;
  };
  const std::vector<Span> spans = {
      span("A", 0, 100, -1, 0),   // 0: root
      span("B", 10, 30, 0, 0),    // 1: child of A
      span("C", 40, 60, 0, 0),    // 2: sibling of B
      span("D", 45, 50, 2, 0),    // 3: nested in C
      span("G", 50, 55, 2, 0),    // 4: sibling of D, touching it
      span("B", 60, 65, 0, 0),    // 5: repeated name
      span("E", 20, 90, 0, 1),    // 6: child of A on another thread
      span("Z", 70, 70, 0, 0),    // 7: zero length
      span("F", 95, 110, 0, 0),   // 8: reaches past A's end
  };
  const std::map<std::pair<std::string, int>, int64_t> want = {
      {{"A", 0}, 100 - 20 - 20 - 5 - 5},  // B, C, the second B, F inside A
      {{"B", 0}, 20 + 5},
      {{"C", 0}, 20 - 5 - 5},
      {{"D", 0}, 5},
      {{"G", 0}, 5},
      {{"E", 1}, 70},
      {{"Z", 0}, 0},
      {{"F", 0}, 15},
  };
  const auto got = SelfTimeByNameAndThread(spans);
  if (got == want) return "";
  std::ostringstream os;
  os << "self-time summarizer mismatch:";
  for (const auto& [key, ns] : got) {
    auto it = want.find(key);
    const int64_t expected = it == want.end() ? -1 : it->second;
    if (expected != ns) {
      os << " " << key.first << "@" << key.second << "=" << ns << " (want "
         << expected << ")";
    }
  }
  return os.str();
}

}  // namespace perfbench
