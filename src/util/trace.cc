#include "util/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>

namespace cvrepair {
namespace {

std::atomic<bool> g_enabled{false};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-thread span state. Completed events accumulate in `events`; `depth`
// tracks the live nesting level; `counters` is the running per-thread
// counter-delta tally that open spans diff against (TraceSpan snapshots it
// at entry, subtracts at exit). Buffers are registered once in a leaked
// global list (the pool's worker threads outlive static destruction, same
// rationale as PoolImpl) and are only read under g_registry_mu while the
// owning thread is between spans — CollectEvents is documented for
// quiescent use.
struct ThreadLog {
  std::vector<Tracer::Event> events;
  std::vector<std::pair<std::string, int64_t>> counters;
  int depth = 0;
  int tid = 0;
};

std::mutex& RegistryMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<ThreadLog*>& Registry() {
  static std::vector<ThreadLog*>* logs = new std::vector<ThreadLog*>();
  return *logs;
}

ThreadLog& LocalLog() {
  thread_local ThreadLog* log = [] {
    ThreadLog* fresh = new ThreadLog();  // leaked with the registry
    std::lock_guard<std::mutex> lock(RegistryMutex());
    fresh->tid = static_cast<int>(Registry().size());
    Registry().push_back(fresh);
    return fresh;
  }();
  return *log;
}

void BumpLocalCounter(ThreadLog& log, const char* key, int64_t value) {
  for (auto& [name, total] : log.counters) {
    if (name == key) {
      total += value;
      return;
    }
  }
  log.counters.emplace_back(key, value);
}

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (ThreadLog* log : Registry()) {
    log->events.clear();
    log->counters.clear();
  }
}

std::vector<Tracer::Event> Tracer::CollectEvents() {
  std::vector<Event> out;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  for (const ThreadLog* log : Registry()) {
    out.insert(out.end(), log->events.begin(), log->events.end());
  }
  std::sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.depth < b.depth;
  });
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::vector<Event> events = CollectEvents();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::string body;
  body += "{\"traceEvents\":[\n";
  bool first = true;
  for (const Event& event : events) {
    if (!first) body += ",\n";
    first = false;
    body += "{\"name\":\"";
    AppendJsonEscaped(body, event.name);
    body += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    body += std::to_string(event.tid);
    body += ",\"ts\":";
    body += std::to_string(event.start_us);
    body += ",\"dur\":";
    body += std::to_string(event.dur_us);
    body += ",\"args\":{";
    bool first_arg = true;
    for (const auto& [key, value] : event.args) {
      if (!first_arg) body += ",";
      first_arg = false;
      body += "\"";
      AppendJsonEscaped(body, key);
      body += "\":";
      body += std::to_string(value);
    }
    body += "}}";
  }
  body += "\n]}\n";
  out << body;
  return static_cast<bool>(out);
}

std::vector<Tracer::SpanTotals> Tracer::SelfTimes() {
  // Events arrive by start time, parents before their children, so on
  // each thread the open spans form a stack: a span's parent is the
  // innermost open span one level up.
  const std::vector<Event> events = CollectEvents();
  std::vector<double> self_us(events.size());
  std::map<int, std::vector<size_t>> open;  // tid -> open spans, innermost last
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    self_us[i] = e.dur_us;
    std::vector<size_t>& stack = open[e.tid];
    while (!stack.empty() && events[stack.back()].depth >= e.depth) {
      stack.pop_back();
    }
    if (!stack.empty()) self_us[stack.back()] -= e.dur_us;
    stack.push_back(i);
  }
  std::map<std::string, SpanTotals> by_name;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = by_name[events[i].name];
    t.name = events[i].name;
    ++t.calls;
    t.total_us += events[i].dur_us;
    t.self_us += self_us[i];
  }
  std::vector<SpanTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, totals] : by_name) out.push_back(std::move(totals));
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanTotals& a, const SpanTotals& b) {
                     return a.self_us > b.self_us;
                   });
  return out;
}

void Tracer::AddCounterDelta(const char* key, int64_t value) {
  if (!enabled() || value == 0) return;
  ThreadLog& log = LocalLog();
  if (log.depth == 0) return;  // no span open on this thread
  BumpLocalCounter(log, key, value);
}

TraceSpan::TraceSpan(const char* name) {
  if (!Tracer::enabled()) return;  // the only cost when tracing is off
  active_ = true;
  name_ = name;
  ThreadLog& log = LocalLog();
  depth_ = log.depth++;
  counter_base_ = log.counters;
  start_us_ = NowUs();
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  double end_us = NowUs();
  ThreadLog& log = LocalLog();
  log.depth--;
  Tracer::Event event;
  event.name = name_;
  event.start_us = start_us_;
  event.dur_us = end_us - start_us_;
  event.tid = log.tid;
  event.depth = depth_;
  event.args = std::move(args_);
  // Attach the counter deltas credited to this thread while the span was
  // open (the span's own work plus any nested spans').
  for (const auto& [key, total] : log.counters) {
    int64_t base = 0;
    for (const auto& [base_key, base_total] : counter_base_) {
      if (base_key == key) {
        base = base_total;
        break;
      }
    }
    if (total != base) event.args.emplace_back(key, total - base);
  }
  if (log.depth == 0) log.counters.clear();
  log.events.push_back(std::move(event));
}

void TraceSpan::AddArg(const char* key, int64_t value) {
  if (!active_) return;
  args_.emplace_back(key, value);
}

}  // namespace cvrepair
