#ifndef CVREPAIR_UTIL_THREAD_POOL_H_
#define CVREPAIR_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace cvrepair {

/// A small dependency-free thread pool behind the repair engine's two
/// data-parallel loops, both in Algorithm 1 (repair/cvtolerant.cc): the
/// fact scans, one distinct constraint per iteration, and the candidate
/// search's planning window. Everything those loops call runs serially.
///
/// Model: one process-wide pool of helper threads plus the calling thread.
/// ParallelFor(n, fn) splits the index range [0, n) into chunks that the
/// calling thread and the helpers claim from a shared atomic cursor
/// (work-stealing-lite: idle threads keep grabbing the next chunk, so
/// uneven iterations balance without per-task queues).
///
/// Determinism contract: iterations must write only to disjoint,
/// preallocated slots (out[i] = f(i)); callers merge slots in index order
/// afterwards. Under that discipline every parallel path in this codebase
/// produces bit-identical results to its serial path, so `--threads N` never
/// changes a RepairResult, only wall-clock time.
///
/// Nesting: a ParallelFor issued from inside a worker (or from the calling
/// thread while it participates in an outer loop) runs serially inline —
/// the outer loop already saturates the pool, and inline execution keeps
/// the iteration order of nested scans exactly serial.
class ThreadPool {
 public:
  /// Sets the global thread budget. 0 = auto (hardware_concurrency),
  /// 1 = serial (the exact legacy code path), N = up to N threads.
  /// Helper threads are spawned lazily on first use and kept for the
  /// process lifetime; lowering the budget only narrows future splits.
  static void SetNumThreads(int n);

  /// The current global thread budget (>= 1).
  static int num_threads();

  /// The number of threads a ParallelFor issued here and now would use:
  /// min(budget, n is not considered) — 1 when inside a worker or when the
  /// budget is serial. `max_threads` > 0 overrides the global budget for
  /// this query (the per-repair `threads` option).
  static int EffectiveThreads(int max_threads = 0);

  /// Runs fn(i) for every i in [0, n), possibly concurrently. Returns when
  /// all iterations finished. The first exception thrown by an iteration
  /// is rethrown on the calling thread (remaining iterations are
  /// abandoned). `max_threads` > 0 bounds the parallelism of this call
  /// only (1 = force the serial loop).
  static void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                          int max_threads = 0);
};

}  // namespace cvrepair

#endif  // CVREPAIR_UTIL_THREAD_POOL_H_
