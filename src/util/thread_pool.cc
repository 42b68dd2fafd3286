#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/metrics.h"

namespace cvrepair {

namespace {

// Set while a thread executes ParallelFor iterations (helpers and the
// calling thread alike); nested parallel calls then run serially inline.
thread_local bool tls_in_parallel = false;

// Scheduling counters, registered as kRuntime: how a loop splits into
// chunks depends on the thread budget and claim races, so these are
// observability for humans and are excluded from the deterministic
// metrics.json contract (see util/metrics.h).
struct PoolMetrics {
  MetricCounter* loops;
  MetricCounter* chunks;
  MetricCounter* helper_dispatches;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics* m = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    PoolMetrics* fresh = new PoolMetrics();
    fresh->loops = r.GetCounter("pool.parallel_loops", MetricKind::kRuntime);
    fresh->chunks = r.GetCounter("pool.chunks_claimed", MetricKind::kRuntime);
    fresh->helper_dispatches =
        r.GetCounter("pool.helper_dispatches", MetricKind::kRuntime);
    return fresh;
  }();
  return *m;
}

// One ParallelFor invocation. Helpers and the caller claim chunks of the
// index range from `next` until it passes `n`.
struct LoopContext {
  int64_t n = 0;
  int64_t chunk = 1;
  const std::function<void(int64_t)>* fn = nullptr;
  std::atomic<int64_t> next{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable done;
  int pending_helpers = 0;  // guarded by mu
  std::exception_ptr error;  // guarded by mu; first failure wins

  void RunChunks() {
    bool saved = tls_in_parallel;
    tls_in_parallel = true;
    int64_t claimed = 0;
    while (!failed.load(std::memory_order_relaxed)) {
      int64_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      ++claimed;
      int64_t end = std::min(n, begin + chunk);
      try {
        for (int64_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    if (claimed) Metrics().chunks->Add(claimed);
    tls_in_parallel = saved;
  }
};

class PoolImpl {
 public:
  static PoolImpl& Get() {
    // Leaked singleton: helper threads may outlive static destruction, so
    // the pool (and its synchronization state) must never be destroyed.
    static PoolImpl* pool = new PoolImpl();
    return *pool;
  }

  void SetBudget(int n) {
    if (n == 0) {
      n = static_cast<int>(std::thread::hardware_concurrency());
    }
    budget_.store(std::max(1, n), std::memory_order_relaxed);
  }

  int Budget() const { return budget_.load(std::memory_order_relaxed); }

  void Run(int64_t n, const std::function<void(int64_t)>& fn, int threads) {
    Metrics().loops->Increment();
    auto context = std::make_shared<LoopContext>();
    context->n = n;
    context->fn = &fn;
    // ~8 chunks per thread: coarse enough to amortize the atomic claim,
    // fine enough that one slow chunk cannot serialize the tail.
    context->chunk = std::max<int64_t>(1, n / (static_cast<int64_t>(threads) * 8));
    int helpers = static_cast<int>(
        std::min<int64_t>(threads - 1, std::max<int64_t>(0, n - 1)));
    context->pending_helpers = helpers;
    if (helpers > 0) {
      Metrics().helper_dispatches->Add(helpers);
      std::lock_guard<std::mutex> lock(queue_mu_);
      EnsureWorkersLocked(helpers);
      for (int i = 0; i < helpers; ++i) queue_.push_back(context);
    }
    if (helpers > 0) queue_cv_.notify_all();

    context->RunChunks();

    std::unique_lock<std::mutex> lock(context->mu);
    context->done.wait(lock, [&] { return context->pending_helpers == 0; });
    if (context->error) std::rethrow_exception(context->error);
  }

 private:
  void EnsureWorkersLocked(int wanted) {
    while (static_cast<int>(workers_.size()) < wanted) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<LoopContext> context;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [&] { return !queue_.empty(); });
        context = std::move(queue_.front());
        queue_.pop_front();
      }
      context->RunChunks();
      {
        std::lock_guard<std::mutex> lock(context->mu);
        --context->pending_helpers;
      }
      context->done.notify_all();
    }
  }

  std::atomic<int> budget_{
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()))};
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<LoopContext>> queue_;
  std::vector<std::thread> workers_;  // grow-only, detached at process exit
};

}  // namespace

void ThreadPool::SetNumThreads(int n) { PoolImpl::Get().SetBudget(n); }

int ThreadPool::num_threads() { return PoolImpl::Get().Budget(); }

int ThreadPool::EffectiveThreads(int max_threads) {
  if (tls_in_parallel) return 1;
  int threads = max_threads > 0 ? max_threads : PoolImpl::Get().Budget();
  return std::max(1, threads);
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn,
                             int max_threads) {
  if (n <= 0) return;
  int threads = EffectiveThreads(max_threads);
  if (threads <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  PoolImpl::Get().Run(n, fn, threads);
}

}  // namespace cvrepair
