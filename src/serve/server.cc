#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "relation/encoded.h"
#include "util/metrics.h"

namespace cvrepair {

namespace {

/// Cached "serve." counter handles (handles are stable for the process
/// lifetime; ResetAll only zeroes values).
struct ServeCounters {
  MetricCounter* batches_admitted;
  MetricCounter* batches_rejected;
  MetricCounter* sessions_opened;
  MetricCounter* batches_applied;
  MetricCounter* cells_changed;

  static const ServeCounters& Get() {
    static ServeCounters c = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ServeCounters out;
      out.batches_admitted = r.GetCounter("serve.batches_admitted");
      out.batches_rejected = r.GetCounter("serve.batches_rejected");
      out.sessions_opened = r.GetCounter("serve.sessions_opened");
      out.batches_applied = r.GetCounter("serve.batches_applied");
      out.cells_changed = r.GetCounter("serve.cells_changed");
      return out;
    }();
    return c;
  }
};

/// Why `edits` is malformed against a relation of `*rows` rows and
/// `num_attributes` attributes, or "" when it is well formed. A NaN double
/// is malformed: the dictionary cannot order it. Counts the batch's
/// inserts into `*rows`.
std::string MalformedReason(const std::vector<RowEdit>& edits,
                            int num_attributes, int64_t* rows) {
  for (size_t i = 0; i < edits.size(); ++i) {
    const RowEdit& e = edits[i];
    const std::string edit = "edit " + std::to_string(i) + ": ";
    if (e.insert && static_cast<int>(e.values.size()) != num_attributes) {
      return edit + "insert of " + std::to_string(e.values.size()) +
             " values into " + std::to_string(num_attributes) + " attributes";
    }
    if (e.insert) {
      for (size_t a = 0; a < e.values.size(); ++a) {
        if (IsNanDouble(e.values[a])) {
          return edit + "insert of NaN into attribute " + std::to_string(a);
        }
      }
      ++*rows;
    } else if (e.row < 0 || e.row >= *rows || e.attr < 0 ||
               e.attr >= num_attributes) {
      return edit + "update of cell (" + std::to_string(e.row) + ", " +
             std::to_string(e.attr) + ") outside " + std::to_string(*rows) +
             " rows x " + std::to_string(num_attributes) + " attributes";
    } else if (IsNanDouble(e.value)) {
      return edit + "update of cell (" + std::to_string(e.row) + ", " +
             std::to_string(e.attr) + ") to NaN";
    }
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------
// ServeSession

ServeSession::ServeSession(std::string name, const Relation& I,
                           const ConstraintSet& sigma,
                           const ServeOptions& options)
    : name_(std::move(name)),
      admission_([&] {
        AdmissionOptions a = options.admission;
        a.queue_watermark = std::max(1, a.queue_watermark);
        return a;
      }()),
      session_(I, sigma, options.session),
      num_attributes_(session_.current().num_attributes()),
      rows_admitted_(session_.current().num_rows()) {
  ServeCounters::Get().sessions_opened->Increment();
  if (admission_.background) StartWorker();
}

ServeSession::~ServeSession() {
  StopWorker();
  Flush();  // admitted batches are a promise, even on teardown
}

SubmitOutcome ServeSession::Submit(std::vector<RowEdit> edits) {
  SubmitOutcome out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.queue_depth = static_cast<int>(queue_.size());
    int64_t rows = rows_admitted_;
    out.error = MalformedReason(edits, num_attributes_, &rows);
    if (!out.error.empty()) return out;
    if (out.queue_depth >= admission_.queue_watermark) {
      ++rejected_;
      out.retry_after_seconds = admission_.retry_after_seconds;
      ServeCounters::Get().batches_rejected->Increment();
      return out;
    }
    queue_.push_back(std::move(edits));
    rows_admitted_ = rows;
    out.admitted = true;
    out.ticket = admitted_++;
    out.queue_depth = static_cast<int>(queue_.size());
  }
  ServeCounters::Get().batches_admitted->Increment();
  queue_cv_.notify_one();
  return out;
}

int ServeSession::Pump() {
  // apply_mu_ serializes drainers: batches pop and apply one at a time, so
  // the engine always sees them in ticket order.
  std::lock_guard<std::mutex> apply_lock(apply_mu_);
  std::vector<RowEdit> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return 0;
    batch = std::move(queue_.front());
    queue_.pop_front();
  }
  const StreamBatchResult result = session_.ApplyBatch(batch);
  const ServeCounters& c = ServeCounters::Get();
  c.batches_applied->Increment();
  c.cells_changed->Add(result.cells_changed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++applied_;
    batch_seconds_.push_back(result.elapsed_seconds);
  }
  return 1;
}

int ServeSession::Flush() {
  int applied = 0;
  while (Pump() > 0) ++applied;
  return applied;
}

int ServeSession::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

int64_t ServeSession::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

int64_t ServeSession::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

int64_t ServeSession::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

std::vector<double> ServeSession::batch_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_seconds_;
}

void ServeSession::StartWorker() {
  worker_ = std::thread([this] { WorkerLoop(); });
}

void ServeSession::StopWorker() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ServeSession::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // the closer flushes what is left
    }
    Pump();
  }
}

// ---------------------------------------------------------------------------
// RepairServer

RepairServer::RepairServer(ServeOptions defaults)
    : defaults_(std::move(defaults)) {}

RepairServer::~RepairServer() = default;  // ~ServeSession flushes

ServeSession* RepairServer::Open(const std::string& name, const Relation& I,
                                 const ConstraintSet& sigma) {
  return Open(name, I, sigma, defaults_);
}

ServeSession* RepairServer::Open(const std::string& name, const Relation& I,
                                 const ConstraintSet& sigma,
                                 const ServeOptions& options) {
  // The session's initial repair runs outside the map lock — opening a
  // large dataset must not stall Submit/Find traffic on other sessions.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(name) > 0) return nullptr;
  }
  auto session = std::make_unique<ServeSession>(name, I, sigma, options);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sessions_.emplace(name, std::move(session));
  return inserted ? it->second.get() : nullptr;
}

ServeSession* RepairServer::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second.get();
}

std::optional<Relation> RepairServer::Close(const std::string& name) {
  std::unique_ptr<ServeSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end()) return std::nullopt;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  session->StopWorker();
  session->Flush();  // accepted batches survive the close
  return session->repair().current();
}

}  // namespace cvrepair
