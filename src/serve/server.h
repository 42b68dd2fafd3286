#ifndef CVREPAIR_SERVE_SERVER_H_
#define CVREPAIR_SERVE_SERVER_H_

// Repair-as-a-service front end (DESIGN.md §13): a RepairServer hosts
// named dataset sessions, each wrapping the one session engine, a
// StreamingRepairer, behind a bounded request queue with admission
// control. Submit is the client edge — it either enqueues a batch
// (admitted, with a monotone ticket) or rejects it: with a reason when the
// batch is malformed, or with a retry-after hint once the queue depth
// reaches the watermark (backpressure; nothing is dropped silently).
// Accepted batches are applied strictly in ticket order, either
// synchronously (Pump/Flush — the deterministic mode the CI gate and the
// load generator's metrics sections drive) or by an optional background
// worker thread. Closing a session flushes every accepted batch before
// the session is destroyed, so admission is a promise: admitted edits are
// always applied.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "repair/streaming.h"

namespace cvrepair {

// perfbench/src/main.cc, frozen outside benchmark changes, still names
// these; see the frozen-perfbench block in StreamTotals.
using ShardedSession = StreamingRepairer;
using ServeTotals = StreamTotals;

/// Admission-control policy of one session's request queue.
struct AdmissionOptions {
  /// Submit rejects while this many batches are already pending. Clamped
  /// to >= 1: a session that can never admit is useless.
  int queue_watermark = 8;
  /// Retry hint handed to rejected clients (seconds). Purely advisory —
  /// the closed-loop load generator sleeps it off, the tests ignore it.
  double retry_after_seconds = 0.05;
  /// Drain the queue from a background worker thread instead of relying
  /// on explicit Pump/Flush calls. Application order is still ticket
  /// order, so the repaired instance is identical either way; admission
  /// outcomes become timing-dependent, which is why the deterministic CI
  /// scenarios leave this off.
  bool background = false;
};

/// Per-session configuration: the engine plus the admission edge.
struct ServeOptions {
  StreamingOptions session;
  AdmissionOptions admission;
};

/// What a client learns from one Submit call.
struct SubmitOutcome {
  bool admitted = false;
  /// Position in the session's admitted sequence (-1 when rejected).
  int64_t ticket = -1;
  /// Advisory backoff for batches rejected at the watermark; 0 when
  /// admitted or malformed.
  double retry_after_seconds = 0.0;
  /// Pending batches after this call (the rejected batch not included).
  int queue_depth = 0;
  /// Why a malformed batch was rejected (retrying cannot help), or empty.
  std::string error;
};

/// One named dataset session: a StreamingRepairer fed by a bounded queue.
/// Thread-safe: any number of client threads may Submit while one drainer
/// (Pump/Flush caller or the background worker) applies.
class ServeSession {
 public:
  ServeSession(std::string name, const Relation& I, const ConstraintSet& sigma,
               const ServeOptions& options);
  ~ServeSession();

  const std::string& name() const { return name_; }

  /// Admission edge: enqueues the batch unless it is malformed (an update
  /// outside the rows the batch will see or the schema, an insert of the
  /// wrong arity, or a NaN double: an `error`, not counted in rejected())
  /// or the queue is at the watermark. ±inf is admitted. Never blocks on
  /// repair work.
  SubmitOutcome Submit(std::vector<RowEdit> edits);

  /// Applies the oldest pending batch, if any, and publishes its serve.*
  /// counters. Returns batches applied (0 or 1).
  int Pump();

  /// Applies every pending batch. Returns batches applied.
  int Flush();

  /// Pending batches right now.
  int depth() const;
  int64_t admitted() const;
  int64_t rejected() const;
  int64_t applied() const;

  /// Wall-clock seconds of each applied batch, in ticket order — the
  /// latency sample the load generator's p50/p99 report reads.
  std::vector<double> batch_seconds() const;

  /// The engine. Safe to read between Pump/Flush calls in synchronous
  /// mode; with a background worker, only after StopWorker/Close.
  const StreamingRepairer& repair() const { return session_; }

 private:
  friend class RepairServer;
  void StartWorker();
  void StopWorker();
  void WorkerLoop();

  const std::string name_;
  const AdmissionOptions admission_;
  StreamingRepairer session_;
  const int num_attributes_;  // of the session's schema

  mutable std::mutex mu_;  // queue, counters, latency sample
  std::condition_variable queue_cv_;
  std::deque<std::vector<RowEdit>> queue_;
  int64_t rows_admitted_ = 0;  // rows once every admitted batch applied
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  int64_t applied_ = 0;
  std::vector<double> batch_seconds_;

  std::mutex apply_mu_;  // serializes applies, preserving ticket order
  std::thread worker_;
  bool stopping_ = false;  // guarded by mu_
};

/// The daemon: owns named sessions, applies per-server default options,
/// and guarantees the close-flushes-accepted-batches contract.
class RepairServer {
 public:
  explicit RepairServer(ServeOptions defaults = {});
  ~RepairServer();

  /// Opens (and returns) a named session over (I, Σ) with the server's
  /// default options. Fails (nullptr) if the name is taken.
  ServeSession* Open(const std::string& name, const Relation& I,
                     const ConstraintSet& sigma);
  ServeSession* Open(const std::string& name, const Relation& I,
                     const ConstraintSet& sigma, const ServeOptions& options);

  /// The named session, or nullptr.
  ServeSession* Find(const std::string& name);

  /// Flushes every accepted batch of the named session, destroys it, and
  /// returns its final repaired instance (std::nullopt for unknown names).
  std::optional<Relation> Close(const std::string& name);

 private:
  ServeOptions defaults_;
  std::mutex mu_;  // the session map
  std::map<std::string, std::unique_ptr<ServeSession>> sessions_;
};

}  // namespace cvrepair

#endif  // CVREPAIR_SERVE_SERVER_H_
