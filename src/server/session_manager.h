// SessionManager: one isolated kernel per connected client, all sharing
// one read-only SharedState (catalog, sample hierarchies, zone maps).
//
// Everything a user can perturb — view hierarchy, operator state, result
// stream, SessionTracker, virtual clock, gesture recognizer — lives in the
// session's own core::Kernel, so cross-session leakage is impossible by
// construction: two sessions only ever share immutable data artefacts.

#ifndef DBTOUCH_SERVER_SESSION_MANAGER_H_
#define DBTOUCH_SERVER_SESSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "server/server_stats.h"

namespace dbtouch::server {

/// One connected client. Workers execute this session's touches strictly
/// serially (the scheduler marks the session busy while a task is in
/// flight); `exec_mu` additionally serialises out-of-band access — object
/// setup, stats snapshots, test inspection — against the executing worker.
class ServerSession {
 public:
  ServerSession(SessionId id, const core::KernelConfig& config,
                std::shared_ptr<core::SharedState> shared)
      : id_(id), kernel_(config, std::move(shared)) {}

  SessionId id() const { return id_; }
  core::Kernel& kernel() { return kernel_; }
  std::mutex& exec_mu() { return exec_mu_; }

  /// Scheduler-visible counters. Written by the single worker currently
  /// executing this session, read concurrently by stats snapshots.
  std::atomic<std::int64_t> submitted{0};
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> dropped_quanta{0};
  std::atomic<std::int64_t> deadline_misses{0};
  /// Quanta parked on cold block fetches (async read path).
  std::atomic<std::int64_t> suspended_quanta{0};
  /// Current load-shedding depth (extra sample levels dropped).
  std::atomic<int> shed_levels{0};
  /// Set by a fetch completion that failed past its retries; the next
  /// resume abandons the parked gesture work instead of re-suspending on
  /// a block that will never arrive.
  std::atomic<bool> fetch_failed{false};
  /// Partial-answer path: quanta answered coarsely at deadline pressure,
  /// refinement quanta completed, and the refine twin of fetch_failed —
  /// set when a refinement's fetch failed permanently, read by the next
  /// refine quantum to abandon instead of re-fetching forever.
  std::atomic<std::int64_t> partial_quanta{0};
  std::atomic<std::int64_t> refined_quanta{0};
  std::atomic<bool> refine_fetch_failed{false};
  /// Refinement demand fetches not yet settled. A still-cold refine
  /// quantum only re-fetches when this is zero — otherwise a pending
  /// settle will push the next refine quantum anyway.
  std::atomic<std::int64_t> refine_fetches_inflight{0};
  /// Set by SessionManager::Close, under the manager's lock, as the
  /// session leaves the table. A quantum admitted before the close still
  /// holds the session; the worker that pops it sees this flag and purges
  /// the session's queue instead of executing.
  std::atomic<bool> closed{false};

 private:
  SessionId id_;
  core::Kernel kernel_;
  std::mutex exec_mu_;
};

class SessionManager {
 public:
  explicit SessionManager(std::shared_ptr<core::SharedState> shared)
      : shared_(std::move(shared)) {}

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session with its own kernel bound to the shared state.
  Result<SessionId> Open(const core::KernelConfig& config);

  /// Closes a session: marks it closed and drops it from the table. Its
  /// kernel (views, operators, results) is destroyed once the last
  /// in-flight reference (a queued quantum, a fetch settle) drains.
  Status Close(SessionId id);

  Result<std::shared_ptr<ServerSession>> Get(SessionId id) const;

  /// All live sessions, for stats roll-up.
  std::vector<std::shared_ptr<ServerSession>> Snapshot() const;

  std::size_t size() const;
  std::int64_t opened() const { return next_id_.load() - 1; }

  const std::shared_ptr<core::SharedState>& shared() const {
    return shared_;
  }

 private:
  std::shared_ptr<core::SharedState> shared_;
  mutable std::mutex mu_;
  std::map<SessionId, std::shared_ptr<ServerSession>> sessions_;
  std::atomic<std::int64_t> next_id_{1};
};

}  // namespace dbtouch::server

#endif  // DBTOUCH_SERVER_SESSION_MANAGER_H_
