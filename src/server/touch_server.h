// TouchServer: many concurrent dbTouch sessions over one shared dataset.
//
// The paper's system is one user, one thread. The server keeps the
// per-touch contract — every touch answered within an interactive bound —
// while multiplexing many sessions over a worker pool:
//
//   client batches: Call(api::SubmitBatchReq)
//        |
//   per-session FIFO of work quanta  (one touch event = one quantum,
//        |                            cost bounded by max_rows_per_touch)
//   FrameScheduler (EDF across sessions)
//        |
//   worker pool --> session kernel (serial per session, shared SharedState)
//
// Deadline model. Each quantum gets a frame budget
//
//   budget = clamp(base / (1 + w_v * v),  min_budget,  base)
//   budget = max(budget, max_rows_per_touch * est_row_ns / 1000)
//
// where `base` is the device's inter-event interval (a touch should be
// served before the next one arrives), `v` the gesture speed in cm/s at
// that event (fast gestures expect snappier, coarser feedback — the
// paper's speed/precision trade) and the second line keeps deadlines
// honest: a budget below the cost of one full per-touch row budget would
// be unmeetable by construction. deadline = scheduled arrival + budget.
//
// Load shedding. A session that finishes a quantum late has its
// `shed_levels` raised, which makes sampling::ChooseLevel pick coarser
// sample-hierarchy levels for subsequent summaries (less data per touch);
// finishing on time decays it back. Quanta that are already hopelessly
// late (`drop_slack_us` past their deadline) or that overflow a session's
// admission bound are dropped outright — but only mid-gesture move quanta:
// gesture begin/end events always execute so recognizer state stays sound.

#ifndef DBTOUCH_SERVER_TOUCH_SERVER_H_
#define DBTOUCH_SERVER_TOUCH_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/kernel.h"
#include "core/shared_state.h"
#include "obs/histogram.h"
#include "obs/trace_recorder.h"
#include "server/api.h"
#include "server/frame_scheduler.h"
#include "server/server_stats.h"
#include "server/session_manager.h"
#include "sim/touch_event.h"
#include "storage/table.h"

namespace dbtouch::server {

struct TouchServerConfig {
  /// Worker threads. 0 = hardware concurrency.
  int num_workers = 0;
  /// Kernel configuration applied to every opened session.
  core::KernelConfig session_defaults;
  /// Base frame budget per touch (us). 0 = the device's inter-event
  /// interval from session_defaults.device.
  sim::Micros base_frame_budget_us = 0;
  /// Floor of the speed-scaled budget.
  sim::Micros min_frame_budget_us = 4'000;
  /// Estimated per-row execution cost used for the budget floor.
  double est_row_ns = 2.0;
  /// A droppable quantum popped more than this past its deadline is shed
  /// instead of executed.
  sim::Micros drop_slack_us = 50'000;
  /// Per-session queue bound; droppable quanta beyond it are rejected at
  /// admission (overload protection for a client flooding the server).
  std::size_t max_session_queue = 4'096;
  /// Per-quantum lifecycle tracing (obs::TraceRecorder): every quantum's
  /// submit/dispatch/execute/suspend/fetch/resume/complete transitions
  /// land in a fixed ring, slow-quantum exemplars are retained, and
  /// trace_recorder()->DumpJson() yields a postmortem document. Off = the
  /// ring is never allocated and every hook is one null-pointer branch.
  bool enable_tracing = false;
  obs::TraceRecorderConfig trace;
  /// Deadline-sacred partial answers (paper Section 4): a quantum whose
  /// cold fetch is predicted — by the measured per-block fetch EWMA — to
  /// blow its deadline answers immediately from the resident sample level
  /// (result tagged partial=true) and a refinement quantum is re-queued to
  /// re-execute at full fidelity when the blocks land, instead of parking
  /// the session until the fetch completes. Opt-in: coarse first answers
  /// change result values mid-stream, so clients must understand the
  /// partial/refine_seq protocol (see src/server/README.md).
  bool partial_answers = false;
};

// Thread-safety contract. TouchServer is shared by submitters, its own
// worker pool, fetch-completion callbacks and stats readers, so every
// public member documents its synchronisation; the audit below is part
// of the api-layer sweep and is what each accessor actually does:
//
//   - Call(...) overloads, WithSession, Drain, stats(): safe from any
//     thread, any time. Session lookups go through the SessionManager's
//     mutex; kernel access takes that session's exec_mu; queue
//     operations take the scheduler's lock.
//   - session_count(): safe from any thread — it is
//     SessionManager::size(), which locks the manager's mutex (the
//     "reads sessions_ without synchronization" concern was a stale
//     doc smell, not a race; the lock was always there).
//   - running(): safe from any thread (atomic, acquire).
//   - Start()/Stop(): NOT safe to call concurrently with each other or
//     with themselves; serialise lifecycle transitions externally.
//     Submitting while stopped returns FailedPrecondition.
//   - num_workers(): safe only after Start() has returned and before
//     Stop() is entered (it reads the worker vector unsynchronised; the
//     vector only mutates inside Start/Stop).
//   - shared(): the SharedState reference itself is valid for the
//     server's lifetime; RegisterTable and the other SharedState methods
//     are internally synchronised, but SpillTable/reclaim calls follow
//     SharedState's own documented contract.
//   - trace_recorder(): safe from any thread (set once in the
//     constructor, never reassigned).
class TouchServer {
 public:
  explicit TouchServer(const TouchServerConfig& config = {});
  ~TouchServer();

  TouchServer(const TouchServer&) = delete;
  TouchServer& operator=(const TouchServer&) = delete;

  /// Spawns the worker pool. Tables may be registered before or after.
  Status Start();

  /// Drains nothing: pending quanta are abandoned. Call Drain() first for
  /// a graceful stop. Idempotent.
  Status Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int num_workers() const { return static_cast<int>(workers_.size()); }

  // ---- Shared data -------------------------------------------------------

  core::SharedState& shared() { return *shared_; }
  Status RegisterTable(std::shared_ptr<storage::Table> table) {
    return shared_->RegisterTable(std::move(table));
  }

  // ---- The versioned api surface (server/api.h) --------------------------
  //
  // One Call overload per request type. These are the server's only
  // entry points: the gateway decodes wire frames into these structs and
  // calls them, and in-process callers (examples, benches, tests) build
  // the same structs. Each checks its request before it changes anything.
  // Errors come back as Status; the gateway maps them onto api::WireCode
  // at the boundary.

  Result<api::OpenSessionResp> Call(const api::OpenSessionReq& req);
  Result<api::CloseSessionResp> Call(const api::CloseSessionReq& req);
  Result<api::CreateObjectResp> Call(const api::CreateObjectReq& req);
  Result<api::SetActionResp> Call(const api::SetActionReq& req);
  Result<api::SubmitBatchResp> Call(const api::SubmitBatchReq& req);
  Result<api::StatsResp> Call(const api::StatsReq& req);
  Result<api::SessionSnapshotResp> Call(const api::SessionSnapshotReq& req);

  /// Live session count; locks the session manager (see the class
  /// thread-safety contract above).
  std::size_t session_count() const { return sessions_.size(); }

  /// Runs `fn` with the session's kernel under the session lock: the
  /// tests' inspection door into state that SessionSnapshotResp does not
  /// carry (pending gestures, summary bands, typed values). Everything
  /// else (benches, examples, the gateway) reads a session through
  /// Call(api::SessionSnapshotReq).
  Status WithSession(SessionId session,
                     const std::function<void(core::Kernel&)>& fn);

  /// Blocks until every queued quantum has executed or been shed.
  Status Drain();

  // ---- Observability -----------------------------------------------------

  ServerStatsSnapshot stats() const;

  /// The span recorder, or nullptr when config.enable_tracing is false.
  obs::TraceRecorder* trace_recorder() const { return trace_.get(); }

 private:
  void WorkerLoop();
  /// Parks `task`'s session and starts demand fetches for every block in
  /// `stall`; the last completion unparks the session (or flags it failed
  /// so the resume sheds the parked work).
  void SuspendOnStall(const TouchTask& task,
                      const std::shared_ptr<ServerSession>& session,
                      core::TouchStall stall);
  /// Partial-dispatch escape hatch: when the EWMA predicts `task`'s stall
  /// outlives its deadline, answers partially from the resident sample
  /// level and re-queues refinement quanta instead of parking. Returns
  /// the outcome of the last kernel drain attempt — kCompleted means the
  /// quantum finished on time with partial answers in place of the cold
  /// reads; kSuspended means the (remaining) stall was not eligible and
  /// the caller parks classically with `stall`. Caller holds no locks;
  /// takes the session's exec_mu internally.
  core::TouchOutcome TryPartialDispatch(
      TouchTask* task, const std::shared_ptr<ServerSession>& session,
      core::TouchStall* stall);
  /// Starts demand fetches for a refinement's stall WITHOUT parking the
  /// session; the last completion pushes a refine quantum (deadline =
  /// now + measured EWMA) back onto the session's queue.
  void StartRefinementFetches(const TouchTask& task,
                              const std::shared_ptr<ServerSession>& session,
                              core::TouchStall stall);
  /// Handles a popped refine quantum: RefineNext under exec_mu; a still-
  /// cold outcome re-fetches and re-queues, a permanent fetch failure
  /// abandons the refinement (the partial answer stands).
  void ExecuteRefinement(TouchTask* task,
                         const std::shared_ptr<ServerSession>& session);
  /// Smoothed per-block cold-fetch wall from the shared buffer pool (us);
  /// 0 until a fetch has settled.
  sim::Micros FetchEwmaUs() const;
  sim::Micros BaseBudgetUs() const;
  sim::Micros BudgetForSpeed(double speed_cm_s) const;
  /// Folds a finished quantum into the stage histograms (queue wait,
  /// execution, fetch stall, end-to-end) and, when tracing, records the
  /// kCompleted span and offers a slow-quantum exemplar.
  void RecordCompletion(const TouchTask& task, sim::Micros latency,
                        bool missed);

  TouchServerConfig config_;
  std::shared_ptr<core::SharedState> shared_;
  SessionManager sessions_;
  FrameScheduler scheduler_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  /// Per-quantum lifecycle spans; null unless config_.enable_tracing.
  std::unique_ptr<obs::TraceRecorder> trace_;
  /// Server-unique quantum ids; tags trace spans across stages.
  std::atomic<std::int64_t> next_quantum_id_{1};

  /// Stage-latency histograms over EVERY executed touch (wait-free
  /// recording, fixed memory, no sample cap — the reservoir this replaces
  /// stopped reflecting steady state once it filled). queue wait + exec +
  /// fetch stall partition the end-to-end latency; see WorkerLoop.
  obs::Histogram queue_wait_hist_;
  obs::Histogram exec_hist_;
  obs::Histogram fetch_stall_hist_;
  obs::Histogram e2e_hist_;
  /// Refinement latency: partial answer's touch release -> full-fidelity
  /// result, per refinement quantum (the fidelity half of the deadline/
  /// fidelity contract; e2e_hist_ holds the latency half).
  obs::Histogram refine_hist_;
  std::atomic<std::int64_t> total_submitted_{0};
  std::atomic<std::int64_t> total_executed_{0};
  std::atomic<std::int64_t> total_dropped_{0};
  std::atomic<std::int64_t> total_misses_{0};
  /// Async read path accounting.
  std::atomic<std::int64_t> total_suspended_{0};
  std::atomic<std::int64_t> total_resumed_{0};
  std::atomic<std::int64_t> total_shed_on_fetch_error_{0};
  /// Suspend round trips saved by multi-attribute stalls (see
  /// FetchStatsSnapshot::batched_stall_attrs).
  std::atomic<std::int64_t> total_batched_stall_attrs_{0};
  /// Partial-answer path accounting: quanta answered coarsely at deadline
  /// pressure, refinement quanta completed, refinements shed on permanent
  /// fetch failure.
  std::atomic<std::int64_t> total_partial_{0};
  std::atomic<std::int64_t> total_refined_{0};
  std::atomic<std::int64_t> total_refine_shed_{0};
  /// Every refine quantum pushed by a fetch settle bumps this; Drain()
  /// uses it to detect refinements re-queued behind its WaitIdle pass.
  std::atomic<std::int64_t> refine_requeues_{0};
  /// Buffer-pressure shed bias: extra shed levels applied to every
  /// session while the pool runs near its byte budget (recomputed every
  /// few completions; reads are relaxed-atomic on the hot path).
  std::atomic<int> buffer_shed_bias_{0};
  std::atomic<std::int64_t> completions_since_pressure_check_{0};
};

}  // namespace dbtouch::server

#endif  // DBTOUCH_SERVER_TOUCH_SERVER_H_
