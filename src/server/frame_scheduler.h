// FrameScheduler: earliest-deadline-first dispatch of touch work quanta
// across sessions.
//
// dbTouch's contract is per-touch: "the speed of the gesture dictates the
// amount of data processed", and every touch must be answered within an
// interactive bound. Multiplexed over many sessions, that bound becomes a
// frame deadline per queued touch. The scheduler keeps one FIFO queue per
// session (a session's touches must execute in gesture order — the
// recognizer and virtual clock are stateful) and picks, among sessions
// that are not currently executing and whose head task is released, the
// one whose head has the earliest deadline. EDF is optimal for meeting
// deadlines on a uniprocessor and degrades gracefully with a pool.
//
// A task's `release_us` models the touch's scheduled arrival (paced trace
// replay releases events on the gesture's own timeline); a task is never
// handed to a worker before it. Tasks marked `droppable` (mid-gesture
// move quanta) may be shed by the caller when hopelessly late; gesture
// begin/end events are never droppable because dropping them would wedge
// the session's recognizer state machine.

#ifndef DBTOUCH_SERVER_FRAME_SCHEDULER_H_
#define DBTOUCH_SERVER_FRAME_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/trace_recorder.h"
#include "sim/touch_event.h"
#include "sim/virtual_clock.h"

namespace dbtouch::server {

class ServerSession;

/// One bounded work quantum: a single touch event for one session. The
/// per-touch row budget (`max_rows_per_touch`) bounds its execution cost,
/// so a quantum is the natural shedding and scheduling unit.
struct TouchTask {
  std::int64_t session_id = 0;
  /// The session itself, attached at admission so the worker never looks
  /// it up. The reference keeps the session (and its kernel) alive while
  /// the quantum is queued or in flight; the scheduler never destroys a
  /// task, and so never a session, under its own lock. Null for quanta
  /// pushed without a server (scheduler tests and benches).
  std::shared_ptr<ServerSession> session;
  sim::TouchEvent event;
  /// Steady-clock micros of the scheduled arrival; not runnable before.
  sim::Micros release_us = 0;
  /// Steady-clock micros by which the touch should have completed.
  sim::Micros deadline_us = 0;
  /// deadline - release: the frame budget this task was given.
  sim::Micros budget_us = 0;
  /// Mid-gesture move quantum: may be shed under overload.
  bool droppable = false;
  /// Resume marker: the quantum suspended on a cold block fetch and its
  /// touch was already consumed by the recognizer — the worker re-enters
  /// via Kernel::ResumePending instead of feeding the event again.
  bool resume = false;
  /// Refinement quantum: a prior quantum already answered partially at
  /// its deadline; this one re-executes the touch at full fidelity via
  /// Kernel::RefineNext. Never droppable (the partial answer promised a
  /// refinement), and its deadline is the original deadline extended by
  /// the measured per-block fetch EWMA — fidelity waits exactly as long
  /// as the tier demonstrably needs, no longer.
  bool refine = false;
  /// For refinement quanta: release_us of the quantum that produced the
  /// partial answer, so refinement latency is measured from the user's
  /// touch, not from the re-queue.
  sim::Micros origin_release_us = 0;
  /// Server-assigned id, unique across sessions; tags this quantum's trace
  /// spans (0 = untraced path).
  std::int64_t quantum_id = 0;
  /// Stage-latency accounting, maintained by the TouchServer worker loop
  /// and carried across suspend/resume cycles: the instant of the first
  /// dispatch (-1 = never dispatched), accumulated in-kernel execution
  /// time, accumulated parked-on-fetch time, and the instant the quantum
  /// last parked (-1 = not parked). queue wait + exec + stall add up to
  /// the end-to-end latency by construction; see TouchServer::WorkerLoop.
  sim::Micros first_dispatch_us = -1;
  sim::Micros exec_accum_us = 0;
  sim::Micros stall_accum_us = 0;
  sim::Micros parked_at_us = -1;
};

class FrameScheduler {
 public:
  FrameScheduler() = default;

  FrameScheduler(const FrameScheduler&) = delete;
  FrameScheduler& operator=(const FrameScheduler&) = delete;

  /// Enqueues a task on its session's FIFO queue.
  void Push(TouchTask task);

  /// Enqueues at the FRONT of the session queue — for refinement quanta,
  /// which must not wait out every not-yet-released touch behind them in
  /// the FIFO. Safe ahead of a parked resume task: refinements execute
  /// through their own kernel path and leave the parked gesture state
  /// untouched. Ordinary touch quanta must use Push (gesture order).
  void PushFront(TouchTask task);

  /// Admits one frame of ONE session's quanta, in order, under one lock
  /// with one wake: the admission-control primitive. A droppable quantum
  /// is rejected while the session already holds `bound` queued quanta;
  /// every other quantum is admitted. When the session has nothing queued
  /// and the whole frame fits under `bound`, the frame is taken by swap,
  /// so the lock is held for O(1). On return `*frame` holds exactly the
  /// rejected quanta, in order.
  void PushBatch(std::vector<TouchTask>* frame, std::size_t bound);

  /// Blocks until a task is runnable (released, session not executing) and
  /// returns the earliest-deadline one, ties to the lowest session id;
  /// nullopt once Shutdown() is called. The session is marked busy until
  /// it is reported done (OnTaskDone, or the next PopRunnable(session)).
  std::optional<TouchTask> PopRunnable();

  /// The worker loop's pop: OnTaskDone(done_session), when set, and
  /// PopRunnable() under one lock, carrying a steady-clock reading
  /// (SteadyNowUs) both ways when `now` is not null. On entry `*now` is a
  /// recent reading that the first scan uses instead of reading the clock
  /// (negative: read it). A reading older than some head's release only
  /// costs a re-scan: a scan on a passed-in reading that finds nothing
  /// runnable while some head waits for its release reads the clock and
  /// scans again before it sleeps. On return `*now` is the reading the
  /// dispatching scan used: the popped quantum's dispatch stamp.
  std::optional<TouchTask> PopRunnable(
      std::optional<std::int64_t> done_session, sim::Micros* now);

  /// Re-arms `session_id` after a popped task was executed or shed.
  void OnTaskDone(std::int64_t session_id);

  /// Parks the popped task's session on an async block fetch: the task
  /// (marked resume) returns to the FRONT of its session queue — gesture
  /// order is sacred — the session is skipped by PopRunnable until
  /// Unpark, and its busy mark drops so the worker is immediately free
  /// for other sessions. This is how a fetch fills the idle slot instead
  /// of stalling a worker.
  void ParkForFetch(TouchTask task);

  /// Fetch completion: the session's head task becomes runnable again.
  /// Unknown / already-unparked sessions are a no-op (the session may
  /// have closed while its fetch was in flight).
  void Unpark(std::int64_t session_id);

  /// Sessions currently parked on a fetch.
  std::size_t parked() const;

  /// Discards all queued tasks of a closing session, destroying them
  /// after the lock is released. Returns how many. A session with a task
  /// in flight stays busy until that task is reported done.
  std::size_t DropSession(std::int64_t session_id);

  /// Queued tasks for one session (admission control input).
  std::size_t PendingOf(std::int64_t session_id) const;

  /// Queued tasks across all sessions (excludes the one in flight).
  std::size_t pending() const;

  /// Blocks until no task is queued or in flight (or shutdown).
  void WaitIdle();

  /// Wakes all waiters; PopRunnable returns nullopt from now on.
  void Shutdown();

  /// Clears the shutdown flag and discards any leftover queue state so a
  /// stopped server can start again. Only call with no workers running.
  void Restart();

  /// Trace hook: dispatch / park / unpark transitions are recorded when
  /// set. Wire it before workers start (plain pointer, not re-settable
  /// while PopRunnable may run concurrently); null = tracing off, one
  /// branch per transition.
  void set_trace_recorder(obs::TraceRecorder* recorder) {
    trace_ = recorder;
  }

 private:
  /// One live session: its FIFO of queued tasks and the state the EDF
  /// scan reads, cached beside each other so the scan never touches a
  /// session's task storage.
  struct SessionRecord {
    std::int64_t id = 0;
    /// The head task's release and deadline; meaningful while size() > 0.
    sim::Micros head_release_us = 0;
    sim::Micros head_deadline_us = 0;
    /// A popped task is in flight, not yet reported done.
    bool busy = false;
    /// Waiting on a block fetch; not runnable until Unpark.
    bool parked = false;
    /// FIFO: tasks[head, tasks.size()) are queued, oldest first. Popping
    /// only advances `head` (no allocation, no shifting); a push reclaims
    /// the popped prefix before the vector would grow.
    std::vector<TouchTask> tasks;
    std::size_t head = 0;

    std::size_t size() const { return tasks.size() - head; }
    void PushBack(TouchTask task);
    void PushFront(TouchTask task);
    TouchTask PopFront();
    /// Re-reads the head's release and deadline; requires size() > 0.
    void SyncHead();
  };

  SessionRecord* FindLocked(std::int64_t session_id);
  const SessionRecord* FindLocked(std::int64_t session_id) const;
  /// The session's record, created on first use.
  SessionRecord& RecordLocked(std::int64_t session_id);
  /// Clears the busy mark; wakes idle waiters when that leaves no work.
  void MarkDoneLocked(std::int64_t session_id);
  /// The EDF pop: scans the records, collects drained ones, and sleeps
  /// on `lock` until a task is runnable or the scheduler shuts down.
  /// `*now` as for PopRunnable(done_session, now).
  std::optional<TouchTask> PopLocked(std::unique_lock<std::mutex>& lock,
                                     sim::Micros* now);
  bool IdleLocked() const { return queued_ == 0 && busy_ == 0; }

  mutable std::mutex mu_;
  /// Workers wait here for runnable work.
  std::condition_variable cv_;
  /// WaitIdle callers wait here; notified only on the transition to idle
  /// and on Shutdown, so dispatch never wakes them.
  std::condition_variable idle_cv_;
  /// Records of sessions with queued, in-flight or parked work, in no
  /// particular order (EDF breaks deadline ties by session id).
  std::vector<SessionRecord> records_;
  /// Queued tasks across all records, and records marked busy.
  std::size_t queued_ = 0;
  std::size_t busy_ = 0;
  bool shutdown_ = false;
  obs::TraceRecorder* trace_ = nullptr;
};

/// Steady-clock micros since an arbitrary epoch; the time base for
/// release/deadline fields.
sim::Micros SteadyNowUs();

}  // namespace dbtouch::server

#endif  // DBTOUCH_SERVER_FRAME_SCHEDULER_H_
