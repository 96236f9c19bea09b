#include "server/touch_server.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/logging.h"
#include "common/macros.h"
#include "storage/memory_tracker.h"

namespace dbtouch::server {

namespace {

/// Budget shrink per cm/s of gesture speed (w_v in touch_server.h).
constexpr double kSpeedBudgetWeight = 0.05;
/// Ceiling for per-session level shedding.
constexpr int kMaxShedLevels = 4;
/// Widest timeline one SubmitBatchReq may carry, first event to any other:
/// far above any real batch (one display frame) or trace (seconds).
constexpr std::uint64_t kMaxBatchSpanUs = 3'600'000'000;

/// Clamps a session's shed level to [0, kMaxShedLevels].
int ClampShed(int value) { return std::clamp(value, 0, kMaxShedLevels); }

/// Result retention: once a session's kernel holds kResultTrimAt results,
/// the oldest are dropped down to the newest kResultsKept. That costs
/// about one move per result, and a session's stream stays bounded
/// however long it is connected (ResultStream::total() still counts
/// every result).
constexpr std::int64_t kResultTrimAt = 8'192;
constexpr std::size_t kResultsKept = 4'096;

/// Applies the retention bound. Runs after a kernel call, under the
/// session's exec_mu, never inside one: RefineNext tags the results it
/// appends by index.
void TrimResults(core::Kernel& kernel) {
  if (kernel.results().size() >= kResultTrimAt) {
    kernel.results().KeepNewest(kResultsKept);
  }
}

}  // namespace

namespace {

/// config.num_workers, with 0 resolved to the hardware concurrency (at
/// least 1).
int ResolveWorkerCount(const TouchServerConfig& config) {
  if (config.num_workers > 0) {
    return config.num_workers;
  }
  return std::max(static_cast<int>(std::thread::hardware_concurrency()), 1);
}

/// The shared pool serves every worker; widen its lock sharding unless the
/// configuration already asked for more.
cache::BufferManagerConfig ServerBufferConfig(
    const TouchServerConfig& config) {
  cache::BufferManagerConfig buffer = config.session_defaults.buffer;
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  buffer.shards = std::max(buffer.shards, std::max(hw, 8));
  return buffer;
}

}  // namespace

TouchServer::TouchServer(const TouchServerConfig& config)
    : config_(config),
      shared_(std::make_shared<core::SharedState>(
          config.session_defaults.sampling, ServerBufferConfig(config))),
      sessions_(shared_),
      worker_count_(ResolveWorkerCount(config)),
      ledgers_(static_cast<std::size_t>(worker_count_)) {
  if (config_.enable_tracing) {
    trace_ = std::make_unique<obs::TraceRecorder>(config_.trace);
    // Wire every stage of the request path before any worker or fetcher
    // can run: EDF dispatch/park/unpark, fetcher reads, and (per session
    // in Call(OpenSessionReq)) the kernels' suspend transitions.
    scheduler_.set_trace_recorder(trace_.get());
    shared_->buffer_manager().SetTraceRecorder(trace_.get());
  }
}

TouchServer::~TouchServer() { (void)Stop(); }

Status TouchServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  // A restart after Stop(): clear the scheduler's shutdown latch (and any
  // quanta abandoned by the previous run) before workers spawn.
  scheduler_.Restart();
  running_.store(true, std::memory_order_release);
  workers_.reserve(ledgers_.size());
  for (WorkerLedger& ledger : ledgers_) {
    workers_.emplace_back([this, &ledger] { WorkerLoop(&ledger); });
  }
  DBTOUCH_LOG(kInfo) << "touch server started with " << worker_count_
                     << " workers";
  return Status::OK();
}

Status TouchServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  running_.store(false, std::memory_order_release);
  scheduler_.Shutdown();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  // No worker can start new fetches now; wait out in-flight completions
  // (they call back into this server's scheduler) before returning.
  shared_->buffer_manager().WaitForFetches();
  return Status::OK();
}

// ---- The api surface: one Call overload per request type -------------------

Result<api::OpenSessionResp> TouchServer::Call(const api::OpenSessionReq&) {
  core::KernelConfig config = config_.session_defaults;
  // Rotation rewrites the shared table's physical layout, so it is
  // single-user only; an effectively unreachable trigger angle disables
  // it without a special kernel mode.
  config.rotation_trigger_rad = 1e9;
  DBTOUCH_ASSIGN_OR_RETURN(const SessionId id, sessions_.Open(config));
  if (trace_ != nullptr) {
    const auto s = sessions_.Get(id);
    if (s.ok()) {
      const std::lock_guard<std::mutex> lock((*s)->exec_mu());
      (*s)->kernel().set_trace_recorder(trace_.get(), id);
    }
  }
  api::OpenSessionResp resp;
  resp.session = id;
  return resp;
}

Result<api::CloseSessionResp> TouchServer::Call(
    const api::CloseSessionReq& req) {
  const std::size_t dropped = scheduler_.DropSession(req.session);
  if (dropped > 0) {
    total_dropped_.fetch_add(static_cast<std::int64_t>(dropped),
                             std::memory_order_relaxed);
  }
  // Retract the session's still-queued demand fetches: nobody will claim
  // the blocks, so letting them run would spend cold-tier bandwidth on a
  // dead session. In-flight fetches settle normally (their completions
  // unpark via the scheduler, which no-ops for closed sessions).
  shared_->buffer_manager().CancelFetches(
      static_cast<std::uint64_t>(req.session));
  DBTOUCH_RETURN_IF_ERROR(sessions_.Close(req.session));
  return api::CloseSessionResp{};
}

Result<api::CreateObjectResp> TouchServer::Call(
    const api::CreateObjectReq& req) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<ServerSession> s,
                           sessions_.Get(req.session));
  const touch::RectCm frame{req.frame.x, req.frame.y, req.frame.width,
                            req.frame.height};
  const std::lock_guard<std::mutex> lock(s->exec_mu());
  api::CreateObjectResp resp;
  if (req.kind == 0) {
    DBTOUCH_ASSIGN_OR_RETURN(
        resp.object, s->kernel().CreateColumnObject(req.table, req.column,
                                                    frame));
  } else if (req.kind == 1) {
    DBTOUCH_ASSIGN_OR_RETURN(resp.object,
                             s->kernel().CreateTableObject(req.table, frame));
  } else {
    return Status::InvalidArgument("unknown object kind " +
                                   std::to_string(req.kind));
  }
  return resp;
}

Result<api::SetActionResp> TouchServer::Call(const api::SetActionReq& req) {
  DBTOUCH_ASSIGN_OR_RETURN(const core::ActionConfig action,
                           api::FromWire(req.action));
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<ServerSession> s,
                           sessions_.Get(req.session));
  const std::lock_guard<std::mutex> lock(s->exec_mu());
  DBTOUCH_RETURN_IF_ERROR(s->kernel().SetAction(req.object, action));
  return api::SetActionResp{};
}

Result<api::SubmitBatchResp> TouchServer::Call(
    const api::SubmitBatchReq& req) {
  api::SubmitBatchResp resp;
  if (req.events.empty()) {
    return resp;
  }
  // Checked whole before anything is traced or admitted, so the timeline
  // arithmetic below cannot overflow (or a paced touch be released years
  // out) and a speed or budget is never computed from a non-finite point.
  const sim::Micros first = req.events.front().timestamp_us;
  for (const api::WireTouchEvent& wire : req.events) {
    // Unsigned, so the distance of two far-apart timestamps cannot wrap.
    const auto lo =
        static_cast<std::uint64_t>(std::min(wire.timestamp_us, first));
    const auto hi =
        static_cast<std::uint64_t>(std::max(wire.timestamp_us, first));
    if (hi - lo > kMaxBatchSpanUs) {
      return Status::InvalidArgument("batch spans more than an hour");
    }
    if (!std::isfinite(wire.x_cm) || !std::isfinite(wire.y_cm)) {
      return Status::InvalidArgument("non-finite touch coordinate");
    }
  }
  // One lookup and one lock per frame: every quantum is built outside the
  // scheduler's lock, carrying the session, then the frame is admitted
  // whole. A session closed after this lookup is purged by the worker
  // that pops its first quantum.
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<ServerSession> s,
                           sessions_.Get(req.session));
  if (!running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server not running");
  }
  const sim::Micros epoch = SteadyNowUs();
  std::vector<TouchTask> frame(req.events.size());
  const api::WireTouchEvent* prev = nullptr;
  for (std::size_t i = 0; i < req.events.size(); ++i) {
    const api::WireTouchEvent& wire = req.events[i];
    TouchTask& task = frame[i];
    task.session_id = req.session;
    task.session = s;
    task.event = api::FromWire(wire);
    // Gesture speed at this event, from the batch itself (the server sees
    // raw touches; it cannot wait for the recognizer's smoothed velocity).
    double speed_cm_s = 0.0;
    if (prev != nullptr && wire.timestamp_us > prev->timestamp_us &&
        wire.finger_id == prev->finger_id) {
      speed_cm_s =
          sim::DistanceCm(task.event.position,
                          sim::PointCm{prev->x_cm, prev->y_cm}) /
          sim::MicrosToSeconds(wire.timestamp_us - prev->timestamp_us);
    }
    prev = &wire;
    const sim::Micros arrival = epoch + (wire.timestamp_us - first);
    task.budget_us = BudgetForSpeed(speed_cm_s);
    task.release_us = req.paced ? arrival : epoch;
    task.deadline_us = arrival + task.budget_us;
    task.droppable = task.event.phase == sim::TouchPhase::kMoved;
    if (trace_ != nullptr) {
      task.quantum_id =
          next_quantum_id_.fetch_add(1, std::memory_order_relaxed);
      trace_->Record(obs::SpanStage::kSubmitted, task.quantum_id,
                     req.session, task.budget_us, task.droppable ? 1 : 0);
    }
  }
  const auto submitted = static_cast<std::int64_t>(frame.size());
  s->submitted.fetch_add(submitted, std::memory_order_relaxed);
  total_submitted_.fetch_add(submitted, std::memory_order_relaxed);
  // Admission shed: the bound is applied under the scheduler's own lock,
  // in frame order, so concurrent submitters cannot overshoot it.
  scheduler_.PushBatch(&frame, config_.max_session_queue);
  resp.rejected = static_cast<std::int64_t>(frame.size());
  resp.accepted = submitted - resp.rejected;
  if (resp.rejected > 0) {
    s->dropped_quanta.fetch_add(resp.rejected, std::memory_order_relaxed);
    total_dropped_.fetch_add(resp.rejected, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      for (const TouchTask& task : frame) {
        trace_->Record(
            obs::SpanStage::kShed, task.quantum_id, req.session,
            static_cast<std::int64_t>(obs::ShedReason::kAdmission));
      }
    }
  }
  return resp;
}

Result<api::StatsResp> TouchServer::Call(const api::StatsReq&) {
  api::StatsResp resp;
  resp.sessions_active = static_cast<std::int64_t>(sessions_.size());
  resp.submitted = total_submitted_.load(std::memory_order_relaxed);
  const StageLatencySnapshot stages = LedgerTotals(&resp.deadline_misses);
  resp.executed = stages.e2e.count;
  resp.dropped_quanta = total_dropped_.load(std::memory_order_relaxed);
  resp.p50_latency_us = stages.e2e.Percentile(0.50);
  resp.p99_latency_us = stages.e2e.Percentile(0.99);
  resp.suspended_quanta = total_suspended_.load(std::memory_order_relaxed);
  const cache::BlockCacheStats buffer = shared_->buffer_manager().stats();
  resp.buffer_hits = buffer.hits;
  resp.buffer_lookups = buffer.lookups;
  return resp;
}

Result<api::SessionSnapshotResp> TouchServer::Call(
    const api::SessionSnapshotReq& req) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<ServerSession> s,
                           sessions_.Get(req.session));
  api::SessionSnapshotResp resp;
  resp.session = req.session;
  resp.shed_levels = s->shed_levels.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(s->exec_mu());
  core::Kernel& kernel = s->kernel();
  for (const core::ObjectId id : kernel.ListObjects()) {
    const auto view = kernel.object_view(id);
    if (!view.ok()) {
      continue;  // Destroyed between ListObjects and here (same lock, so
                 // only possible for ids invalidated by the kernel itself).
    }
    const touch::DataObjectView& v = **view;
    api::ObjectInfo info;
    info.object = id;
    info.kind = static_cast<std::uint8_t>(v.kind());
    info.orientation = static_cast<std::uint8_t>(v.orientation());
    info.table = v.table_name();
    info.column = v.column_index().has_value()
                      ? static_cast<std::int64_t>(*v.column_index())
                      : -1;
    info.frame = api::WireRect{v.frame().x, v.frame().y, v.frame().width,
                               v.frame().height};
    info.tuple_count = v.tuple_count();
    resp.objects.push_back(std::move(info));
  }
  const core::KernelStats& k = kernel.stats();
  resp.touch_events = k.touch_events;
  resp.gesture_events = k.gesture_events;
  resp.entries_returned = k.entries_returned;
  resp.rows_scanned = k.rows_scanned;
  resp.rows_pruned = k.rows_pruned;
  resp.suspensions = k.suspensions;
  resp.fetch_errors = k.fetch_errors;
  resp.partial_answers = k.partial_answers;
  resp.refinements = k.refinements;
  // The count is every result ever produced; the tail comes from the
  // retained ones (see kResultsKept).
  resp.result_count = kernel.results().total();
  const auto& items = kernel.results().items();
  if (req.max_results > 0 && !items.empty()) {
    const std::size_t take = std::min<std::size_t>(
        items.size(), static_cast<std::size_t>(req.max_results));
    resp.results.reserve(take);
    for (std::size_t i = items.size() - take; i < items.size(); ++i) {
      const core::ResultItem& item = items[i];
      api::ResultInfo info;
      info.object = item.object;
      info.kind = static_cast<std::uint8_t>(item.kind);
      info.row = item.row;
      // Results carry int64 or double scalars; string results (none
      // today) would CHECK in ToDouble, so guard them to 0.
      info.value = item.value.is_string() ? 0.0 : item.value.ToDouble();
      info.approximate = item.approximate;
      info.partial = item.partial;
      info.refine_seq = item.refine_seq;
      resp.results.push_back(info);
    }
  }
  return resp;
}

Status TouchServer::WithSession(
    SessionId session, const std::function<void(core::Kernel&)>& fn) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<ServerSession> s,
                           sessions_.Get(session));
  const std::lock_guard<std::mutex> lock(s->exec_mu());
  fn(s->kernel());
  return Status::OK();
}

sim::Micros TouchServer::BaseBudgetUs() const {
  if (config_.base_frame_budget_us > 0) {
    return config_.base_frame_budget_us;
  }
  const double hz = config_.session_defaults.device.touch_event_hz;
  return hz > 0.0 ? static_cast<sim::Micros>(1e6 / hz) : 66'667;
}

sim::Micros TouchServer::BudgetForSpeed(double speed_cm_s) const {
  const double base = static_cast<double>(BaseBudgetUs());
  double budget =
      base / (1.0 + kSpeedBudgetWeight * std::max(speed_cm_s, 0.0));
  // Explicit ordering instead of std::clamp: a configured floor above the
  // base must not invert the bounds (clamp with lo > hi is UB).
  const double floor_us = std::min(
      static_cast<double>(config_.min_frame_budget_us), base);
  budget = std::max(std::min(budget, base), floor_us);
  // A deadline below the cost of one full row budget is unmeetable; the
  // floor keeps "miss" meaning "overloaded", not "misconfigured".
  const double cost_floor_us =
      static_cast<double>(config_.session_defaults.max_rows_per_touch) *
      config_.est_row_ns / 1'000.0;
  return static_cast<sim::Micros>(std::max(budget, cost_floor_us));
}

Status TouchServer::Drain() {
  if (!running_) {
    return Status::FailedPrecondition("server not running");
  }
  // Refinement quanta are re-queued by fetch completions, so one WaitIdle
  // is not enough: a settle landing just after it can push new work. Wait
  // out the fetch pipeline as well and converge when a full pass saw both
  // idle with no refinement re-queued in between.
  while (true) {
    scheduler_.WaitIdle();
    const std::int64_t requeues =
        refine_requeues_.load(std::memory_order_acquire);
    shared_->buffer_manager().WaitForFetches();
    if (refine_requeues_.load(std::memory_order_acquire) == requeues &&
        scheduler_.pending() == 0) {
      break;
    }
  }
  return Status::OK();
}

void TouchServer::WorkerLoop(WorkerLedger* ledger) {
#if defined(__linux__)
  // The scheduler sleeps until a future quantum's exact release; the
  // kernel's default 50 us timer slack would otherwise defer that wake.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  // The session of the quantum just served is reported done through the
  // next pop, under the same lock — unless that quantum parked, which
  // already released the session.
  std::optional<SessionId> served;
  // The clock is read at most twice per executed quantum: the pop's scan
  // starts from the previous quantum's completion stamp and hands back
  // the reading it dispatched on, and the completion reads it once.
  sim::Micros now = -1;
  while (auto task = scheduler_.PopRunnable(served, &now)) {
    served = task->session_id;
    // The popped task holds its session across the purge below, so no
    // session (and no kernel) is destroyed under the scheduler's lock.
    const std::shared_ptr<ServerSession>& s = task->session;
    if (s->closed.load(std::memory_order_acquire)) {
      // Session closed while its tasks were in flight: purge whatever a
      // racing submit re-queued; the next pop releases the busy mark.
      // Every purged quantum, and the popped one unless it is a refinement
      // (those live outside the accounting), counts as dropped so idle()
      // still converges.
      const std::size_t purged = scheduler_.DropSession(task->session_id);
      total_dropped_.fetch_add(
          static_cast<std::int64_t>(purged) + (task->refine ? 0 : 1),
          std::memory_order_relaxed);
      now = -1;
      continue;
    }

    if (task->refine) {
      // Refinement quanta live outside the executed/dropped accounting:
      // the quantum that owed the user an answer already completed (with
      // partial results) and was counted; this one only upgrades
      // fidelity, so it must not perturb idle()/miss/shed bookkeeping.
      ExecuteRefinement(&*task, s, ledger);
      now = -1;
      continue;
    }

    // The scan's reading is the dispatch stamp, so exec starts at the
    // scan. It may predate the park of a resumed quantum (another worker
    // parked it after this one's last completion stamp), so the stall
    // segment never runs backwards. Stage accounting. The invariant this
    // maintains: queue wait (release -> first dispatch) + exec segments
    // (each dispatch -> park/done) + stall segments (each park ->
    // re-dispatch) tile [release, done] with no gaps, so the stage
    // histograms sum to the end-to-end latency.
    const sim::Micros popped = std::max(now, task->parked_at_us);
    if (task->parked_at_us >= 0) {
      task->stall_accum_us += popped - task->parked_at_us;
      task->parked_at_us = -1;
    }
    if (!task->resume && task->droppable &&
        popped > task->deadline_us + config_.drop_slack_us) {
      // Hopelessly late: shed the quantum, coarsen the session. Resume
      // tasks are exempt — their recognizer work already happened; only
      // the parked execution remains and must drain (or be abandoned on
      // fetch failure below).
      s->dropped_quanta.fetch_add(1, std::memory_order_relaxed);
      s->shed_levels.store(
          ClampShed(s->shed_levels.load(std::memory_order_relaxed) + 1),
          std::memory_order_relaxed);
      total_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (trace_ != nullptr) {
        trace_->Record(obs::SpanStage::kShed, task->quantum_id,
                       task->session_id,
                       static_cast<std::int64_t>(obs::ShedReason::kLate),
                       popped - task->deadline_us);
      }
      continue;
    }
    if (task->first_dispatch_us < 0) {
      task->first_dispatch_us = popped;
    }
    if (trace_ != nullptr) {
      trace_->Record(task->resume ? obs::SpanStage::kResumed
                                  : obs::SpanStage::kExecuting,
                     task->quantum_id, task->session_id);
    }

    core::TouchStall stall;
    core::TouchOutcome outcome;
    {
      const std::lock_guard<std::mutex> lock(s->exec_mu());
      // Buffer-pressure bias: while the pool runs near its byte budget,
      // every session sheds one extra level so summaries touch fewer
      // blocks and eviction pressure relaxes. Applied only in the
      // deadline-sacred mode — classic mode keeps bit-stable results.
      const int bias = config_.partial_answers
                           ? buffer_shed_bias_.load(std::memory_order_relaxed)
                           : 0;
      const int shed =
          ClampShed(s->shed_levels.load(std::memory_order_relaxed) + bias);
      s->kernel().set_shed_levels(shed);
      if (trace_ != nullptr) {
        s->kernel().set_trace_quantum(task->quantum_id);
      }
      if (task->resume) {
        total_resumed_.fetch_add(1, std::memory_order_relaxed);
        if (s->fetch_failed.exchange(false, std::memory_order_acq_rel)) {
          // The awaited fetch failed past its retries: the blocks will
          // never arrive, so shed the parked gesture work instead of
          // suspending on it forever.
          s->kernel().AbandonPending();
          total_shed_on_fetch_error_.fetch_add(1,
                                               std::memory_order_relaxed);
        }
        outcome = s->kernel().ResumePending(&stall);
      } else {
        outcome = s->kernel().OnTouchAsync(task->event, &stall);
      }
      TrimResults(s->kernel());
    }
    if (outcome == core::TouchOutcome::kSuspended && config_.partial_answers) {
      // Deadline-sacred path: if the measured fetch latency predicts the
      // park would blow the deadline, answer now from the resident sample
      // level and re-queue refinement quanta instead of parking.
      outcome = TryPartialDispatch(&*task, s, &stall);
    }
    if (outcome == core::TouchOutcome::kSuspended) {
      // Close this exec segment and open a stall segment; the next
      // dispatch of this quantum closes the stall above.
      const sim::Micros parked = SteadyNowUs();
      task->exec_accum_us += parked - popped;
      task->parked_at_us = parked;
      SuspendOnStall(*task, s, std::move(stall));
      served.reset();
      now = parked;
      continue;
    }
    const sim::Micros done = SteadyNowUs();
    now = done;
    task->exec_accum_us += done - popped;

    // Latency is measured against the scheduled arrival: the time a live
    // user at the screen would have waited for this touch's answer.
    const sim::Micros latency = done - task->release_us;
    const bool missed = done > task->deadline_us;
    // One writer at a time: the worker holding the session's busy mark,
    // which the scheduler's lock hands from worker to worker.
    s->executed.store(s->executed.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    if (missed) {
      s->deadline_misses.fetch_add(1, std::memory_order_relaxed);
      s->shed_levels.store(
          ClampShed(s->shed_levels.load(std::memory_order_relaxed) + 1),
          std::memory_order_relaxed);
    } else {
      // On-time completion: relax shedding one level at a time.
      s->shed_levels.store(
          ClampShed(s->shed_levels.load(std::memory_order_relaxed) - 1),
          std::memory_order_relaxed);
    }
    RecordCompletion(*task, latency, missed, ledger);
    if (!config_.partial_answers) {
      continue;  // Nothing else reads the buffer-pressure shed bias.
    }
    const std::int64_t n = completions_since_pressure_check_.fetch_add(
        1, std::memory_order_relaxed);
    if ((n & 63) == 0) {
      // Recompute the buffer-pressure shed bias every 64th completion:
      // stats() aggregates across cache shards, too heavy per quantum.
      const std::int64_t budget =
          shared_->buffer_manager().config().budget_bytes;
      const bool pressed =
          budget > 0 &&
          shared_->buffer_manager().stats().resident_bytes * 10 >= budget * 9;
      buffer_shed_bias_.store(pressed ? 1 : 0, std::memory_order_relaxed);
    }
  }
}

void TouchServer::SuspendOnStall(const TouchTask& task,
                                 const std::shared_ptr<ServerSession>& s,
                                 core::TouchStall stall) {
  DBTOUCH_CHECK(!stall.entries.empty());
  s->suspended_quanta.fetch_add(1, std::memory_order_relaxed);
  total_suspended_.fetch_add(1, std::memory_order_relaxed);
  if (stall.entries.size() > 1) {
    // N cold attributes riding one suspend saved N - 1 round trips over
    // the old one-attribute-per-stall behaviour.
    total_batched_stall_attrs_.fetch_add(
        static_cast<std::int64_t>(stall.entries.size()) - 1,
        std::memory_order_relaxed);
  }
  // Park first: the session must be invisible to PopRunnable before any
  // completion can try to unpark it.
  scheduler_.ParkForFetch(task);

  /// One ticket for the whole stall — every entry's blocks count toward
  /// it, so the last completion across all attributes unparks.
  struct FetchTicket {
    std::atomic<std::int64_t> remaining;
    std::atomic<bool> failed{false};
    explicit FetchTicket(std::int64_t n) : remaining(n) {}
  };
  auto ticket = std::make_shared<FetchTicket>(stall.total_blocks());
  const SessionId id = task.session_id;
  const auto settle = [this, id, s, ticket](const Status& status) {
    if (!status.ok()) {
      // Failed fetches are counted by the queue itself (fetch_stats);
      // here we only remember that the resume must shed.
      ticket->failed.store(true, std::memory_order_relaxed);
    }
    if (ticket->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (ticket->failed.load(std::memory_order_relaxed)) {
        s->fetch_failed.store(true, std::memory_order_release);
      }
      scheduler_.Unpark(id);
    }
  };
  for (const core::TouchStall::Entry& entry : stall.entries) {
    for (const std::int64_t block : entry.blocks) {
      // Tagged with the session id so a close can retract tickets
      // the fetchers have not picked up yet. An entry's blocks are
      // adjacent (one summary band), so the queue coalesces them into a
      // ranged read at pop time.
      const Status started = entry.source->StartFetch(
          block, settle, static_cast<std::uint64_t>(id));
      if (!started.ok()) {
        settle(started);  // Count it down; the resume sheds the work.
      }
    }
  }
}

sim::Micros TouchServer::FetchEwmaUs() const {
  return shared_->buffer_manager().ewma_block_fetch_us();
}

core::TouchOutcome TouchServer::TryPartialDispatch(
    TouchTask* task, const std::shared_ptr<ServerSession>& s,
    core::TouchStall* stall) {
  // Sacrifice fidelity only when the measured tier latency predicts a
  // deadline miss; a fast tier parks classically and still answers on
  // time at full fidelity. Before the first fetch has settled the EWMA is
  // zero and the classic path keeps its exactness.
  const sim::Micros ewma = FetchEwmaUs();
  if (ewma <= 0 || SteadyNowUs() + ewma <= task->deadline_us) {
    return core::TouchOutcome::kSuspended;
  }
  while (true) {
    bool answered = false;
    {
      const std::lock_guard<std::mutex> lock(s->exec_mu());
      answered = s->kernel().AnswerPartialFromResident();
    }
    if (!answered) {
      // The stalled head is not partial-eligible (tap targeting, join
      // input, no resident sample level): park classically on `stall`.
      return core::TouchOutcome::kSuspended;
    }
    s->partial_quanta.fetch_add(1, std::memory_order_relaxed);
    total_partial_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr) {
      trace_->Record(obs::SpanStage::kPartial, task->quantum_id,
                     task->session_id);
    }
    StartRefinementFetches(*task, s, std::move(*stall));
    // Drain the rest of the quantum: gestures queued behind the answered
    // head may complete outright or stall in turn (and get their own
    // partial answer on the next lap).
    core::TouchStall next;
    core::TouchOutcome outcome;
    {
      const std::lock_guard<std::mutex> lock(s->exec_mu());
      outcome = s->kernel().ResumePending(&next);
      TrimResults(s->kernel());
    }
    if (outcome == core::TouchOutcome::kCompleted) {
      return outcome;
    }
    *stall = std::move(next);
  }
}

void TouchServer::StartRefinementFetches(
    const TouchTask& task, const std::shared_ptr<ServerSession>& s,
    core::TouchStall stall) {
  DBTOUCH_CHECK(!stall.entries.empty());
  const SessionId id = task.session_id;
  // Refinement latency is measured from the touch the user actually made,
  // carried across re-queues and re-fetches.
  const sim::Micros origin_release =
      task.refine ? task.origin_release_us : task.release_us;
  const sim::Micros base_deadline = task.deadline_us;
  s->refine_fetches_inflight.fetch_add(stall.total_blocks(),
                                       std::memory_order_acq_rel);
  const auto settle = [this, id, s, origin_release,
                       base_deadline](const Status& status) {
    s->refine_fetches_inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (!status.ok()) {
      // Permanent failure: the next refine quantum abandons instead of
      // re-fetching a block that will never arrive.
      s->refine_fetch_failed.store(true, std::memory_order_release);
    }
    if (!running_.load(std::memory_order_acquire)) {
      return;  // Stop() abandons pending refinements.
    }
    // One refinement quantum per landed block: refinement starts as soon
    // as any part of the band is checkable instead of waiting out the
    // whole fetch, and the deadline extends past the original by exactly
    // the measured per-block fetch latency — fidelity waits as long as
    // the tier demonstrably needs, no longer.
    TouchTask refine;
    refine.session_id = id;
    refine.session = s;
    refine.refine = true;
    refine.droppable = false;
    refine.resume = false;
    refine.release_us = SteadyNowUs();
    const sim::Micros ewma = std::max<sim::Micros>(FetchEwmaUs(), 1'000);
    refine.deadline_us = std::max(base_deadline, refine.release_us) + ewma;
    refine.budget_us = refine.deadline_us - refine.release_us;
    refine.origin_release_us = origin_release;
    if (trace_ != nullptr) {
      refine.quantum_id =
          next_quantum_id_.fetch_add(1, std::memory_order_relaxed);
    }
    refine_requeues_.fetch_add(1, std::memory_order_release);
    // Front of the session queue: the slide's not-yet-released touches
    // sit behind it in the FIFO, and a refinement that waited out the
    // whole gesture would be stale by the time it landed.
    scheduler_.PushFront(std::move(refine));
  };
  for (const core::TouchStall::Entry& entry : stall.entries) {
    for (const std::int64_t block : entry.blocks) {
      const Status started = entry.source->StartFetch(
          block, settle, static_cast<std::uint64_t>(id));
      if (!started.ok()) {
        settle(started);
      }
    }
  }
}

void TouchServer::ExecuteRefinement(TouchTask* task,
                                    const std::shared_ptr<ServerSession>& s,
                                    WorkerLedger* ledger) {
  // Drain every refinement whose blocks have landed, not just the head:
  // settles can land out of FIFO order, so the quantum pushed for
  // refinement B may find head A still cold while B is ready right
  // behind it — a single-shot RefineNext would strand B forever.
  while (true) {
    core::TouchStall stall;
    core::RefineOutcome outcome;
    {
      const std::lock_guard<std::mutex> lock(s->exec_mu());
      if (s->refine_fetch_failed.exchange(false,
                                          std::memory_order_acq_rel)) {
        // The refinement's fetch failed past its retries: the partial
        // answer stands as the final one for that touch.
        s->kernel().AbandonRefinement();
        total_refine_shed_.fetch_add(1, std::memory_order_relaxed);
      }
      if (trace_ != nullptr) {
        s->kernel().set_trace_quantum(task->quantum_id);
      }
      outcome = s->kernel().RefineNext(&stall);
      TrimResults(s->kernel());
    }
    const sim::Micros done = SteadyNowUs();
    if (outcome == core::RefineOutcome::kRefined) {
      s->refined_quanta.fetch_add(1, std::memory_order_relaxed);
      total_refined_.fetch_add(1, std::memory_order_relaxed);
      ledger->refine.Record(done - task->origin_release_us);
      if (trace_ != nullptr) {
        trace_->Record(obs::SpanStage::kRefined, task->quantum_id,
                       task->session_id, done - task->origin_release_us,
                       done > task->deadline_us ? 1 : 0);
      }
      continue;  // The next refinement's blocks may have landed too.
    }
    if (outcome == core::RefineOutcome::kStillCold) {
      // Blocks were evicted (or a re-queue raced an eviction) before this
      // quantum ran. Re-fetch only when no settle is pending — otherwise
      // the pending settle pushes the next refine quantum anyway and
      // re-fetching here would amplify coalesced duplicates.
      if (!stall.entries.empty() &&
          s->refine_fetches_inflight.load(std::memory_order_acquire) == 0) {
        StartRefinementFetches(*task, s, std::move(stall));
      }
    }
    break;  // kIdle: every queued refinement is done.
  }
}

void TouchServer::RecordCompletion(const TouchTask& task,
                                   sim::Micros latency, bool missed,
                                   WorkerLedger* ledger) {
  if (missed) {
    ledger->misses.store(ledger->misses.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
  // Every executed touch is recorded — histograms have no sample cap, so
  // long-run percentiles reflect the whole run, not whichever samples a
  // bounded reservoir happened to keep. e2e goes last: its count is the
  // executed count, so a reader that sees this touch executed sees its
  // stages too.
  const sim::Micros queue_wait =
      task.first_dispatch_us - task.release_us;
  ledger->queue_wait.Record(queue_wait);
  ledger->exec.Record(task.exec_accum_us);
  ledger->fetch_stall.Record(task.stall_accum_us);
  ledger->e2e.Record(latency);
  if (trace_ != nullptr) {
    trace_->Record(obs::SpanStage::kCompleted, task.quantum_id,
                   task.session_id, latency, missed ? 1 : 0);
    obs::SlowQuantumExemplar exemplar;
    exemplar.quantum = task.quantum_id;
    exemplar.session = task.session_id;
    exemplar.e2e_us = latency;
    exemplar.queue_wait_us = queue_wait;
    exemplar.exec_us = task.exec_accum_us;
    exemplar.fetch_stall_us = task.stall_accum_us;
    exemplar.missed = missed;
    trace_->NoteCompletion(exemplar);
  }
}

StageLatencySnapshot TouchServer::LedgerTotals(std::int64_t* misses) const {
  StageLatencySnapshot total;
  *misses = 0;
  for (const WorkerLedger& ledger : ledgers_) {
    // e2e first: its count is stored last per completion, so the other
    // stages read after it hold at least the completions it counts.
    total.e2e.Add(ledger.e2e.Snapshot());
    total.queue_wait.Add(ledger.queue_wait.Snapshot());
    total.exec.Add(ledger.exec.Snapshot());
    total.fetch_stall.Add(ledger.fetch_stall.Snapshot());
    total.refine.Add(ledger.refine.Snapshot());
    *misses += ledger.misses.load(std::memory_order_relaxed);
  }
  return total;
}

ServerStatsSnapshot TouchServer::stats() const {
  ServerStatsSnapshot snapshot;
  snapshot.sessions_opened = sessions_.opened();
  snapshot.sessions_active = static_cast<std::int64_t>(sessions_.size());
  snapshot.submitted = total_submitted_.load(std::memory_order_relaxed);
  snapshot.stages = LedgerTotals(&snapshot.deadline_misses);
  snapshot.executed = snapshot.stages.e2e.count;
  snapshot.dropped_quanta = total_dropped_.load(std::memory_order_relaxed);
  snapshot.partial_answers = total_partial_.load(std::memory_order_relaxed);
  snapshot.refinements = total_refined_.load(std::memory_order_relaxed);
  snapshot.refinements_shed =
      total_refine_shed_.load(std::memory_order_relaxed);
  snapshot.p50_latency_us = snapshot.stages.e2e.Percentile(0.50);
  snapshot.p99_latency_us = snapshot.stages.e2e.Percentile(0.99);
  snapshot.max_latency_us = snapshot.stages.e2e.max;
  {
    const cache::BlockCacheStats buffer = shared_->buffer_manager().stats();
    snapshot.buffer.lookups = buffer.lookups;
    snapshot.buffer.hits = buffer.hits;
    snapshot.buffer.faulted_blocks = buffer.faults;
    snapshot.buffer.evictions = buffer.evictions;
    snapshot.buffer.bypasses = buffer.bypasses;
    snapshot.buffer.resident_bytes = buffer.resident_bytes;
    snapshot.buffer.peak_resident_bytes = buffer.peak_resident_bytes;
    snapshot.buffer.budget_bytes =
        shared_->buffer_manager().config().budget_bytes;
    const storage::MemoryTracker& tracker =
        storage::MemoryTracker::Instance();
    snapshot.buffer.tracked_matrix_bytes = tracker.matrix_bytes();
    snapshot.buffer.tracked_column_bytes = tracker.column_bytes();
  }
  {
    const cache::FetchQueueStats fetch =
        shared_->buffer_manager().fetch_stats();
    snapshot.fetch.suspended_quanta =
        total_suspended_.load(std::memory_order_relaxed);
    snapshot.fetch.resumed_quanta =
        total_resumed_.load(std::memory_order_relaxed);
    snapshot.fetch.demand_fetches = fetch.demand_enqueued;
    snapshot.fetch.prefetch_fetches = fetch.prefetch_enqueued;
    snapshot.fetch.retries =
        fetch.retries + shared_->buffer_manager().sync_fetch_retries();
    snapshot.fetch.fetch_errors = fetch.failures;
    snapshot.fetch.shed_on_fetch_error =
        total_shed_on_fetch_error_.load(std::memory_order_relaxed);
    snapshot.fetch.cancelled_fetches = fetch.cancelled;
    snapshot.fetch.aborted_fetches = fetch.aborted;
    snapshot.fetch.batched_stall_attrs =
        total_batched_stall_attrs_.load(std::memory_order_relaxed);
    snapshot.fetch.ranged_reads = fetch.ranged_reads;
    snapshot.fetch.ranged_blocks = fetch.ranged_blocks;
    snapshot.fetch.bytes_fetched = fetch.bytes_fetched;
    snapshot.fetch.fetch_wall_us = fetch.fetch_wall_us;
    snapshot.fetch.max_fetch_wall_us = fetch.max_fetch_wall_us;
    snapshot.fetch.ewma_block_fetch_us = fetch.ewma_block_fetch_us;
  }
  std::vector<std::int64_t> executed_per_session;
  for (const auto& s : sessions_.Snapshot()) {
    SessionStatsSnapshot per;
    per.submitted = s->submitted.load(std::memory_order_relaxed);
    per.executed = s->executed.load(std::memory_order_relaxed);
    per.dropped_quanta = s->dropped_quanta.load(std::memory_order_relaxed);
    per.deadline_misses =
        s->deadline_misses.load(std::memory_order_relaxed);
    per.suspended_quanta =
        s->suspended_quanta.load(std::memory_order_relaxed);
    per.shed_levels = s->shed_levels.load(std::memory_order_relaxed);
    per.partial_quanta = s->partial_quanta.load(std::memory_order_relaxed);
    per.refined_quanta = s->refined_quanta.load(std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(s->exec_mu());
      const core::KernelStats& k = s->kernel().stats();
      per.touch_events = k.touch_events;
      per.entries_returned = k.entries_returned;
      per.rows_scanned = k.rows_scanned;
    }
    if (per.submitted > 0) {
      executed_per_session.push_back(per.executed);
    }
    snapshot.per_session.emplace(s->id(), per);
  }
  snapshot.fairness = JainFairness(executed_per_session);
  return snapshot;
}

}  // namespace dbtouch::server
