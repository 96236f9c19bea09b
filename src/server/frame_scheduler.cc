#include "server/frame_scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace dbtouch::server {

sim::Micros SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- SessionRecord: one session's FIFO --------------------------------------

void FrameScheduler::SessionRecord::SyncHead() {
  head_release_us = tasks[head].release_us;
  head_deadline_us = tasks[head].deadline_us;
}

void FrameScheduler::SessionRecord::PushBack(TouchTask task) {
  if (head > 0 && tasks.size() == tasks.capacity() &&
      2 * head >= tasks.size()) {
    // Reclaim the popped prefix instead of growing. It is at least half
    // the vector, so each reclaim moves no more tasks than were popped
    // since the last one, and a session that never drains still holds at
    // most four times its longest queue.
    tasks.erase(tasks.begin(),
                tasks.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
  tasks.push_back(std::move(task));
  if (size() == 1) {
    SyncHead();
  }
}

void FrameScheduler::SessionRecord::PushFront(TouchTask task) {
  if (head > 0) {
    tasks[--head] = std::move(task);
  } else {
    tasks.insert(tasks.begin(), std::move(task));
  }
  SyncHead();
}

TouchTask FrameScheduler::SessionRecord::PopFront() {
  TouchTask task = std::move(tasks[head++]);
  if (head == tasks.size()) {
    tasks.clear();
    head = 0;
  } else {
    SyncHead();
  }
  return task;
}

// ---- FrameScheduler ---------------------------------------------------------

FrameScheduler::SessionRecord* FrameScheduler::FindLocked(
    std::int64_t session_id) {
  for (SessionRecord& record : records_) {
    if (record.id == session_id) {
      return &record;
    }
  }
  return nullptr;
}

const FrameScheduler::SessionRecord* FrameScheduler::FindLocked(
    std::int64_t session_id) const {
  return const_cast<FrameScheduler*>(this)->FindLocked(session_id);
}

FrameScheduler::SessionRecord& FrameScheduler::RecordLocked(
    std::int64_t session_id) {
  if (SessionRecord* record = FindLocked(session_id)) {
    return *record;
  }
  SessionRecord& record = records_.emplace_back();
  record.id = session_id;
  return record;
}

void FrameScheduler::Push(TouchTask task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    RecordLocked(task.session_id).PushBack(std::move(task));
    ++queued_;
  }
  cv_.notify_all();
}

void FrameScheduler::PushFront(TouchTask task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    RecordLocked(task.session_id).PushFront(std::move(task));
    ++queued_;
  }
  cv_.notify_all();
}

void FrameScheduler::PushBatch(std::vector<TouchTask>* frame,
                               std::size_t bound) {
  if (frame->empty()) {
    return;
  }
  const std::int64_t session_id = frame->front().session_id;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    SessionRecord& record = RecordLocked(session_id);
    if (record.size() == 0 && frame->size() <= bound) {
      // Nothing queued and nothing to reject: take the frame whole. The
      // caller gets the record's drained storage back and frees it
      // outside the lock.
      queued_ += frame->size();
      record.tasks.swap(*frame);
      record.head = 0;
      record.SyncHead();
    } else {
      // Same rule, quantum by quantum, as one-at-a-time admission would
      // apply: rejected quanta are compacted to the front of `*frame`.
      std::size_t rejected = 0;
      for (std::size_t i = 0; i < frame->size(); ++i) {
        TouchTask& task = (*frame)[i];
        if (task.droppable && record.size() >= bound) {
          if (rejected != i) {
            (*frame)[rejected] = std::move(task);
          }
          ++rejected;
        } else {
          record.PushBack(std::move(task));
          ++queued_;
        }
      }
      frame->resize(rejected);
    }
  }
  cv_.notify_all();
}

std::optional<TouchTask> FrameScheduler::PopRunnable() {
  return PopRunnable(std::nullopt, nullptr);
}

std::optional<TouchTask> FrameScheduler::PopRunnable(
    std::optional<std::int64_t> done_session, sim::Micros* now) {
  sim::Micros unseeded = -1;
  std::unique_lock<std::mutex> lock(mu_);
  if (done_session.has_value()) {
    MarkDoneLocked(*done_session);
  }
  return PopLocked(lock, now != nullptr ? now : &unseeded);
}

std::optional<TouchTask> FrameScheduler::PopLocked(
    std::unique_lock<std::mutex>& lock, sim::Micros* now_io) {
  constexpr sim::Micros kNoRelease = std::numeric_limits<sim::Micros>::max();
  for (;;) {
    if (shutdown_) {
      return std::nullopt;
    }
    const bool seeded = *now_io >= 0;
    if (!seeded) {
      *now_io = SteadyNowUs();
    }
    const sim::Micros now = *now_io;
    SessionRecord* best = nullptr;
    std::size_t runnable = 0;
    sim::Micros next_release = kNoRelease;
    for (std::size_t i = 0; i < records_.size();) {
      SessionRecord& record = records_[i];
      if (record.busy || record.parked) {
        // Busy records are re-armed by their worker; parked ones always
        // hold their suspended task, so neither is ever collected here.
        ++i;
        continue;
      }
      if (record.size() == 0) {
        // Collect drained records (the next push recreates them) so
        // session churn never grows this scan. The back record moves into
        // slot i; it is unscanned, so `best` (< i) stays valid.
        if (i + 1 != records_.size()) {
          record = std::move(records_.back());
        }
        records_.pop_back();
        continue;
      }
      if (record.head_release_us > now) {
        next_release = std::min(next_release, record.head_release_us);
      } else {
        ++runnable;
        if (best == nullptr ||
            record.head_deadline_us < best->head_deadline_us ||
            (record.head_deadline_us == best->head_deadline_us &&
             record.id < best->id)) {
          best = &record;
        }
      }
      ++i;
    }
    if (best != nullptr) {
      TouchTask task = best->PopFront();
      --queued_;
      best->busy = true;
      ++busy_;
      if (trace_ != nullptr) {
        trace_->Record(obs::SpanStage::kDispatched, task.quantum_id,
                       task.session_id, task.resume ? 1 : 0);
      }
      lock.unlock();
      if (runnable > 1 || next_release != kNoRelease) {
        // Work remains, runnable now or at a later release, and a fused
        // done may have made it eligible without a wake: waiting workers
        // rescan and either pop it or sleep until the earliest release.
        cv_.notify_all();
      }
      return task;
    }
    // Nothing runnable. A passed-in reading may predate a release that
    // has happened since: scan once more on a fresh one before sleeping
    // until that release.
    *now_io = -1;
    if (seeded && next_release != kNoRelease) {
      continue;
    }
    if (next_release != kNoRelease) {
      // Wake at the earliest head's exact release: release_us is on the
      // steady clock's own epoch (SteadyNowUs), so this deadline is the
      // release itself, with no slack added on top.
      cv_.wait_until(lock, std::chrono::steady_clock::time_point(
                               std::chrono::microseconds(next_release)));
    } else {
      cv_.wait(lock);
    }
  }
}

void FrameScheduler::MarkDoneLocked(std::int64_t session_id) {
  SessionRecord* record = FindLocked(session_id);
  if (record == nullptr || !record->busy) {
    return;
  }
  record->busy = false;
  --busy_;
  if (IdleLocked()) {
    idle_cv_.notify_all();
  }
}

void FrameScheduler::OnTaskDone(std::int64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    MarkDoneLocked(session_id);
  }
  cv_.notify_all();
}

void FrameScheduler::ParkForFetch(TouchTask task) {
  // No wake: parking makes nothing runnable, and the worker that parked
  // goes straight back to PopRunnable for other sessions' work.
  const std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t session = task.session_id;
  task.resume = true;
  if (trace_ != nullptr) {
    trace_->Record(obs::SpanStage::kParked, task.quantum_id, session);
  }
  SessionRecord& record = RecordLocked(session);
  record.PushFront(std::move(task));
  ++queued_;
  record.parked = true;
  if (record.busy) {
    record.busy = false;
    --busy_;
  }
}

void FrameScheduler::Unpark(std::int64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    SessionRecord* record = FindLocked(session_id);
    if (record == nullptr || !record->parked) {
      return;
    }
    record->parked = false;
    if (trace_ != nullptr) {
      // The parked quantum sits at the head of its session queue.
      const std::int64_t quantum =
          record->size() > 0 ? record->tasks[record->head].quantum_id : 0;
      trace_->Record(obs::SpanStage::kUnparked, quantum, session_id);
    }
  }
  cv_.notify_all();
}

std::size_t FrameScheduler::parked() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(records_.begin(), records_.end(),
                    [](const SessionRecord& r) { return r.parked; }));
}

std::size_t FrameScheduler::DropSession(std::int64_t session_id) {
  std::size_t dropped = 0;
  bool idle = false;
  // Destroyed after the lock is released: a dropped task may hold the
  // last reference to its session, and so to its kernel.
  std::vector<TouchTask> discarded;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    SessionRecord* record = FindLocked(session_id);
    if (record == nullptr) {
      return 0;
    }
    dropped = record->size();
    queued_ -= dropped;
    discarded.swap(record->tasks);
    record->head = 0;
    record->parked = false;
    // A busy record stays until its task is reported done; the scan
    // collects it after that.
    idle = IdleLocked();
  }
  if (idle) {
    idle_cv_.notify_all();
  }
  return dropped;
}

std::size_t FrameScheduler::PendingOf(std::int64_t session_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const SessionRecord* record = FindLocked(session_id);
  return record == nullptr ? 0 : record->size();
}

std::size_t FrameScheduler::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

void FrameScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return shutdown_ || IdleLocked(); });
}

void FrameScheduler::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  idle_cv_.notify_all();
}

void FrameScheduler::Restart() {
  std::vector<SessionRecord> discarded;  // Destroyed after the unlock.
  const std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  discarded.swap(records_);
  queued_ = 0;
  busy_ = 0;
}

}  // namespace dbtouch::server
