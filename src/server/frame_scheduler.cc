#include "server/frame_scheduler.h"

#include <chrono>

namespace dbtouch::server {

sim::Micros SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void FrameScheduler::Push(TouchTask task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queues_[task.session_id].push_back(std::move(task));
  }
  cv_.notify_all();
}

void FrameScheduler::PushFront(TouchTask task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queues_[task.session_id].push_front(std::move(task));
  }
  cv_.notify_all();
}

std::optional<TouchTask> FrameScheduler::PopRunnable() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) {
      return std::nullopt;
    }
    const sim::Micros now = SteadyNowUs();
    std::map<std::int64_t, std::deque<TouchTask>>::iterator best =
        queues_.end();
    sim::Micros next_release = 0;
    bool have_next_release = false;
    for (auto it = queues_.begin(); it != queues_.end();) {
      // Garbage-collect drained queues (Push recreates them on demand) so
      // session churn never grows this scan. Busy sessions keep theirs —
      // their worker is about to call OnTaskDone anyway. Parked sessions
      // always have a head task (the suspended quantum), so they are
      // never collected here.
      if (it->second.empty() && busy_.count(it->first) == 0 &&
          parked_.count(it->first) == 0) {
        it = queues_.erase(it);
        continue;
      }
      if (it->second.empty() || busy_.count(it->first) > 0 ||
          parked_.count(it->first) > 0) {
        ++it;
        continue;
      }
      const TouchTask& head = it->second.front();
      if (head.release_us > now) {
        if (!have_next_release || head.release_us < next_release) {
          next_release = head.release_us;
          have_next_release = true;
        }
      } else if (best == queues_.end() ||
                 head.deadline_us < best->second.front().deadline_us) {
        best = it;
      }
      ++it;
    }
    if (best != queues_.end()) {
      TouchTask task = std::move(best->second.front());
      best->second.pop_front();
      busy_.insert(task.session_id);
      if (trace_ != nullptr) {
        trace_->Record(obs::SpanStage::kDispatched, task.quantum_id,
                       task.session_id, task.resume ? 1 : 0);
      }
      return task;
    }
    if (have_next_release) {
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

void FrameScheduler::OnTaskDone(std::int64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    busy_.erase(session_id);
  }
  cv_.notify_all();
}

void FrameScheduler::ParkForFetch(TouchTask task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t session = task.session_id;
    task.resume = true;
    if (trace_ != nullptr) {
      trace_->Record(obs::SpanStage::kParked, task.quantum_id, session);
    }
    queues_[session].push_front(std::move(task));
    parked_.insert(session);
    busy_.erase(session);
  }
  // The freed worker should look for other sessions' work right away.
  cv_.notify_all();
}

void FrameScheduler::Unpark(std::int64_t session_id) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (parked_.erase(session_id) == 0) {
      return;
    }
    if (trace_ != nullptr) {
      // The parked quantum sits at the head of its session queue.
      const auto it = queues_.find(session_id);
      const std::int64_t quantum =
          it != queues_.end() && !it->second.empty()
              ? it->second.front().quantum_id
              : 0;
      trace_->Record(obs::SpanStage::kUnparked, quantum, session_id);
    }
  }
  cv_.notify_all();
}

std::size_t FrameScheduler::parked() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

std::size_t FrameScheduler::DropSession(std::int64_t session_id) {
  std::size_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = queues_.find(session_id);
    if (it != queues_.end()) {
      dropped = it->second.size();
      queues_.erase(it);
    }
    parked_.erase(session_id);
  }
  cv_.notify_all();
  return dropped;
}

std::size_t FrameScheduler::PendingOf(std::int64_t session_id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = queues_.find(session_id);
  return it == queues_.end() ? 0 : it->second.size();
}

std::size_t FrameScheduler::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [id, queue] : queues_) {
    total += queue.size();
  }
  return total;
}

bool FrameScheduler::IdleLocked() const {
  if (!busy_.empty()) {
    return false;
  }
  for (const auto& [id, queue] : queues_) {
    if (!queue.empty()) {
      return false;
    }
  }
  return true;
}

void FrameScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return shutdown_ || IdleLocked(); });
}

void FrameScheduler::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

void FrameScheduler::Restart() {
  const std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  queues_.clear();
  busy_.clear();
  parked_.clear();
}

bool FrameScheduler::PushIfUnder(TouchTask task, std::size_t bound) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::deque<TouchTask>& queue = queues_[task.session_id];
    if (queue.size() >= bound) {
      return false;
    }
    queue.push_back(std::move(task));
  }
  cv_.notify_all();
  return true;
}

}  // namespace dbtouch::server
