#include "gateway/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/action.h"
#include "gateway/client.h"
#include "server/frame_scheduler.h"
#include "sim/motion_profile.h"
#include "sim/touch_event.h"
#include "sim/trace_builder.h"

namespace dbtouch::gateway {

namespace {

using server::SteadyNowUs;

struct SessionPlan {
  Client client;
  api::SessionId session = 0;
  api::ObjectId object = 0;
  /// (send offset on the shared epoch, batch) — offsets are strictly
  /// increasing within a session.
  std::vector<std::pair<sim::Micros, api::SubmitBatchReq>> batches;
};

/// One send slot on a thread's merged schedule.
struct SendSlot {
  sim::Micros at_us = 0;
  std::uint32_t session_index = 0;
  std::uint32_t batch_index = 0;
};

api::WireAction ActionForSession(int index) {
  api::WireAction action;
  if (index % 2 == 0) {
    action.kind = static_cast<std::uint8_t>(core::ActionKind::kSummary);
    action.agg = 2;  // exec::AggKind::kAvg
    action.summary_k = 64;
  } else {
    action.kind = static_cast<std::uint8_t>(core::ActionKind::kScan);
  }
  return action;
}

/// Builds one session's paced timeline: `gestures` vertical slides over
/// the object frame with think-time gaps, cut into batches of
/// `batch_interval_us` of timeline each.
std::vector<std::pair<sim::Micros, api::SubmitBatchReq>> BuildBatches(
    const ReplayConfig& config, const sim::TouchDevice& device,
    api::SessionId session, const api::WireRect& frame, Rng& rng) {
  sim::TraceBuilder builder(device);
  std::vector<sim::TouchEvent> events;
  sim::Micros t = 0;
  for (int g = 0; g < config.gestures_per_session; ++g) {
    double duration_s = rng.NextDouble(config.slide_min_s, config.slide_max_s);
    // Vertical slide through the column at a random x lane; direction
    // alternates like a user scrubbing up and down.
    double x = frame.x + rng.NextDouble(0.2, 0.8) * frame.width;
    double y0 = frame.y + rng.NextDouble(0.0, 0.25) * frame.height;
    double y1 = frame.y + rng.NextDouble(0.75, 1.0) * frame.height;
    if (g % 2 == 1) std::swap(y0, y1);
    sim::GestureTrace trace = builder.Slide(
        "replay", sim::PointCm{x, y0}, sim::PointCm{x, y1},
        sim::MotionProfile::Constant(duration_s), t);
    events.insert(events.end(), trace.events.begin(), trace.events.end());
    t = trace.duration_us() +
        static_cast<sim::Micros>(
            rng.NextDouble(config.think_min_s, config.think_max_s) * 1e6);
  }

  const sim::Micros interval = config.batch_interval_us > 0
                                   ? config.batch_interval_us
                                   : device.event_interval_us();
  std::vector<std::pair<sim::Micros, api::SubmitBatchReq>> batches;
  std::size_t i = 0;
  while (i < events.size()) {
    const sim::Micros slot =
        (events[i].timestamp_us / interval) * interval;
    api::SubmitBatchReq req;
    req.session = session;
    req.paced = config.paced;
    while (i < events.size() &&
           events[i].timestamp_us < slot + interval) {
      req.events.push_back(api::ToWire(events[i]));
      ++i;
    }
    // Send when the slot's events have all "happened" on the session
    // timeline — the batch for display frame k leaves at the start of
    // frame k+1, like a real client flushing once per frame.
    batches.emplace_back(slot + interval, std::move(req));
  }
  return batches;
}

}  // namespace

ReplayHarness::ReplayHarness(ReplayConfig config)
    : config_(std::move(config)) {
  if (config_.threads < 1) config_.threads = 1;
  if (config_.sessions < 1) config_.sessions = 1;
  if (config_.threads > config_.sessions) config_.threads = config_.sessions;
}

Result<ReplayResult> ReplayHarness::Run() {
  const int num_threads = config_.threads;
  const int num_sessions = config_.sessions;
  sim::TouchDevice device(config_.device);

  std::atomic<std::int64_t> batches_sent{0};
  std::atomic<std::int64_t> events_sent{0};
  std::atomic<std::int64_t> events_accepted{0};
  std::atomic<std::int64_t> events_rejected{0};
  std::atomic<std::int64_t> errors{0};
  std::atomic<std::int64_t> snapshot_results{0};
  // One histogram per sender thread (a histogram has one writer), added
  // up after the join.
  const auto senders = static_cast<std::size_t>(num_threads);
  std::vector<obs::Histogram> ack_rtt_us(senders);
  std::vector<obs::Histogram> send_lag_us(senders);

  std::latch setup_done(num_threads);
  std::latch start_replay(1);
  std::latch replay_done(num_threads);
  std::latch start_teardown(1);
  std::atomic<sim::Micros> epoch{0};

  auto worker = [&](int thread_index) {
    // Interleaved slice: thread k owns sessions k, k+T, k+2T, ... so the
    // send schedules of a thread's sessions stay spread in time.
    std::vector<SessionPlan> plans;
    for (int s = thread_index; s < num_sessions; s += num_threads) {
      Rng rng(config_.seed * 0x9e3779b97f4a7c15ull + s);
      SessionPlan plan;
      if (!plan.client.Connect(config_.host, config_.port).ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      auto open = plan.client.OpenSession();
      if (!open.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      plan.session = open->session;
      api::CreateObjectReq create;
      create.session = plan.session;
      create.kind = 0;
      create.table = config_.table;
      create.column = config_.column;
      create.frame = api::WireRect{1.0, 1.0, 6.0, 12.0};
      auto object = plan.client.CreateObject(create);
      if (!object.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      plan.object = object->object;
      api::SetActionReq set;
      set.session = plan.session;
      set.object = plan.object;
      set.action = ActionForSession(s);
      if (!plan.client.SetAction(set).ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      plan.batches =
          BuildBatches(config_, device, plan.session, create.frame, rng);
      plans.push_back(std::move(plan));
    }

    // Merge the slice's per-session schedules into one ordered send list.
    std::vector<SendSlot> schedule;
    for (std::uint32_t p = 0; p < plans.size(); ++p) {
      for (std::uint32_t b = 0; b < plans[p].batches.size(); ++b) {
        schedule.push_back(SendSlot{plans[p].batches[b].first, p, b});
      }
    }
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const SendSlot& a, const SendSlot& b) {
                       return a.at_us < b.at_us;
                     });

    const auto sender = static_cast<std::size_t>(thread_index);
    obs::Histogram& ack_rtt = ack_rtt_us[sender];
    obs::Histogram& send_lag = send_lag_us[sender];
    setup_done.count_down();
    start_replay.wait();
    const sim::Micros t0 = epoch.load(std::memory_order_acquire);

    for (const SendSlot& slot : schedule) {
      SessionPlan& plan = plans[slot.session_index];
      if (!plan.client.connected()) continue;
      if (config_.pace_sends) {
        const sim::Micros due = t0 + slot.at_us;
        sim::Micros now = SteadyNowUs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::microseconds(due - now));
          now = SteadyNowUs();
        }
        send_lag.Record(now > due ? now - due : 0);
      }
      api::SubmitBatchReq& req = plan.batches[slot.batch_index].second;
      const sim::Micros before = SteadyNowUs();
      auto resp = plan.client.SubmitBatch(req);
      const sim::Micros after = SteadyNowUs();
      if (!resp.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        plan.client.Close();
        continue;
      }
      ack_rtt.Record(after - before);
      batches_sent.fetch_add(1, std::memory_order_relaxed);
      events_sent.fetch_add(static_cast<std::int64_t>(req.events.size()),
                            std::memory_order_relaxed);
      events_accepted.fetch_add(resp->accepted, std::memory_order_relaxed);
      events_rejected.fetch_add(resp->rejected, std::memory_order_relaxed);
    }

    replay_done.count_down();
    start_teardown.wait();

    for (SessionPlan& plan : plans) {
      if (!plan.client.connected()) continue;
      if (config_.snapshot_tail > 0) {
        api::SessionSnapshotReq req;
        req.session = plan.session;
        req.max_results = config_.snapshot_tail;
        auto snap = plan.client.SessionSnapshot(req);
        if (snap.ok()) {
          snapshot_results.fetch_add(snap->result_count,
                                     std::memory_order_relaxed);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (!plan.client.CloseSession(plan.session).ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      plan.client.Close();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) threads.emplace_back(worker, i);

  setup_done.wait();
  const sim::Micros t0 = SteadyNowUs();
  epoch.store(t0, std::memory_order_release);
  start_replay.count_down();
  replay_done.wait();
  const double replay_wall_s = (SteadyNowUs() - t0) / 1e6;

  // Drain over the wire, then read the server's roll-up before the
  // teardown phase closes sessions (closing drops nothing once idle).
  ReplayResult result;
  {
    Client observer;
    Status st = observer.Connect(config_.host, config_.port);
    if (st.ok()) st = observer.WaitIdle();
    if (st.ok()) {
      auto stats = observer.Stats();
      if (stats.ok()) {
        result.server_stats = *stats;
      } else {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
  }
  start_teardown.count_down();
  for (auto& thread : threads) thread.join();

  result.sessions = num_sessions;
  result.batches_sent = batches_sent.load();
  result.events_sent = events_sent.load();
  result.events_accepted = events_accepted.load();
  result.events_rejected = events_rejected.load();
  result.errors = errors.load();
  result.snapshot_results = snapshot_results.load();
  for (std::size_t i = 0; i < senders; ++i) {
    result.ack_rtt_us.Add(ack_rtt_us[i].Snapshot());
    result.send_lag_us.Add(send_lag_us[i].Snapshot());
  }
  result.replay_wall_s = replay_wall_s;
  return result;
}

}  // namespace dbtouch::gateway
