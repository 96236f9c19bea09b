// The dbTouch kernel: the per-touch pipeline of paper Figure 3.
//
//   Operating system (sim):  recognise touch
//   Gesture layer:           recognise gesture
//   dbTouch:                 map touch to data, execute
//
// "This flow is not per query as it is in database systems; instead,
// dbTouch goes through these steps for every touch input on a data
// object." The kernel owns the per-user half of the system: the view
// hierarchy, per-object operator state, the result stream and the session
// tracker. The data half — catalog, sample hierarchies, base zone maps —
// lives in a SharedState that many kernels may share (one per connected
// session in the touch server); a kernel constructed without one gets a
// private SharedState and behaves exactly like the paper's single-user
// system. It is the public API of the library: examples and benchmarks
// drive everything through it.
//
// Thread-safety: one kernel serves one session and is not internally
// synchronised — the touch server serialises each session's touches.
// Kernels sharing a SharedState may run on different threads because all
// shared artefacts are immutable after construction: a column object's
// sample hierarchy holds its own level copies, built whole when the object
// is created, and its base zone map is built when SetAction asks for one,
// so neither ever reads the table again, whatever a reclaim or a layout
// rotation does to it later.

#ifndef DBTOUCH_CORE_KERNEL_H_
#define DBTOUCH_CORE_KERNEL_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/buffer_manager.h"
#include "cache/hash_table_cache.h"
#include "common/result.h"
#include "common/status.h"
#include "core/action.h"
#include "core/result_stream.h"
#include "core/session.h"
#include "core/shared_state.h"
#include "exec/groupby.h"
#include "exec/join.h"
#include "gesture/recognizer.h"
#include "layout/rotation.h"
#include "sampling/level_policy.h"
#include "sampling/sample_hierarchy.h"
#include "sim/touch_device.h"
#include "sim/touch_event.h"
#include "sim/virtual_clock.h"
#include "storage/catalog.h"
#include "touch/data_object_view.h"
#include "touch/touch_mapper.h"
#include "touch/view.h"

namespace dbtouch::obs {
class TraceRecorder;
}  // namespace dbtouch::obs

namespace dbtouch::core {

struct KernelConfig {
  sim::TouchDeviceConfig device;
  gesture::RecognizerConfig recognizer;
  sampling::SampleHierarchyConfig sampling;
  sampling::LevelPolicyConfig level_policy;
  /// Feed from the sample hierarchy level matching object size and gesture
  /// speed (paper Section 2.6). Off = always read base data; the
  /// ABL-SAMPLE benchmark flips this.
  bool use_sampling = true;
  /// Zoom clamp for pinch gestures (cm per axis).
  double zoom_min_extent_cm = 1.0;
  double zoom_max_extent_cm = 25.0;
  /// Hard bound on entries read for one touch — the paper's "maximum
  /// possible wait time for a single touch regardless of the query and the
  /// data sizes" (Section 4). Summary bands truncate to it.
  std::int64_t max_rows_per_touch = 1'000'000;
  /// Rows converted per touch while an incremental layout rotation is in
  /// flight (Section 2.8: "changing the layout can be done in steps").
  std::int64_t rotation_rows_per_step = 65'536;
  /// Rotation gestures beyond this angle trigger the layout change.
  double rotation_trigger_rad = 0.8;
  /// Idle gap that splits query sessions.
  sim::Micros session_idle_gap_us = 3'000'000;
  /// Buffer pool that data objects read base data through:
  /// block-at-a-time pinned reads under the pool's byte budget, with
  /// gesture-aware admission. Applies to this kernel's private
  /// SharedState; when a SharedState is passed in (the touch server),
  /// that state's pool — and its budget — win.
  cache::BufferManagerConfig buffer;
  /// Prefetch along the extrapolated slide path (Section 2.6): slide
  /// steps over a slow-tier column enqueue low-priority warm-up fetches
  /// for the blocks the finger is predicted to reach within the horizon.
  bool prefetch_enabled = true;
};

struct KernelStats {
  std::int64_t touch_events = 0;
  std::int64_t gesture_events = 0;
  std::int64_t taps = 0;
  std::int64_t slide_steps = 0;
  std::int64_t pinch_steps = 0;
  std::int64_t rotate_steps = 0;
  std::int64_t entries_returned = 0;
  std::int64_t rows_scanned = 0;
  /// Touches answered "no match possible" from the zone map alone,
  /// without reading the data.
  std::int64_t rows_pruned = 0;
  std::int64_t layout_rotations = 0;
  /// EnableJoin calls served with previously built hash tables from the
  /// session's HashTableCache (Section 2.9: "caching of hash tables ...
  /// can enhance future queries").
  std::int64_t join_cache_hits = 0;
  /// Cold-fault path: suspensions on blocks a slow tier had not delivered
  /// (under OnTouch, one per wait round), gesture executions shed because
  /// a backing-store read failed past its bounded retries, and warm-up
  /// fetches requested along the extrapolated slide path.
  std::int64_t suspensions = 0;
  std::int64_t fetch_errors = 0;
  std::int64_t prefetch_requests = 0;
  /// Partial-answer path (Section 4's fidelity-for-latency trade): quanta
  /// answered coarsely from the resident sample level at deadline
  /// pressure, and refinement executions that later replaced those
  /// answers with full-fidelity results.
  std::int64_t partial_answers = 0;
  std::int64_t refinements = 0;
};

struct ObjectStats {
  std::int64_t touches = 0;
  std::int64_t entries_returned = 0;
  std::int64_t rows_scanned = 0;
  int last_level_used = 0;
};

/// Outcome of feeding one touch quantum through OnTouchAsync.
enum class TouchOutcome {
  kCompleted,  // All gesture work for the touch executed.
  kSuspended,  // Waiting on cold blocks; see the TouchStall.
};

/// Outcome of one RefineNext attempt.
enum class RefineOutcome {
  kIdle,       // No refinement queued.
  kRefined,    // Head refinement executed at full fidelity.
  kStillCold,  // Needed blocks still missing; `stall` filled.
};

/// What a suspended quantum waits on: blocks the slow tiers have not
/// delivered, grouped per paged source. A fat-table tuple probe that
/// misses on several attributes reports them all in ONE stall (one
/// suspend/resume round trip, one fetch ticket) instead of suspending per
/// attribute; sources sharing a block namespace (PAX columns of one
/// table) are deduplicated into a single entry. The caller starts every
/// entry's fetches (entry.source->StartFetch) and calls ResumePending
/// once all complete.
struct TouchStall {
  struct Entry {
    std::shared_ptr<storage::PagedColumnSource> source;
    std::vector<std::int64_t> blocks;
  };
  std::vector<Entry> entries;

  std::int64_t total_blocks() const {
    std::int64_t n = 0;
    for (const Entry& e : entries) {
      n += static_cast<std::int64_t>(e.blocks.size());
    }
    return n;
  }
};

class Kernel {
 public:
  /// `shared`: the data context this kernel explores. Omitted (nullptr), a
  /// private SharedState is created from `config.sampling` — the classic
  /// single-user setup. The touch server passes one SharedState to every
  /// session's kernel.
  explicit Kernel(const KernelConfig& config = {},
                  std::shared_ptr<SharedState> shared = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- Catalog & data objects -------------------------------------------

  storage::Catalog& catalog() { return shared_->catalog(); }
  const sim::TouchDevice& device() const { return device_; }
  sim::VirtualClock& clock() { return clock_; }
  const KernelConfig& config() const { return config_; }
  const std::shared_ptr<SharedState>& shared_state() const {
    return shared_;
  }

  /// Registers a table and is the usual way data enters the kernel.
  Status RegisterTable(std::shared_ptr<storage::Table> table);

  /// Creates a column-shaped data object bound to `table.column`, placed
  /// at `frame` on screen. Builds its sample hierarchy (or shares the one
  /// built) and binds one buffer-pool source to the column. The frame
  /// needs a finite origin and a finite, positive width and height of at
  /// most 1,000 cm (InvalidArgument otherwise); a hierarchy build that
  /// cannot read the column is this call's error.
  Result<ObjectId> CreateColumnObject(const std::string& table,
                                      const std::string& column,
                                      const touch::RectCm& frame);

  /// Creates a fat-rectangle table object bound to the whole table: one
  /// buffer-pool source per attribute. Same frame check as a column
  /// object.
  Result<ObjectId> CreateTableObject(const std::string& table,
                                     const touch::RectCm& frame);

  Status DestroyObject(ObjectId id);

  /// The object's view (frame, orientation, ...). Borrowed pointer, owned
  /// by the kernel's view hierarchy.
  Result<touch::DataObjectView*> object_view(ObjectId id);

  /// Ids of all live data objects, in creation order.
  std::vector<ObjectId> ListObjects() const;

  /// Sets what gestures on the object compute. Resets per-object operator
  /// state (a new choice of action starts a new logical query). A
  /// filtered scan with `use_zone_map` on a column object binds the base
  /// zone map here; a map that cannot be built is the returned error, and
  /// the object keeps its previous action.
  Status SetAction(ObjectId id, const ActionConfig& action);

  /// Declares a slide-driven join between the bound columns of two column
  /// objects. Sliding over either feeds that side; matches stream out as
  /// results (Section 2.9).
  Status EnableJoin(ObjectId left, ObjectId right);

  // ---- The OS feed -------------------------------------------------------

  /// The per-touch pipeline. Advances the virtual clock to the event's
  /// timestamp, recognises gestures, maps and executes; returns once every
  /// gesture the touch completed has executed or been shed. It is
  /// OnTouchAsync plus the touch server's fetch cycle run inline: while
  /// the touch is suspended, the stalled blocks are started on the fetch
  /// queue (StartFetch) and this thread waits for their completions; a
  /// fetch that failed past its retries sheds the stalled gesture
  /// (AbandonPending, counted in stats().fetch_errors); then
  /// ResumePending. Each wait round counts one stats().suspensions.
  /// Sources that cannot block (in-memory tiers) never suspend, so over
  /// them this is a straight execution.
  void OnTouch(const sim::TouchEvent& event);

  /// Suspendable variant of OnTouch for callers that run the fetch cycle
  /// themselves (the touch server). The recognizer consumes the event
  /// either way; gesture work that needs blocks a slow tier has not
  /// delivered parks in the kernel's pending queue, and kSuspended is
  /// returned with the blocks to fetch in `stall` (which must not be
  /// null). The caller starts the fetches and, when they complete,
  /// re-enters via ResumePending — which may suspend again (the next
  /// gesture misses on other blocks) or complete.
  TouchOutcome OnTouchAsync(const sim::TouchEvent& event, TouchStall* stall);

  /// Re-attempts gesture work parked by a previous kSuspended outcome.
  TouchOutcome ResumePending(TouchStall* stall);

  /// Gesture work parked behind a cold fetch (a kSuspended not yet
  /// resumed to completion).
  bool has_pending_gestures() const {
    return pending_head_ < pending_gestures_.size();
  }

  /// Sheds the gesture stalled at the head of the pending queue (and its
  /// probe pins) — the escape hatch when its fetch fails permanently.
  /// Gestures queued behind it remain; call ResumePending to continue
  /// with them. Recognizer state is unaffected (it already consumed the
  /// touches); only the stalled execution is shed (counted as a kernel
  /// fetch error).
  void AbandonPending();

  // ---- Partial answers & progressive refinement (Section 4) --------------

  /// Deadline escape hatch: answers the gesture stalled at the head of the
  /// pending queue immediately from sample level 1, the finest copy, which
  /// is in memory and never faults; emits the result with partial = true /
  /// refine_seq = 0, and queues a refinement that will re-execute the same
  /// touch at full fidelity once its blocks land. Returns false — leaving
  /// the pending queue untouched, so the caller parks classically — when
  /// the stalled gesture is not eligible: only stateless actions (plain
  /// scans and summaries) on non-joined column objects whose hierarchy
  /// has a level 1 can be re-executed bit-identically later.
  bool AnswerPartialFromResident();

  /// Executes the oldest queued refinement whose object is still alive.
  /// kRefined: full-fidelity results appended, tagged with the attempt's
  /// refine_seq. kStillCold: blocks are still missing — `stall` names
  /// them; the caller fetches and retries. kIdle: nothing queued.
  RefineOutcome RefineNext(TouchStall* stall);

  /// Refinements queued behind partial answers not yet refined.
  bool has_refinements() const { return !refinements_.empty(); }

  /// Drops the head refinement (its fetch failed permanently); counted as
  /// a kernel fetch error. The partial answer stays the final answer.
  void AbandonRefinement();

  /// Feeds a whole trace through OnTouch.
  void Replay(const sim::GestureTrace& trace);

  // ---- Results & introspection -------------------------------------------

  ResultStream& results() { return results_; }
  const KernelStats& stats() const { return stats_; }
  Result<const ObjectStats*> object_stats(ObjectId id) const;

  SessionTracker& sessions() { return sessions_; }

  /// Whether an incremental layout rotation is still converting.
  Result<bool> rotation_in_progress(ObjectId id) const;

  /// Drives background maintenance (pending rotation steps) without user
  /// input, e.g. while the device is idle.
  void PumpMaintenance();

  /// Load shedding hook for the touch server's frame scheduler: summary
  /// reads drop `levels` extra sample levels until reset to 0. Precision
  /// degrades, per-touch cost shrinks — the paper's speed/precision trade,
  /// driven by server load instead of gesture speed.
  void set_shed_levels(int levels) {
    config_.level_policy.shed_levels = levels;
  }
  int shed_levels() const { return config_.level_policy.shed_levels; }

  /// Trace hook for the touch server: the suspend transition inside
  /// DrainPending is recorded (stage kSuspended, a = first missing block,
  /// b = block count) against `session_tag` and the quantum last named by
  /// set_trace_quantum. Null recorder = off (the single-user paths never
  /// set one). Call under the session's execution lock, like everything
  /// else on a kernel.
  void set_trace_recorder(obs::TraceRecorder* recorder,
                          std::int64_t session_tag) {
    trace_ = recorder;
    trace_session_ = session_tag;
  }
  /// Names the quantum the next OnTouchAsync/ResumePending runs for.
  void set_trace_quantum(std::int64_t quantum) { trace_quantum_ = quantum; }

 private:
  struct ObjectState;
  struct GestureReads;

  void OnGesture(const gesture::GestureEvent& event);
  /// Drops the head of the pending FIFO (which must be non-empty).
  void PopPending();
  /// Executes queued gesture events in order. Before each one, probes that
  /// the blocks its execution reads are resident (pinning them so they
  /// stay put); a miss suspends the drain. A probe whose pin fails sheds
  /// that gesture and counts a fetch error.
  TouchOutcome DrainPending(TouchStall* stall);
  /// True = ready (needed blocks pinned in probe_pins_); false = `stall`
  /// filled with the missing blocks. Error = the pin failed.
  Result<bool> ProbeGesture(const gesture::GestureEvent& event,
                            TouchStall* stall);
  /// ProbeGesture for a resolved target (RefineNext calls it directly):
  /// try-pins every block ReadsOf names. An object none of whose sources
  /// can block right now is ready at once. That is asked per probe, since
  /// a reclaim can turn a column async under an object.
  /// Every attribute is probed even after one misses, so a
  /// multi-attribute stall carries all the cold blocks in one TouchStall;
  /// already-probed attributes stay pinned across the resume.
  Result<bool> ProbeObject(ObjectState* obj,
                           const gesture::GestureEvent& event,
                           TouchStall* stall);
  /// The base rows and attributes `event`'s execution on `obj` reads: a
  /// tap reads every attribute of the object at the touched row; a slide
  /// the attribute(s) its action reads; a summary its level-0 band, or
  /// nothing when a sample level serves it.
  GestureReads ReadsOf(const ObjectState& obj,
                       const gesture::GestureEvent& event) const;
  /// Try-pins `source`'s blocks covering base rows [first, last] into
  /// probe_pins_, reporting the misses in `stall`.
  Result<bool> ProbeBlocks(
      const std::shared_ptr<storage::PagedColumnSource>& source,
      storage::RowId first, storage::RowId last, TouchStall* stall);
  /// Creates one pool source and working cursor per attribute the object
  /// shows, from SharedState::GetColumnSource, when the object is
  /// created. They read the column's binding, so they stay valid through
  /// every spill, reclaim or provider change.
  Status BindSources(ObjectState* obj);
  /// Half-width (base rows) of the summary band at level 0 — shared by
  /// execution and the residency probe so they can never diverge.
  std::int64_t SummaryBandK(const ObjectState& obj) const;
  /// Observes the slide for the object's extrapolator and requests
  /// low-priority warm-up fetches of the touched attribute along the
  /// predicted path.
  void MaybePrefetch(ObjectState* obj, const touch::TouchMapping& mapping,
                     const gesture::GestureEvent& event);
  void HandleTap(const gesture::GestureEvent& event, ObjectState* obj);
  void HandleSlideStep(const gesture::GestureEvent& event, ObjectState* obj);
  void HandlePinchStep(const gesture::GestureEvent& event, ObjectState* obj);
  void HandleRotate(const gesture::GestureEvent& event, ObjectState* obj);
  /// Swaps `obj`'s completed rotation into its table.
  void FinishRotation(ObjectState* obj);

  /// Executes the object's action for the touch mapped to `mapping`,
  /// appending results. Returns entries returned.
  std::int64_t ExecuteAction(ObjectState* obj,
                             const touch::TouchMapping& mapping,
                             const gesture::GestureEvent& event);

  /// Chooses the sample level for this slide step.
  int ChooseLevelFor(const ObjectState& obj,
                     const gesture::GestureEvent& event) const;

  ObjectState* FindObjectAt(const sim::PointCm& screen_point);
  ObjectState* FindObjectByView(const touch::View* view);

  sim::PointCm ResultPosition(const ObjectState& obj,
                              const sim::PointCm& screen_touch) const;

  KernelConfig config_;
  sim::TouchDevice device_;
  sim::VirtualClock clock_;
  gesture::GestureRecognizer recognizer_;
  std::shared_ptr<SharedState> shared_;
  touch::View root_view_;
  ResultStream results_;
  SessionTracker sessions_;
  KernelStats stats_;

  std::map<ObjectId, std::unique_ptr<ObjectState>> objects_;
  ObjectId next_object_id_ = 1;
  /// Object locked as the target while a gesture is in flight.
  ObjectState* gesture_target_ = nullptr;
  /// Cumulative pinch scale already applied to the target this gesture.
  double applied_pinch_scale_ = 1.0;
  /// Joins: each entry links two objects to a shared live join.
  struct JoinBinding {
    ObjectId left;
    ObjectId right;
    std::shared_ptr<exec::SymmetricHashJoin> join;
  };
  std::vector<JoinBinding> joins_;
  /// Session-scoped hash-table cache: re-enabling a join over the same
  /// columns resumes with all previously fed tuples (Section 2.9). Keyed
  /// by join identity; per session because SymmetricHashJoin is not
  /// internally synchronised.
  cache::HashTableCache join_cache_{8};
  /// Table identity pins for cached joins: a name re-registered with new
  /// data must miss, and the cached join's column views must not dangle.
  std::map<std::string,
           std::pair<std::shared_ptr<storage::Table>,
                     std::shared_ptr<storage::Table>>>
      join_cache_tables_;
  /// Span recorder wired by the touch server (null in single-user use)
  /// and the tags its suspend records carry.
  obs::TraceRecorder* trace_ = nullptr;
  std::int64_t trace_session_ = 0;
  std::int64_t trace_quantum_ = 0;
  /// Gesture events recognised but not yet executed, a FIFO from
  /// pending_head_ on: the recogniser appends to it, execution pops the
  /// head, and once drained it clears itself and keeps its capacity, so a
  /// steady slide step allocates nothing. It outlives a touch only while
  /// suspended on a cold fetch (execution order is gesture order, so
  /// everything behind the stalled event waits with it).
  std::vector<gesture::GestureEvent> pending_gestures_;
  std::size_t pending_head_ = 0;
  /// Touches answered partially and awaiting full-fidelity re-execution.
  /// seq counts refinement attempts for the touch (the emitted partial
  /// item carries 0; each retry bumps it).
  struct PendingRefinement {
    gesture::GestureEvent event;
    ObjectId object = 0;
    std::int64_t seq = 0;
  };
  std::deque<PendingRefinement> refinements_;
  /// Pins taken by the residency probe; held through the gesture's
  /// execution (the probed blocks cannot evict mid-touch) and dropped
  /// after it. Declared last: pins reference sources owned by objects_.
  std::vector<storage::BlockPin> probe_pins_;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_KERNEL_H_
