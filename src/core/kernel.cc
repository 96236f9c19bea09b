#include "core/kernel.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>

#include "common/logging.h"
#include "common/macros.h"
#include "exec/summary.h"
#include "obs/trace_recorder.h"
#include "prefetch/extrapolator.h"
#include "touch/touch_mapper.h"

namespace dbtouch::core {

using gesture::GestureEvent;
using gesture::GesturePhase;
using gesture::GestureType;
using storage::RowId;
using touch::DataObjectView;
using touch::ObjectKind;
using touch::TouchMapping;

namespace {

/// Prefetch look-ahead (s) along the extrapolated slide path. The retired
/// ABL-PREFETCH horizon sweep (recorded in src/cache/README.md) stalled on
/// every touch at 0.05 s and reached its floor from 0.25 s on.
constexpr double kPrefetchHorizonS = 0.25;
/// Warm-up fetches issued per slide step at most (bounds queue growth
/// when the extrapolator predicts a long reach).
constexpr std::int64_t kMaxPrefetchBlocksPerTouch = 8;
/// Largest object frame extent accepted, in cm: far above any screen (the
/// largest frame in the repo is Figure 4(b)'s 24 cm).
constexpr double kMaxFrameExtentCm = 1'000.0;

/// InvalidArgument unless `frame` has a finite origin and a finite,
/// positive extent of at most kMaxFrameExtentCm on both axes.
Status CheckFrame(const touch::RectCm& frame) {
  const auto extent_ok = [](double e) {
    return e > 0.0 && e <= kMaxFrameExtentCm;  // False for NaN.
  };
  if (!std::isfinite(frame.x) || !std::isfinite(frame.y) ||
      !extent_ok(frame.width) || !extent_ok(frame.height)) {
    return Status::InvalidArgument(
        "object frame needs a finite origin and a width and height in "
        "(0, 1000] cm");
  }
  return Status::OK();
}

/// The summary of the band around `base_row` read from sample `level`
/// (>= 1) of `h`: 2k+1 sample entries, the band converted back to base
/// rows (the last entry stands for its whole stride). `*scanned` gets the
/// entries read.
exec::SummaryResult SampleLevelSummary(const sampling::SampleHierarchy& h,
                                       int level, RowId base_row,
                                       const ActionConfig& action,
                                       std::int64_t* scanned) {
  exec::InteractiveSummaryOp op(h.LevelView(level), action.summary_k,
                                action.agg);
  exec::SummaryResult sr = op.ComputeAt(h.FromBaseRow(level, base_row));
  *scanned = op.rows_scanned();
  sr.first = h.ToBaseRow(level, sr.first);
  sr.last = std::min<RowId>(
      h.ToBaseRow(level, sr.last) + h.LevelStride(level) - 1,
      h.LevelRows(0) - 1);
  return sr;
}

/// Starts every block of `stall` on its source's fetch queue and blocks
/// the calling thread until all of them settle. False = at least one
/// fetch failed past its bounded retries (the stalled gesture must be
/// shed: its blocks will never arrive).
bool FetchAndWait(const TouchStall& stall) {
  // Owned jointly with the completions, like the server's fetch ticket:
  // the queue may still hold copies of `settle` after this returns.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t remaining = 0;
    bool failed = false;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = stall.total_blocks();
  const auto settle = [latch](const Status& status) {
    const std::lock_guard<std::mutex> lock(latch->mu);
    latch->failed = latch->failed || !status.ok();
    if (--latch->remaining == 0) {
      latch->cv.notify_one();
    }
  };
  for (const TouchStall::Entry& entry : stall.entries) {
    for (const std::int64_t block : entry.blocks) {
      const Status started = entry.source->StartFetch(block, settle);
      if (!started.ok()) {
        settle(started);
      }
    }
  }
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
  return !latch->failed;
}

/// True when some source may fault from a slow tier right now.
bool AnyMayBlock(
    const std::vector<std::shared_ptr<storage::PagedColumnSource>>& sources) {
  return std::any_of(sources.begin(), sources.end(), [](const auto& source) {
    return source->may_block();
  });
}

}  // namespace

const char* ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kScan:
      return "scan";
    case ActionKind::kAggregate:
      return "aggregate";
    case ActionKind::kSummary:
      return "summary";
    case ActionKind::kFilteredScan:
      return "filtered-scan";
    case ActionKind::kGroupBy:
      return "group-by";
  }
  return "?";
}

/// Everything the kernel knows about one on-screen data object.
struct Kernel::ObjectState {
  ObjectId id = 0;
  DataObjectView* view = nullptr;  // Owned by root_view_.
  std::shared_ptr<storage::Table> table;
  /// Column index for column objects.
  std::optional<std::size_t> column;
  /// Sample hierarchy over the bound column (column objects only). Built
  /// by the SharedState; possibly shared with other sessions' kernels.
  std::shared_ptr<const sampling::SampleHierarchy> hierarchy;
  ActionConfig action;
  /// Per-action operator state (reset on SetAction). Aggregates and
  /// filtered scans keep one operator per source: a slide feeds the one
  /// of the attribute under the finger.
  std::vector<exec::TouchedAggregateOp> agg_ops;
  std::vector<exec::FilteredScanOp> filter_ops;
  std::unique_ptr<exec::IncrementalGroupBy> groupby_op;
  /// In-flight incremental layout rotation.
  std::unique_ptr<layout::IncrementalRotator> rotator;
  /// Base-level zone map, bound by SetAction from the SharedState when a
  /// filtered scan asks for index support; immutable and lock-free after.
  std::shared_ptr<const index::ZoneMap> base_zone_map;
  /// One buffer-pool source per attribute the object shows, from
  /// SharedState::GetColumnSource: a column object's bound column at
  /// index 0, a table object's schema attributes at their schema index.
  /// A TouchMapping's attribute indexes them. Every base read of every
  /// action goes through these (see BindSources).
  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  /// One working cursor per source for per-touch point reads; holds the
  /// block under the finger pinned, so a slide inside one block re-pins
  /// nothing.
  std::vector<storage::PagedColumnCursor> cursors;
  ObjectStats stats;
  /// Rotation gesture latch: fire once per gesture.
  bool rotation_fired_this_gesture = false;
  /// Slide extrapolator driving warm-up prefetches over slow-tier
  /// sources (Section 2.6 "Prefetching Data").
  prefetch::GestureExtrapolator extrapolator;
};

/// The base reads of one gesture's execution: rows [first, last] of every
/// listed attribute. No attributes = the gesture reads no base data.
struct Kernel::GestureReads {
  RowId first = 0;
  RowId last = -1;
  std::vector<std::size_t> attributes;
};

Kernel::Kernel(const KernelConfig& config, std::shared_ptr<SharedState> shared)
    : config_(config),
      device_(config.device),
      recognizer_(config.recognizer),
      shared_(shared != nullptr
                  ? std::move(shared)
                  : std::make_shared<SharedState>(config.sampling,
                                                  config.buffer)),
      root_view_("screen",
                 touch::RectCm{0.0, 0.0, config.device.screen_width_cm,
                               config.device.screen_height_cm}),
      sessions_(config.session_idle_gap_us) {}

Kernel::~Kernel() = default;

Status Kernel::RegisterTable(std::shared_ptr<storage::Table> table) {
  return shared_->RegisterTable(std::move(table));
}

Result<ObjectId> Kernel::CreateColumnObject(const std::string& table,
                                            const std::string& column,
                                            const touch::RectCm& frame) {
  DBTOUCH_RETURN_IF_ERROR(CheckFrame(frame));
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           shared_->catalog().Get(table));
  DBTOUCH_ASSIGN_OR_RETURN(const std::size_t col,
                           t->schema().FieldIndex(column));
  auto state = std::make_unique<ObjectState>();
  state->id = next_object_id_++;
  state->table = t;
  state->column = col;

  auto view = std::make_unique<DataObjectView>(
      table + "." + column, frame, ObjectKind::kColumn, t->row_count(), 1);
  view->BindColumn(table, col);
  state->view =
      static_cast<DataObjectView*>(root_view_.AddChild(std::move(view)));

  DBTOUCH_ASSIGN_OR_RETURN(state->hierarchy,
                           shared_->GetOrBuildHierarchy(table, col));
  DBTOUCH_RETURN_IF_ERROR(BindSources(state.get()));

  const ObjectId id = state->id;
  objects_.emplace(id, std::move(state));
  return id;
}

Result<ObjectId> Kernel::CreateTableObject(const std::string& table,
                                           const touch::RectCm& frame) {
  DBTOUCH_RETURN_IF_ERROR(CheckFrame(frame));
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           shared_->catalog().Get(table));
  auto state = std::make_unique<ObjectState>();
  state->id = next_object_id_++;
  state->table = t;

  auto view = std::make_unique<DataObjectView>(
      table, frame, ObjectKind::kTable, t->row_count(),
      t->schema().num_fields());
  view->BindTable(table);
  state->view =
      static_cast<DataObjectView*>(root_view_.AddChild(std::move(view)));
  DBTOUCH_RETURN_IF_ERROR(BindSources(state.get()));

  const ObjectId id = state->id;
  objects_.emplace(id, std::move(state));
  return id;
}

Status Kernel::BindSources(ObjectState* obj) {
  const std::size_t n =
      obj->column.has_value() ? 1 : obj->table->schema().num_fields();
  for (std::size_t a = 0; a < n; ++a) {
    DBTOUCH_ASSIGN_OR_RETURN(
        std::shared_ptr<storage::PagedColumnSource> source,
        shared_->GetColumnSource(obj->table->name(), obj->column.value_or(a)));
    obj->cursors.emplace_back(source);
    obj->sources.push_back(std::move(source));
  }
  return Status::OK();
}

Status Kernel::DestroyObject(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + std::to_string(id));
  }
  if (gesture_target_ == it->second.get()) {
    gesture_target_ = nullptr;
  }
  std::erase_if(joins_, [id](const JoinBinding& b) {
    return b.left == id || b.right == id;
  });
  root_view_.RemoveChild(it->second->view);
  objects_.erase(it);
  return Status::OK();
}

Result<DataObjectView*> Kernel::object_view(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + std::to_string(id));
  }
  return it->second->view;
}

std::vector<ObjectId> Kernel::ListObjects() const {
  std::vector<ObjectId> out;
  out.reserve(objects_.size());
  for (const auto& [id, state] : objects_) {
    out.push_back(id);
  }
  return out;
}

Status Kernel::SetAction(ObjectId id, const ActionConfig& action) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + std::to_string(id));
  }
  ObjectState* obj = it->second.get();
  if (action.summary_k < 0) {
    return Status::InvalidArgument("summary half-width k must be >= 0");
  }
  if (action.kind == ActionKind::kFilteredScan &&
      !action.predicate.has_value()) {
    return Status::InvalidArgument("filtered scan needs a predicate");
  }
  if (action.kind == ActionKind::kGroupBy) {
    if (obj->view->kind() != ObjectKind::kTable) {
      return Status::InvalidArgument("group-by requires a table object");
    }
    const std::size_t fields = obj->table->schema().num_fields();
    if (action.group_key_attribute >= fields ||
        action.group_value_attribute >= fields) {
      return Status::OutOfRange("group-by attribute out of range");
    }
    const storage::DataType key_type =
        obj->table->schema().field(action.group_key_attribute).type;
    if (key_type == storage::DataType::kFloat ||
        key_type == storage::DataType::kDouble) {
      return Status::InvalidArgument(
          "group-by key must be integer or string");
    }
  }
  if (action.kind == ActionKind::kFilteredScan && action.use_zone_map &&
      obj->hierarchy != nullptr && obj->base_zone_map == nullptr) {
    // Keyed by the object's own hierarchy, so the map always matches the
    // data this object scans. Bound here, so a map that cannot be built
    // (a damaged spill file) is this call's error, not a touch's.
    DBTOUCH_ASSIGN_OR_RETURN(obj->base_zone_map,
                             shared_->GetOrBuildBaseZoneMap(obj->hierarchy));
  }
  obj->action = action;
  // A new action is a new logical query: clear operator state.
  obj->agg_ops.clear();
  obj->filter_ops.clear();
  obj->groupby_op.reset();
  switch (action.kind) {
    case ActionKind::kAggregate:
      for (const auto& source : obj->sources) {
        obj->agg_ops.emplace_back(source, action.agg);
      }
      break;
    case ActionKind::kFilteredScan:
      DBTOUCH_CHECK(action.predicate.has_value());
      for (const auto& source : obj->sources) {
        obj->filter_ops.emplace_back(source, *action.predicate);
      }
      break;
    case ActionKind::kGroupBy:
      obj->groupby_op = std::make_unique<exec::IncrementalGroupBy>(
          obj->sources[action.group_key_attribute],
          obj->sources[action.group_value_attribute], action.agg);
      break;
    case ActionKind::kScan:
    case ActionKind::kSummary:
      break;  // Stateless per touch.
  }
  return Status::OK();
}

Status Kernel::EnableJoin(ObjectId left, ObjectId right) {
  const auto lit = objects_.find(left);
  const auto rit = objects_.find(right);
  if (lit == objects_.end() || rit == objects_.end()) {
    return Status::NotFound("join endpoint object missing");
  }
  ObjectState* l = lit->second.get();
  ObjectState* r = rit->second.get();
  if (!l->column.has_value() || !r->column.has_value()) {
    return Status::InvalidArgument("joins bind column objects");
  }
  // Per-side sources — each side independently, so joining a reclaimed
  // column against a resident one works.
  const std::shared_ptr<storage::PagedColumnSource>& lsrc = l->sources[0];
  const std::shared_ptr<storage::PagedColumnSource>& rsrc = r->sources[0];
  const storage::DataType lt = lsrc->type();
  const storage::DataType rt = rsrc->type();
  if (lt == storage::DataType::kFloat || lt == storage::DataType::kDouble ||
      rt == storage::DataType::kFloat || rt == storage::DataType::kDouble) {
    return Status::InvalidArgument("join keys must be integer or string");
  }
  // Hash-table cache (Section 2.9): re-enabling a join over the same two
  // columns resumes the cached SymmetricHashJoin with every previously fed
  // tuple still in its tables. Keyed by join identity at base fidelity;
  // the table pins guard against a name re-registered with new data (and
  // keep the cached join's column views alive).
  const std::string join_id =
      l->table->name() + "." + l->table->schema().field(*l->column).name +
      "=" + r->table->name() + "." +
      r->table->schema().field(*r->column).name;
  const std::string cache_key = cache::HashTableCache::MakeKey(join_id, 0);
  std::shared_ptr<exec::SymmetricHashJoin> join = join_cache_.Get(cache_key);
  const auto pins = join_cache_tables_.find(cache_key);
  if (join != nullptr && pins != join_cache_tables_.end() &&
      pins->second.first == l->table && pins->second.second == r->table) {
    // The cached join reads through the sources of the objects it was
    // built for: the same column bindings, whatever happened to them.
    ++stats_.join_cache_hits;
  } else {
    join = std::make_shared<exec::SymmetricHashJoin>(lsrc, rsrc);
    join_cache_.Put(cache_key, join);
    join_cache_tables_[cache_key] = {l->table, r->table};
    // Drop identity pins for joins the LRU just evicted, so the pin map
    // stays bounded by the cache capacity and evicted joins' tables can
    // actually be freed.
    std::erase_if(join_cache_tables_, [this](const auto& entry) {
      return !join_cache_.Contains(entry.first);
    });
  }
  JoinBinding binding;
  binding.left = left;
  binding.right = right;
  binding.join = std::move(join);
  joins_.push_back(std::move(binding));
  return Status::OK();
}

void Kernel::OnTouch(const sim::TouchEvent& event) {
  // The touch server's suspend/fetch/resume cycle, run inline: every cold
  // block comes through the fetch queue, and this thread waits on it.
  TouchStall stall;
  TouchOutcome outcome = OnTouchAsync(event, &stall);
  while (outcome == TouchOutcome::kSuspended) {
    if (!FetchAndWait(stall)) {
      AbandonPending();  // The blocks will never arrive.
    }
    outcome = ResumePending(&stall);
  }
}

TouchOutcome Kernel::OnTouchAsync(const sim::TouchEvent& event,
                                  TouchStall* stall) {
  clock_.AdvanceTo(event.timestamp_us);
  ++stats_.touch_events;
  for (const GestureEvent& g : recognizer_.OnTouch(event)) {
    pending_gestures_.push_back(g);
  }
  return DrainPending(stall);
}

TouchOutcome Kernel::ResumePending(TouchStall* stall) {
  return DrainPending(stall);
}

void Kernel::AbandonPending() {
  // Shed only the stalled head gesture: the ones queued behind it (e.g.
  // the slide's kEnded, whose execution releases working pins and signals
  // the gesture pause) still run on the caller's next ResumePending —
  // each may stall and be shed in turn, converging one gesture per cycle.
  if (!pending_gestures_.empty()) {
    pending_gestures_.pop_front();
    ++stats_.fetch_errors;
  }
  probe_pins_.clear();
}

bool Kernel::AnswerPartialFromResident() {
  if (pending_gestures_.empty()) {
    return false;
  }
  const GestureEvent g = pending_gestures_.front();
  // Eligible: slide steps only. Taps, gesture begins/ends and the
  // stateful actions fall through to the classic park — deferring their
  // execution would reorder operator-state feeds.
  if (g.type != GestureType::kSlide || g.phase != GesturePhase::kChanged) {
    return false;
  }
  // Mirror ProbeGesture's targeting (the stalled head is never a kBegan:
  // begins read no data, so they cannot stall).
  ObjectState* obj = gesture_target_;
  if (obj == nullptr || obj->view->kind() == ObjectKind::kTable) {
    return false;
  }
  // Only stateless actions can be re-executed bit-identically later.
  if (obj->action.kind != ActionKind::kScan &&
      obj->action.kind != ActionKind::kSummary) {
    return false;
  }
  // A joined object's slide feeds the join; a deferred re-execution would
  // not, so partial answers skip joined objects entirely.
  for (const JoinBinding& b : joins_) {
    if (b.left == obj->id || b.right == obj->id) {
      return false;
    }
  }
  // Level 1, the finest sample copy: a hierarchy holds every level from
  // its build on, and reading one never faults.
  constexpr int level = 1;
  if (!config_.use_sampling || obj->hierarchy == nullptr ||
      obj->hierarchy->num_levels() <= level) {
    return false;
  }

  const sim::PointCm local = obj->view->ScreenToLocal(g.position);
  const TouchMapping mapping = touch::MapTouch(*obj->view, local);
  const RowId base_row = mapping.row;

  ResultItem item;
  item.object = obj->id;
  item.timestamp_us = g.timestamp_us;
  item.screen_position = ResultPosition(*obj, g.position);
  item.row = base_row;
  item.approximate = true;
  item.partial = true;
  item.refine_seq = 0;
  std::int64_t scanned = 0;
  if (obj->action.kind == ActionKind::kScan) {
    item.kind = ResultKind::kValue;
    item.attribute = mapping.attribute;
    item.value = obj->hierarchy->LevelView(level).GetValue(
        obj->hierarchy->FromBaseRow(level, base_row));
    scanned = 1;
  } else {
    const exec::SummaryResult sr = SampleLevelSummary(
        *obj->hierarchy, level, base_row, obj->action, &scanned);
    item.kind = ResultKind::kSummary;
    item.value = storage::Value(sr.value);
    item.band_first = sr.first;
    item.band_last = sr.last;
    item.rows_aggregated = sr.rows;
    obj->stats.last_level_used = level;
  }
  results_.Append(std::move(item));

  // The gesture is consumed here — account for it like OnGesture would.
  ++stats_.gesture_events;
  ++stats_.slide_steps;
  ++stats_.partial_answers;
  ++stats_.entries_returned;
  stats_.rows_scanned += scanned;
  ++obj->stats.touches;
  ++obj->stats.entries_returned;
  obj->stats.rows_scanned += scanned;
  sessions_.AddEntries(1);
  sessions_.AddRowsScanned(scanned);
  MaybePrefetch(obj, mapping, g);
  sessions_.OnTouch(g.timestamp_us);

  refinements_.push_back(PendingRefinement{g, obj->id, /*seq=*/1});
  pending_gestures_.pop_front();
  probe_pins_.clear();
  return true;
}

RefineOutcome Kernel::RefineNext(TouchStall* stall) {
  while (!refinements_.empty()) {
    PendingRefinement& ref = refinements_.front();
    const auto it = objects_.find(ref.object);
    if (it == objects_.end()) {
      refinements_.pop_front();  // Object destroyed; partial stands.
      continue;
    }
    ObjectState* obj = it->second.get();
    const Result<bool> ready = ProbeObject(obj, ref.event, stall);
    if (!ready.ok()) {
      ++stats_.fetch_errors;
      probe_pins_.clear();
      refinements_.pop_front();
      continue;
    }
    if (!*ready) {
      ++ref.seq;  // This attempt failed; the next one carries seq + 1.
      probe_pins_.clear();
      return RefineOutcome::kStillCold;
    }

    const sim::PointCm local = obj->view->ScreenToLocal(ref.event.position);
    const TouchMapping mapping = touch::MapTouch(*obj->view, local);
    const std::int64_t before = results_.size();
    const std::int64_t entries = ExecuteAction(obj, mapping, ref.event);
    stats_.entries_returned += entries;
    obj->stats.entries_returned += entries;
    sessions_.AddEntries(entries);
    for (std::int64_t i = before; i < results_.size(); ++i) {
      ResultItem& refined = results_.mutable_items()[static_cast<std::size_t>(i)];
      refined.partial = false;
      refined.refine_seq = ref.seq;
    }
    ++stats_.refinements;
    probe_pins_.clear();
    refinements_.pop_front();
    return RefineOutcome::kRefined;
  }
  return RefineOutcome::kIdle;
}

void Kernel::AbandonRefinement() {
  if (!refinements_.empty()) {
    refinements_.pop_front();
    ++stats_.fetch_errors;
  }
  probe_pins_.clear();
}

TouchOutcome Kernel::DrainPending(TouchStall* stall) {
  while (!pending_gestures_.empty()) {
    const GestureEvent g = pending_gestures_.front();
    const Result<bool> ready = ProbeGesture(g, stall);
    if (!ready.ok()) {
      // The backing read failed past its bounded retries: shed this
      // gesture's execution — one lost answer, not a lost session.
      ++stats_.fetch_errors;
      probe_pins_.clear();
      pending_gestures_.pop_front();
      continue;
    }
    if (!*ready) {
      ++stats_.suspensions;
      if (trace_ != nullptr) {
        const std::int64_t first =
            !stall->entries.empty() && !stall->entries.front().blocks.empty()
                ? stall->entries.front().blocks.front()
                : -1;
        trace_->Record(obs::SpanStage::kSuspended, trace_quantum_,
                       trace_session_, first, stall->total_blocks());
      }
      return TouchOutcome::kSuspended;
    }
    pending_gestures_.pop_front();
    OnGesture(g);
    probe_pins_.clear();
  }
  return TouchOutcome::kCompleted;
}

Result<bool> Kernel::ProbeGesture(const GestureEvent& event,
                                  TouchStall* stall) {
  // Mirror OnGesture's targeting without mutating it. Events queued
  // behind an unexecuted kBegan are never probed before it runs (FIFO),
  // so gesture_target_ is current whenever it is consulted here.
  ObjectState* obj =
      event.type == GestureType::kTap || event.phase == GesturePhase::kBegan
          ? FindObjectAt(event.position)
          : gesture_target_;
  if (obj == nullptr) {
    return true;
  }
  return ProbeObject(obj, event, stall);
}

Result<bool> Kernel::ProbeObject(ObjectState* obj, const GestureEvent& event,
                                 TouchStall* stall) {
  // Each probe attempt reports its own misses; entries from a previous
  // attempt of this (or another) gesture are stale.
  stall->entries.clear();
  if (!AnyMayBlock(obj->sources)) {
    return true;  // No slow-tier reads possible.
  }
  const GestureReads reads = ReadsOf(*obj, event);
  // Probe every attribute even after one misses: the stall then carries
  // all the cold attributes' blocks, so ONE suspend (and one fetch
  // ticket) covers the whole tuple instead of a round trip per
  // attribute. Resident attributes stay pinned in probe_pins_ across the
  // resume either way.
  bool ready = true;
  for (const std::size_t attribute : reads.attributes) {
    DBTOUCH_ASSIGN_OR_RETURN(
        const bool attribute_ready,
        ProbeBlocks(obj->sources[attribute], reads.first, reads.last,
                    stall));
    ready = ready && attribute_ready;
  }
  return ready;
}

Kernel::GestureReads Kernel::ReadsOf(const ObjectState& obj,
                                     const GestureEvent& event) const {
  GestureReads reads;
  const bool tap = event.type == GestureType::kTap;
  if (!tap && (event.type != GestureType::kSlide ||
               event.phase != GesturePhase::kChanged)) {
    return reads;  // Pinch / rotate / begin / end read no base data.
  }
  const sim::PointCm local = obj.view->ScreenToLocal(event.position);
  const TouchMapping mapping = touch::MapTouch(*obj.view, local);
  reads.first = reads.last = mapping.row;
  if (tap) {
    // "A single tap anywhere on a table data object reveals a full
    // tuple": every attribute the object shows, at the touched row.
    for (std::size_t a = 0; a < obj.sources.size(); ++a) {
      reads.attributes.push_back(a);
    }
    return reads;
  }
  switch (obj.action.kind) {
    case ActionKind::kScan:
    case ActionKind::kAggregate:
    case ActionKind::kFilteredScan:
      reads.attributes.push_back(mapping.attribute);
      break;
    case ActionKind::kSummary: {
      if (ChooseLevelFor(obj, event) > 0) {
        break;  // Served from the in-memory sample hierarchy.
      }
      const std::int64_t k = SummaryBandK(obj);
      reads.first = std::max<RowId>(mapping.row - k, 0);
      reads.last =
          std::min<RowId>(mapping.row + k, obj.table->row_count() - 1);
      reads.attributes.push_back(mapping.attribute);
      break;
    }
    case ActionKind::kGroupBy:
      reads.attributes.push_back(obj.action.group_key_attribute);
      if (obj.action.group_value_attribute !=
          obj.action.group_key_attribute) {
        reads.attributes.push_back(obj.action.group_value_attribute);
      }
      break;
  }
  return reads;
}

Result<bool> Kernel::ProbeBlocks(
    const std::shared_ptr<storage::PagedColumnSource>& source, RowId first,
    RowId last, TouchStall* stall) {
  if (source == nullptr || !source->may_block()) {
    return true;
  }
  const std::int64_t first_block = source->BlockFor(first);
  const std::int64_t last_block = source->BlockFor(last);
  const std::uintptr_t token = source->share_token();
  std::vector<std::int64_t> missing;
  for (std::int64_t block = first_block; block <= last_block; ++block) {
    bool held = false;
    for (const storage::BlockPin& pin : probe_pins_) {
      // Token comparison, not source identity: PAX column sources of one
      // table share a block namespace, so a block pinned for one
      // attribute already keeps the whole multi-column payload resident.
      if (pin.block() == block && pin.share_token() == token) {
        held = true;  // Pinned by a previous attempt of this gesture.
        break;
      }
    }
    if (held) {
      continue;
    }
    // row_hint -1: the probe must not feed the gesture detector (the
    // execution it fronts will, with the real touched rows).
    DBTOUCH_ASSIGN_OR_RETURN(std::optional<storage::BlockPin> pin,
                             source->TryPinBlock(block, -1));
    if (pin.has_value()) {
      probe_pins_.push_back(std::move(*pin));
    } else {
      missing.push_back(block);
    }
  }
  if (missing.empty()) {
    return true;
  }
  // Merge into the stall under the share token: two PAX column sources
  // waiting on the same payload become one entry, and a block never gets
  // fetched twice for one suspend.
  TouchStall::Entry* entry = nullptr;
  for (TouchStall::Entry& e : stall->entries) {
    if (e.source->share_token() == token) {
      entry = &e;
      break;
    }
  }
  if (entry == nullptr) {
    stall->entries.push_back(TouchStall::Entry{source, {}});
    entry = &stall->entries.back();
  }
  for (const std::int64_t block : missing) {
    if (std::find(entry->blocks.begin(), entry->blocks.end(), block) ==
        entry->blocks.end()) {
      entry->blocks.push_back(block);
    }
  }
  return false;
}

std::int64_t Kernel::SummaryBandK(const ObjectState& obj) const {
  const std::int64_t stride =
      (obj.hierarchy != nullptr && config_.use_sampling)
          ? 1
          : std::max<std::int64_t>(
                obj.table->row_count() /
                    std::max<std::int64_t>(
                        device_.DistinctPositions(
                            obj.view->tuple_axis_extent()),
                        1),
                1);
  // k * stride, capped before the product can overflow.
  const std::int64_t cap = config_.max_rows_per_touch / 2;
  return obj.action.summary_k > cap / stride ? cap
                                             : obj.action.summary_k * stride;
}

void Kernel::MaybePrefetch(ObjectState* obj, const TouchMapping& mapping,
                           const GestureEvent& event) {
  if (!config_.prefetch_enabled || !AnyMayBlock(obj->sources)) {
    return;
  }
  // Warm the attribute under the finger, the one the probe follows.
  const std::shared_ptr<storage::PagedColumnSource>& source =
      obj->sources[mapping.attribute];
  obj->extrapolator.Observe(event.timestamp_us, mapping.row);
  // Close the warm-up feedback loop: the cache's claimed-before-eviction
  // score scales the horizon, so a stream of warm-ups dying unclaimed
  // shortens the reach instead of churning the staging pad forever.
  obj->extrapolator.ObserveClaimRate(
      shared_->buffer_manager().prefetch_claim_rate());
  const prefetch::RowRange range = obj->extrapolator.PredictRange(
      event.timestamp_us,
      kPrefetchHorizonS * obj->extrapolator.horizon_scale(),
      source->row_count());
  if (range.empty()) {
    return;
  }
  // The whole predicted path goes down in one call: each cold stretch is
  // enqueued as one run, which the fetch queue reads with one backing
  // read. Only real enqueues spend the per-touch budget: during a steady
  // slide the head of the predicted range is already resident, and the
  // cold tail is exactly what needs warming.
  const std::int64_t issued = source->RequestPrefetchRange(
      source->BlockFor(range.first), source->BlockFor(range.last),
      kMaxPrefetchBlocksPerTouch);
  stats_.prefetch_requests += issued;
}

void Kernel::Replay(const sim::GestureTrace& trace) {
  for (const sim::TouchEvent& e : trace.events) {
    OnTouch(e);
  }
}

void Kernel::OnGesture(const GestureEvent& event) {
  ++stats_.gesture_events;

  if (event.phase == GesturePhase::kBegan) {
    sessions_.OnGestureBegin(event.timestamp_us);
    gesture_target_ = FindObjectAt(event.position);
    applied_pinch_scale_ = 1.0;
    if (gesture_target_ != nullptr) {
      gesture_target_->rotation_fired_this_gesture = false;
    }
  }
  // Taps never see a kBegan (they resolve at finger-up), so target them
  // directly.
  ObjectState* obj = event.type == GestureType::kTap
                         ? FindObjectAt(event.position)
                         : gesture_target_;
  if (event.type == GestureType::kTap) {
    sessions_.OnGestureBegin(event.timestamp_us);
  }
  if (obj == nullptr) {
    if (event.phase == GesturePhase::kEnded) {
      gesture_target_ = nullptr;
    }
    return;  // Gesture on empty screen space.
  }

  switch (event.type) {
    case GestureType::kTap:
      ++stats_.taps;
      HandleTap(event, obj);
      break;
    case GestureType::kSlide:
      if (event.phase == GesturePhase::kChanged) {
        ++stats_.slide_steps;
        HandleSlideStep(event, obj);
      }
      break;
    case GestureType::kPinch:
      if (event.phase == GesturePhase::kChanged ||
          event.phase == GesturePhase::kEnded) {
        ++stats_.pinch_steps;
        HandlePinchStep(event, obj);
      }
      break;
    case GestureType::kRotate:
      ++stats_.rotate_steps;
      HandleRotate(event, obj);
      break;
  }
  // Pending layout rotations convert a bounded chunk per touch.
  if (obj->rotator != nullptr && !obj->rotator->done()) {
    obj->rotator->Step();
    if (obj->rotator->done()) {
      FinishRotation(obj);
    }
  }

  sessions_.OnTouch(event.timestamp_us);
  if (event.phase == GesturePhase::kEnded &&
      event.type != GestureType::kTap) {
    gesture_target_ = nullptr;
    // Finger lifted — the pause signal that re-enables block-cache
    // admission (Section 2.6: interest in the current region). Scoped to
    // this object's columns so other sessions' scans are untouched. The
    // working pins drop too: an idle session must not hold buffer-pool
    // blocks pinned (retained blocks stay cached, so the next touch on
    // the region is still a hit).
    for (std::size_t a = 0; a < obj->sources.size(); ++a) {
      obj->sources[a]->OnGesturePause();
      obj->cursors[a].ReleasePin();
    }
    for (exec::TouchedAggregateOp& op : obj->agg_ops) {
      op.ReleasePin();
    }
    for (exec::FilteredScanOp& op : obj->filter_ops) {
      op.ReleasePin();
    }
    if (obj->groupby_op != nullptr) {
      obj->groupby_op->ReleasePins();
    }
    for (JoinBinding& binding : joins_) {
      if (binding.left == obj->id || binding.right == obj->id) {
        binding.join->ReleasePins();
      }
    }
  }
}

Kernel::ObjectState* Kernel::FindObjectAt(const sim::PointCm& screen_point) {
  touch::View* hit = root_view_.HitTest(screen_point);
  if (hit == nullptr || hit == &root_view_) {
    return nullptr;
  }
  return FindObjectByView(hit);
}

Kernel::ObjectState* Kernel::FindObjectByView(const touch::View* view) {
  for (auto& [id, state] : objects_) {
    if (state->view == view) {
      return state.get();
    }
  }
  return nullptr;
}

sim::PointCm Kernel::ResultPosition(const ObjectState& /*obj*/,
                                    const sim::PointCm& screen_touch) const {
  // "Result values are typically shifted slightly sideways from the exact
  // touch location such as to avoid being hidden below the user finger."
  sim::PointCm p = screen_touch;
  p.x += device_.config().finger_width_cm;
  return p;
}

void Kernel::HandleTap(const GestureEvent& event, ObjectState* obj) {
  const sim::PointCm local = obj->view->ScreenToLocal(event.position);
  const TouchMapping mapping = touch::MapTouch(*obj->view, local);
  ++obj->stats.touches;
  sessions_.OnGestureBegin(event.timestamp_us);

  // "A single tap anywhere on a column data object reveals a single
  // column value"; on a table data object it "reveals a full tuple": one
  // item per attribute the object shows.
  const bool tuple = obj->view->kind() == ObjectKind::kTable;
  for (std::size_t a = 0; a < obj->cursors.size(); ++a) {
    ResultItem item;
    item.object = obj->id;
    item.kind = tuple ? ResultKind::kTuple : ResultKind::kValue;
    item.timestamp_us = event.timestamp_us;
    item.screen_position = ResultPosition(*obj, event.position);
    item.row = mapping.row;
    item.attribute = a;
    item.value = obj->cursors[a].GetValue(mapping.row);
    // A tap is a whole gesture: drop the pin now, as a slide's end does,
    // so an idle session holds no buffer-pool block pinned.
    obj->cursors[a].ReleasePin();
    results_.Append(std::move(item));
  }
  ++stats_.entries_returned;
  ++stats_.rows_scanned;
  ++obj->stats.entries_returned;
  ++obj->stats.rows_scanned;
  sessions_.AddEntries(1);
  sessions_.AddRowsScanned(1);
}

int Kernel::ChooseLevelFor(const ObjectState& obj,
                           const GestureEvent& event) const {
  if (!config_.use_sampling || obj.hierarchy == nullptr) {
    return 0;
  }
  const double extent = obj.view->tuple_axis_extent();
  const std::int64_t positions = device_.DistinctPositions(extent);
  // Positions skipped per registered event, from the slide velocity along
  // the tuple axis.
  const double axis_velocity =
      obj.view->orientation() == touch::Orientation::kVertical
          ? event.velocity_y_cm_s
          : event.velocity_x_cm_s;
  const double positions_per_event =
      std::abs(axis_velocity) * device_.config().points_per_cm /
      device_.config().touch_event_hz;
  return sampling::ChooseLevel(obj.table->row_count(), positions,
                               std::max(positions_per_event, 1.0),
                               obj.hierarchy->num_levels(),
                               config_.level_policy);
}

void Kernel::HandleSlideStep(const GestureEvent& event, ObjectState* obj) {
  const sim::PointCm local = obj->view->ScreenToLocal(event.position);
  const TouchMapping mapping = touch::MapTouch(*obj->view, local);
  ++obj->stats.touches;
  MaybePrefetch(obj, mapping, event);
  const std::int64_t entries = ExecuteAction(obj, mapping, event);
  stats_.entries_returned += entries;
  obj->stats.entries_returned += entries;
  sessions_.AddEntries(entries);

  // Slide-driven joins: feed every join this object participates in.
  for (JoinBinding& binding : joins_) {
    exec::JoinSide side;
    if (binding.left == obj->id) {
      side = exec::JoinSide::kLeft;
    } else if (binding.right == obj->id) {
      side = exec::JoinSide::kRight;
    } else {
      continue;
    }
    const auto matches = binding.join->Feed(side, mapping.row);
    for (const exec::JoinMatch& m : matches) {
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kJoinMatch;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = ResultPosition(*obj, event.position);
      item.row = side == exec::JoinSide::kLeft ? m.left_row : m.right_row;
      item.value = storage::Value(m.key);
      results_.Append(std::move(item));
    }
    stats_.entries_returned += static_cast<std::int64_t>(matches.size());
  }
}

std::int64_t Kernel::ExecuteAction(ObjectState* obj,
                                   const TouchMapping& mapping,
                                   const GestureEvent& event) {
  const sim::PointCm result_pos = ResultPosition(*obj, event.position);
  const RowId base_row = mapping.row;

  switch (obj->action.kind) {
    case ActionKind::kScan: {
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kValue;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = result_pos;
      item.row = base_row;
      item.attribute = mapping.attribute;
      item.value = obj->cursors[mapping.attribute].GetValue(base_row);
      results_.Append(std::move(item));
      ++stats_.rows_scanned;
      ++obj->stats.rows_scanned;
      sessions_.AddRowsScanned(1);
      return 1;
    }

    case ActionKind::kAggregate: {
      exec::TouchedAggregateOp& op = obj->agg_ops[mapping.attribute];
      op.Feed(base_row);
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kAggregate;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = result_pos;
      item.row = base_row;
      item.attribute = mapping.attribute;
      item.value = storage::Value(op.value());
      item.rows_aggregated = op.rows_seen();
      results_.Append(std::move(item));
      ++stats_.rows_scanned;
      ++obj->stats.rows_scanned;
      sessions_.AddRowsScanned(1);
      return 1;
    }

    case ActionKind::kSummary: {
      // Band semantics: the touch denotes a band of base rows sized by the
      // chosen level's stride. With sampling, read 2k+1 sample entries;
      // without, read the full base band (same data region, more reads).
      const int level = ChooseLevelFor(*obj, event);
      obj->stats.last_level_used = level;
      std::int64_t scanned = 0;
      exec::SummaryResult sr;
      bool approximate = false;
      if (level > 0 && obj->hierarchy != nullptr) {
        sr = SampleLevelSummary(*obj->hierarchy, level, base_row,
                                obj->action, &scanned);
        approximate = true;
      } else {
        // Base-data band of equivalent width, truncated to the per-touch
        // budget so one touch can never stall unboundedly.
        const std::int64_t k_base = SummaryBandK(*obj);
        // The band scans the touched attribute block-at-a-time through
        // its pool source, whatever the tier behind it.
        exec::InteractiveSummaryOp op(obj->sources[mapping.attribute],
                                      k_base, obj->action.agg);
        sr = op.ComputeAt(base_row);
        scanned = op.rows_scanned();
      }
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kSummary;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = result_pos;
      item.row = base_row;
      item.attribute = mapping.attribute;
      item.value = storage::Value(sr.value);
      item.band_first = sr.first;
      item.band_last = sr.last;
      item.rows_aggregated = sr.rows;
      item.approximate = approximate;
      results_.Append(std::move(item));
      stats_.rows_scanned += scanned;
      obj->stats.rows_scanned += scanned;
      sessions_.AddRowsScanned(scanned);
      return 1;
    }

    case ActionKind::kFilteredScan: {
      // Index-assisted slide (Section 2.6): if this touch's zone cannot
      // contain a matching value, answer without reading the data.
      if (obj->action.use_zone_map && obj->base_zone_map != nullptr) {
        const exec::Predicate::Interval window =
            obj->action.predicate->ValueInterval();
        if (!obj->base_zone_map->MayMatch(base_row, window.lo, window.hi)) {
          ++stats_.rows_pruned;
          return 0;
        }
      }
      ++stats_.rows_scanned;
      ++obj->stats.rows_scanned;
      sessions_.AddRowsScanned(1);
      if (!obj->filter_ops[mapping.attribute].Feed(base_row)) {
        return 0;  // Entry does not satisfy the where-restriction.
      }
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kFilterMatch;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = result_pos;
      item.row = base_row;
      item.attribute = mapping.attribute;
      item.value = obj->cursors[mapping.attribute].GetValue(base_row);
      results_.Append(std::move(item));
      return 1;
    }

    case ActionKind::kGroupBy: {
      DBTOUCH_CHECK(obj->groupby_op != nullptr);
      ++stats_.rows_scanned;
      ++obj->stats.rows_scanned;
      sessions_.AddRowsScanned(1);
      if (!obj->groupby_op->Feed(base_row)) {
        return 0;  // Revisited tuple.
      }
      // Surface the touched tuple's group with its fresh aggregate. The
      // key re-read goes through the operator's own cursor.
      const std::int64_t key = obj->groupby_op->KeyAt(base_row);
      double group_value = 0.0;
      std::int64_t group_count = 0;
      for (const auto& g : obj->groupby_op->Snapshot()) {
        if (g.key == key) {
          group_value = g.value;
          group_count = g.count;
          break;
        }
      }
      ResultItem item;
      item.object = obj->id;
      item.kind = ResultKind::kGroupUpdate;
      item.timestamp_us = event.timestamp_us;
      item.screen_position = result_pos;
      item.row = base_row;
      item.attribute = obj->action.group_key_attribute;
      item.value = storage::Value(group_value);
      item.rows_aggregated = group_count;
      results_.Append(std::move(item));
      return 1;
    }
  }
  return 0;
}

void Kernel::HandlePinchStep(const GestureEvent& event, ObjectState* obj) {
  // GestureEvent carries cumulative scale; apply only the delta.
  if (event.pinch_scale <= 0.0 || applied_pinch_scale_ <= 0.0) {
    return;
  }
  const double step = event.pinch_scale / applied_pinch_scale_;
  applied_pinch_scale_ = event.pinch_scale;
  obj->view->ApplyZoom(step, config_.zoom_min_extent_cm,
                       config_.zoom_max_extent_cm);
}

void Kernel::HandleRotate(const GestureEvent& event, ObjectState* obj) {
  if (obj->rotation_fired_this_gesture) {
    return;
  }
  if (std::abs(event.rotation_rad) < config_.rotation_trigger_rad) {
    return;
  }
  obj->rotation_fired_this_gesture = true;
  obj->view->FlipOrientation();
  if (obj->table->raw_released()) {
    // A spilled-and-reclaimed table has no matrix to rewrite; the gesture
    // still flips the on-screen orientation, the physical layout lives in
    // the block files (frozen, like registered tables under sharing).
    return;
  }
  if (obj->view->kind() == ObjectKind::kTable) {
    // "Rotating a row-oriented table changes its physical layout to a
    // column-store structure ... (and vice versa)" — incrementally.
    const storage::MajorOrder target =
        obj->table->layout() == storage::MajorOrder::kRowMajor
            ? storage::MajorOrder::kColumnMajor
            : storage::MajorOrder::kRowMajor;
    obj->rotator = std::make_unique<layout::IncrementalRotator>(
        obj->table.get(), target, config_.rotation_rows_per_step);
  }
}

Result<const ObjectStats*> Kernel::object_stats(ObjectId id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + std::to_string(id));
  }
  return const_cast<const ObjectStats*>(&it->second->stats);
}

Result<bool> Kernel::rotation_in_progress(ObjectId id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("no object " + std::to_string(id));
  }
  return it->second->rotator != nullptr && !it->second->rotator->done();
}

void Kernel::PumpMaintenance() {
  for (auto& [id, obj] : objects_) {
    if (obj->rotator != nullptr && !obj->rotator->done()) {
      obj->rotator->Step();
    }
    if (obj->rotator != nullptr && obj->rotator->done()) {
      FinishRotation(obj.get());
    }
  }
}

void Kernel::FinishRotation(ObjectState* obj) {
  DBTOUCH_CHECK_OK(obj->rotator->Finish());
  obj->rotator.reset();
  ++stats_.layout_rotations;
}

}  // namespace dbtouch::core
