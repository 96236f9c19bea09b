// ResultStream: dbTouch's result presentation model (paper Section 2.3,
// "Inspecting Results"): "results appear in place, i.e., as if every
// single result value pops up from the position in the data object where
// the raw value responsible for this result lies ... Soon after a result
// value becomes visible, it subsequently fades away."
//
// The stream records every produced result with its on-screen position and
// timestamp; VisibleAt() reconstructs what the user sees at any instant
// (bold for fresh results, faded out after the fade window). An owner that
// lives long (a server session) may drop the oldest items with
// KeepNewest; total() still counts every result ever appended.

#ifndef DBTOUCH_CORE_RESULT_STREAM_H_
#define DBTOUCH_CORE_RESULT_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/touch_event.h"
#include "sim/virtual_clock.h"
#include "storage/types.h"
#include "storage/value.h"

namespace dbtouch::core {

using ObjectId = std::int64_t;

enum class ResultKind : std::uint8_t {
  kValue = 0,        // Plain scan: one data entry.
  kTuple = 1,        // Table tap: one attribute of a revealed tuple.
  kAggregate = 2,    // Running aggregate update.
  kSummary = 3,      // Interactive summary of a row band.
  kFilterMatch = 4,  // Entry passing the where-restriction.
  kJoinMatch = 5,    // Pair produced by a slide-driven join.
  kGroupUpdate = 6,  // Group-by bucket update.
};

const char* ResultKindName(ResultKind kind);

struct ResultItem {
  ObjectId object = 0;
  ResultKind kind = ResultKind::kValue;
  sim::Micros timestamp_us = 0;
  /// Where the value pops up (screen cm; shifted sideways from the touch
  /// so the finger does not hide it).
  sim::PointCm screen_position;
  /// Base row responsible for the result (band centre for summaries).
  storage::RowId row = 0;
  std::size_t attribute = 0;
  storage::Value value;
  /// Summary extras: the base-row band aggregated and how many entries
  /// were actually read to produce it.
  storage::RowId band_first = 0;
  storage::RowId band_last = 0;
  std::int64_t rows_aggregated = 0;
  /// True when produced from a sample rather than base data.
  bool approximate = false;
  /// Partial-answer protocol (paper Section 4): a deadline-pressed quantum
  /// answers from the resident sample level with partial = true, then
  /// refinement quanta re-execute at full fidelity as blocks land; each
  /// refinement carries the sequence number of the attempt that produced
  /// it (0 = the initial coarse answer).
  bool partial = false;
  std::int64_t refine_seq = 0;
};

struct VisibleResult {
  const ResultItem* item;
  /// 1.0 = just appeared (bold), decaying linearly to 0.0 at the fade
  /// deadline.
  double opacity;
};

class ResultStream {
 public:
  void Append(ResultItem item) { items_.push_back(std::move(item)); }

  /// The retained items, oldest first.
  const std::vector<ResultItem>& items() const { return items_; }
  /// Mutable access for refinement tagging: the kernel stamps refine_seq
  /// onto items appended by a just-executed refinement quantum.
  std::vector<ResultItem>& mutable_items() { return items_; }
  /// Items retained.
  std::int64_t size() const {
    return static_cast<std::int64_t>(items_.size());
  }
  /// Items ever appended: the retained ones plus those KeepNewest dropped.
  std::int64_t total() const { return dropped_ + size(); }
  const ResultItem& back() const { return items_.back(); }

  /// Drops the oldest items until at most `keep` remain.
  void KeepNewest(std::size_t keep);

  /// Results still on screen at `now`, most recent last, with opacities.
  std::vector<VisibleResult> VisibleAt(sim::Micros now) const;

  /// Count of items of the given kind.
  std::int64_t CountKind(ResultKind kind) const;

  /// Forgets every item, the dropped ones included.
  void Clear() {
    items_.clear();
    dropped_ = 0;
  }

  /// How long a result stays visible after appearing: 1.5 s, "soon
  /// after" in the paper's words (Section 2.3).
  static constexpr sim::Micros fade_us() { return 1'500'000; }

 private:
  std::vector<ResultItem> items_;
  std::int64_t dropped_ = 0;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_RESULT_STREAM_H_
