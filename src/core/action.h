// Action configuration: what a gesture on a data object computes. "Users
// define the query they wish to run by choosing a few query actions (say a
// scan or an aggregate ...) and then they start a slide gesture"
// (paper Section 2.3).

#ifndef DBTOUCH_CORE_ACTION_H_
#define DBTOUCH_CORE_ACTION_H_

#include <cstdint>
#include <optional>

#include "exec/aggregate.h"
#include "exec/predicate.h"

namespace dbtouch::core {

enum class ActionKind : std::uint8_t {
  /// Surface the touched entry as-is (the default first look).
  kScan = 0,
  /// Maintain a running aggregate over all entries touched so far.
  kAggregate = 1,
  /// Interactive summary: aggregate the band around each touched entry
  /// (Section 2.7).
  kSummary = 2,
  /// Scan with a where-restriction; only passing entries surface
  /// (Section 2.9).
  kFilteredScan = 3,
  /// Table objects: group the touched tuples by a key attribute and
  /// aggregate a value attribute (Section 2.9).
  kGroupBy = 4,
};

const char* ActionKindName(ActionKind kind);

struct ActionConfig {
  ActionKind kind = ActionKind::kScan;
  /// Aggregation for kAggregate / kSummary / kGroupBy.
  exec::AggKind agg = exec::AggKind::kAvg;
  /// Half-width of the summary band, in entries of the level actually
  /// read (paper Section 2.7's parameter k).
  std::int64_t summary_k = 10;
  /// Where-restriction for kFilteredScan.
  std::optional<exec::Predicate> predicate;
  /// kFilteredScan: consult the column's zone map before reading, skipping
  /// touches whose zone cannot contain a match (paper Section 2.6
  /// "Indexing" — index support for exploration).
  bool use_zone_map = false;
  /// Key / value attribute indices for kGroupBy on table objects.
  std::size_t group_key_attribute = 0;
  std::size_t group_value_attribute = 0;

  friend bool operator==(const ActionConfig&, const ActionConfig&) = default;

  static ActionConfig Scan() { return ActionConfig{}; }
  static ActionConfig Aggregate(exec::AggKind agg) {
    ActionConfig c;
    c.kind = ActionKind::kAggregate;
    c.agg = agg;
    return c;
  }
  static ActionConfig Summary(std::int64_t k,
                              exec::AggKind agg = exec::AggKind::kAvg) {
    ActionConfig c;
    c.kind = ActionKind::kSummary;
    c.summary_k = k;
    c.agg = agg;
    return c;
  }
  static ActionConfig Filter(exec::Predicate predicate,
                             bool use_zone_map = false) {
    ActionConfig c;
    c.kind = ActionKind::kFilteredScan;
    c.predicate = predicate;
    c.use_zone_map = use_zone_map;
    return c;
  }
  static ActionConfig GroupBy(std::size_t key_attribute,
                              std::size_t value_attribute,
                              exec::AggKind agg) {
    ActionConfig c;
    c.kind = ActionKind::kGroupBy;
    c.group_key_attribute = key_attribute;
    c.group_value_attribute = value_attribute;
    c.agg = agg;
    return c;
  }
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_ACTION_H_
