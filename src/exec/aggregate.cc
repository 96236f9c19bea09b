#include "exec/aggregate.h"

#include <cmath>

namespace dbtouch::exec {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kVariance:
      return "variance";
    case AggKind::kStdDev:
      return "stddev";
  }
  return "?";
}

double RunningAggregate::LaneSum() const {
  static_assert(kLanes == 8, "the combine tree below is written for 8 lanes");
  return ((lanes_[0] + lanes_[1]) + (lanes_[2] + lanes_[3])) +
         ((lanes_[4] + lanes_[5]) + (lanes_[6] + lanes_[7]));
}

double RunningAggregate::value() const {
  if (kind_ == AggKind::kCount) {
    return static_cast<double>(count_);
  }
  if (count_ == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  switch (kind_) {
    case AggKind::kSum:
      return LaneSum();
    case AggKind::kAvg:
      return LaneSum() / static_cast<double>(count_);
    case AggKind::kMin:
      return min_;
    case AggKind::kMax:
      return max_;
    case AggKind::kVariance:
      return m2_ / static_cast<double>(count_);
    case AggKind::kStdDev:
      return std::sqrt(m2_ / static_cast<double>(count_));
    case AggKind::kCount:
      break;  // Handled above.
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void RunningAggregate::Reset() {
  count_ = 0;
  for (double& lane : lanes_) {
    lane = 0.0;
  }
  mean_ = 0.0;
  m2_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

bool TouchedAggregateOp::Feed(storage::RowId row) {
  if (!cursor_.InRange(row)) {
    return false;
  }
  if (!seen_.insert(row).second) {
    return false;
  }
  agg_.Add(cursor_.GetAsDouble(row));
  return true;
}

std::int64_t TouchedAggregateOp::FeedRange(storage::RowId first,
                                           storage::RowId last) {
  if (!cursor_.valid() || cursor_.row_count() == 0) {
    return 0;
  }
  std::int64_t added = 0;
  cursor_.Scan(first, last,
               [&](const storage::ColumnView& rows, storage::RowId base) {
                 const std::int64_t count = rows.row_count();
                 for (std::int64_t i = 0; i < count; ++i) {
                   if (seen_.insert(base + i).second) {
                     agg_.Add(rows.GetAsDouble(i));
                     ++added;
                   }
                 }
               });
  return added;
}

double TouchedAggregateOp::coverage() const {
  if (cursor_.row_count() == 0) {
    return 0.0;
  }
  return static_cast<double>(seen_.size()) /
         static_cast<double>(cursor_.row_count());
}

void TouchedAggregateOp::Reset() {
  agg_.Reset();
  seen_.clear();
}

}  // namespace dbtouch::exec
