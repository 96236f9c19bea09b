// Predicates for filtered slides: "the slide gesture can be used ... to
// perform selections by posing a where restriction to the scan"
// (Section 2.9 "Complex Queries").

#ifndef DBTOUCH_EXEC_PREDICATE_H_
#define DBTOUCH_EXEC_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/column.h"
#include "storage/paged_column.h"
#include "storage/types.h"

namespace dbtouch::exec {

enum class CompareOp : std::uint8_t {
  kLt = 0,
  kLe = 1,
  kEq = 2,
  kNe = 3,
  kGe = 4,
  kGt = 5,
  kBetween = 6,  // lo <= v <= hi
};

std::string_view CompareOpName(CompareOp op);

/// Compares a column's numeric view against constants. String columns
/// compare on dictionary codes, which supports equality against a code
/// obtained from Dictionary::Find.
class Predicate {
 public:
  Predicate(CompareOp op, double constant)
      : op_(op), lo_(constant), hi_(constant) {}

  /// Between-predicate [lo, hi].
  Predicate(double lo, double hi) : op_(CompareOp::kBetween), lo_(lo),
                                    hi_(hi) {}

  bool Matches(double v) const;

  bool MatchesRow(const storage::ColumnView& column,
                  storage::RowId row) const {
    return column.InRange(row) && Matches(column.GetAsDouble(row));
  }

  CompareOp op() const { return op_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Closed interval [lo, hi] (with +-infinity) containing every value the
  /// predicate can accept. Zone maps prune blocks disjoint from it. For
  /// kNe the interval is the full line (no pruning possible).
  struct Interval {
    double lo;
    double hi;
  };
  Interval ValueInterval() const;

  /// Selectivity-free pretty form for logs, e.g. "< 10".
  std::string ToString() const;

  friend bool operator==(const Predicate&, const Predicate&) = default;

 private:
  CompareOp op_;
  double lo_;
  double hi_;
};

/// Filtered per-touch scan: each fed row either passes (value surfaced) or
/// not. Tracks pass/total counts so sessions can report observed
/// selectivity.
class FilteredScanOp {
 public:
  /// ColumnView form = unpaged zero-copy reads; source form = reads pinned
  /// through the shared BufferManager (see TouchedAggregateOp).
  FilteredScanOp(storage::ColumnView column, Predicate predicate)
      : cursor_(column), predicate_(predicate) {}
  FilteredScanOp(std::shared_ptr<storage::PagedColumnSource> source,
                 Predicate predicate)
      : cursor_(std::move(source)), predicate_(predicate) {}

  /// True when the row is in range and satisfies the predicate.
  bool Feed(storage::RowId row);

  /// Block-at-a-time filtered scan of base rows [first, last] (clamped to
  /// the column): appends every passing base RowId, ascending, to the
  /// selection vector `out_rows` (null = count only) and returns the
  /// number appended. Decision-for-decision identical to feeding each row
  /// through Feed; pass/fed counts accrue the same way. Contiguous
  /// numeric blocks run the vectorized FilterSpan kernel; string/strided
  /// blocks fall back to per-row evaluation.
  std::int64_t FeedRange(storage::RowId first, storage::RowId last,
                         std::vector<storage::RowId>* out_rows);

  std::int64_t rows_fed() const { return rows_fed_; }
  std::int64_t rows_passed() const { return rows_passed_; }
  double observed_selectivity() const {
    return rows_fed_ == 0 ? 0.0
                          : static_cast<double>(rows_passed_) /
                                static_cast<double>(rows_fed_);
  }

  /// Drops the cursor's working pin (see TouchedAggregateOp::ReleasePin).
  void ReleasePin() { cursor_.ReleasePin(); }

 private:
  storage::PagedColumnCursor cursor_;
  Predicate predicate_;
  std::int64_t rows_fed_ = 0;
  std::int64_t rows_passed_ = 0;
};

}  // namespace dbtouch::exec

#endif  // DBTOUCH_EXEC_PREDICATE_H_
