// Sorted position index: (value, rowid) pairs in value order. "When
// querying an indexed column ... the slide gesture becomes the equivalent
// of an index scan" (Section 2.6): sliding over an indexed object walks
// the data in value order rather than position order.

#ifndef DBTOUCH_INDEX_SORTED_INDEX_H_
#define DBTOUCH_INDEX_SORTED_INDEX_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"

namespace dbtouch::index {

class SortedIndex {
 public:
  struct Entry {
    double value;
    storage::RowId row;
  };

  explicit SortedIndex(storage::ColumnView column);

  std::int64_t size() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// The i-th entry in value order.
  double ValueAt(std::int64_t i) const {
    return entries_[static_cast<std::size_t>(i)].value;
  }
  storage::RowId RowAt(std::int64_t i) const {
    return entries_[static_cast<std::size_t>(i)].row;
  }

  /// Index of the first entry with value >= v (size() if none).
  std::int64_t LowerBound(double v) const;

  /// Rows whose values fall in [lo, hi], in value order. This is the index
  /// scan a filtered slide performs.
  std::vector<storage::RowId> RowsInValueRange(double lo, double hi) const;

  /// Count of rows in [lo, hi] without materialising them (selectivity
  /// estimation for the adaptive optimizer).
  std::int64_t CountInValueRange(double lo, double hi) const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace dbtouch::index

#endif  // DBTOUCH_INDEX_SORTED_INDEX_H_
