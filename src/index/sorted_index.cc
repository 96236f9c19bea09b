#include "index/sorted_index.h"

#include <algorithm>

namespace dbtouch::index {

SortedIndex::SortedIndex(storage::ColumnView column) {
  entries_.reserve(static_cast<std::size_t>(column.row_count()));
  for (storage::RowId r = 0; r < column.row_count(); ++r) {
    entries_.push_back(Entry{column.GetAsDouble(r), r});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              if (a.value != b.value) {
                return a.value < b.value;
              }
              return a.row < b.row;
            });
}

std::int64_t SortedIndex::LowerBound(double v) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const Entry& e, double x) { return e.value < x; });
  return it - entries_.begin();
}

std::vector<storage::RowId> SortedIndex::RowsInValueRange(double lo,
                                                          double hi) const {
  std::vector<storage::RowId> out;
  for (std::int64_t i = LowerBound(lo);
       i < size() && ValueAt(i) <= hi; ++i) {
    out.push_back(RowAt(i));
  }
  return out;
}

std::int64_t SortedIndex::CountInValueRange(double lo, double hi) const {
  const std::int64_t first = LowerBound(lo);
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), hi,
      [](double x, const Entry& e) { return x < e.value; });
  return (it - entries_.begin()) - first;
}

}  // namespace dbtouch::index
