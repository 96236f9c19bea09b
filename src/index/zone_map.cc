#include "index/zone_map.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "exec/span_kernels.h"

namespace dbtouch::index {

namespace {

// Span-vectorized zone min/max: `if (v < min)` update order matches the
// scalar loop, so results are bit-identical (see span_kernels.h). String
// and strided views fall back to the per-row loop.
void AccumulateZone(const storage::ColumnView& rows, double* min_out,
                    double* max_out) {
  exec::MinMaxState state;
  if (exec::MinMaxSpan(rows, &state)) {
    if (state.min < *min_out) {
      *min_out = state.min;
    }
    if (state.max > *max_out) {
      *max_out = state.max;
    }
    return;
  }
  for (storage::RowId r = 0; r < rows.row_count(); ++r) {
    const double v = rows.GetAsDouble(r);
    *min_out = std::min(*min_out, v);
    *max_out = std::max(*max_out, v);
  }
}

}  // namespace

ZoneMap::ZoneMap(std::int64_t rows, std::int64_t rows_per_zone)
    : rows_per_zone_(rows_per_zone) {
  DBTOUCH_CHECK(rows_per_zone > 0);
  for (storage::RowId first = 0; first < rows; first += rows_per_zone) {
    Zone z;
    z.first = first;
    z.last = std::min<storage::RowId>(first + rows_per_zone - 1, rows - 1);
    z.min = std::numeric_limits<double>::infinity();
    z.max = -std::numeric_limits<double>::infinity();
    zones_.push_back(z);
  }
}

ZoneMap::ZoneMap(storage::ColumnView column, std::int64_t rows_per_zone)
    : ZoneMap(column.row_count(), rows_per_zone) {
  Add(column, 0);
  Finish();
}

Result<ZoneMap> ZoneMap::Build(storage::PagedColumnSource& source,
                               std::int64_t rows_per_zone) {
  ZoneMap map(source.row_count(), rows_per_zone);
  DBTOUCH_RETURN_IF_ERROR(storage::ScanBlocks(
      source, 0, source.row_count() - 1,
      [&map](const storage::ColumnView& rows, storage::RowId first_row) {
        map.Add(rows, first_row);
      }));
  map.Finish();
  return map;
}

void ZoneMap::Add(const storage::ColumnView& rows, storage::RowId first_row) {
  for (storage::RowId r = 0; r < rows.row_count();) {
    const storage::RowId row = first_row + r;
    Zone& z = zones_[static_cast<std::size_t>(row / rows_per_zone_)];
    const std::int64_t count =
        std::min<std::int64_t>(z.last - row + 1, rows.row_count() - r);
    AccumulateZone(rows.Slice(r, count), &z.min, &z.max);
    r += count;
  }
}

void ZoneMap::Finish() {
  global_min_ = std::numeric_limits<double>::infinity();
  global_max_ = -std::numeric_limits<double>::infinity();
  for (const Zone& z : zones_) {
    global_min_ = std::min(global_min_, z.min);
    global_max_ = std::max(global_max_, z.max);
  }
}

std::int64_t ZoneMap::ZoneOf(storage::RowId row) const {
  DBTOUCH_CHECK(row >= 0);
  const std::int64_t z = row / rows_per_zone_;
  DBTOUCH_CHECK(z < num_zones());
  return z;
}

bool ZoneMap::MayMatch(storage::RowId row, double lo, double hi) const {
  const Zone& z = zones_[static_cast<std::size_t>(ZoneOf(row))];
  return z.max >= lo && z.min <= hi;
}

std::vector<Zone> ZoneMap::MatchingZones(double lo, double hi) const {
  std::vector<Zone> out;
  for (const Zone& z : zones_) {
    if (z.max >= lo && z.min <= hi) {
      out.push_back(z);
    }
  }
  return out;
}

}  // namespace dbtouch::index
