#include "touch/touch_mapper.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace dbtouch::touch {

storage::RowId MapPositionToRow(double t_cm, double extent_cm,
                                std::int64_t n) {
  if (n <= 0 || !(extent_cm > 0.0)) {
    return 0;
  }
  // Clamp in double before the cast: a slide that began on the object may
  // move to any coordinate.
  const double id = std::floor(static_cast<double>(n) * t_cm / extent_cm);
  if (!(id > 0.0)) {
    return 0;  // Also NaN.
  }
  if (id >= static_cast<double>(n - 1)) {
    return n - 1;
  }
  return static_cast<storage::RowId>(id);
}

double RowToPosition(storage::RowId row, double extent_cm, std::int64_t n) {
  if (n <= 0) {
    return 0.0;
  }
  // Centre of the band of positions that maps to `row`.
  return (static_cast<double>(row) + 0.5) * extent_cm /
         static_cast<double>(n);
}

TouchMapping MapTouch(const DataObjectView& object, const PointCm& local) {
  TouchMapping out;
  const bool vertical = object.orientation() == Orientation::kVertical;
  const double t = vertical ? local.y : local.x;
  out.row = MapPositionToRow(t, object.tuple_axis_extent(),
                             object.tuple_count());
  if (object.kind() == ObjectKind::kTable && object.num_attributes() > 1) {
    const double cross = vertical ? local.x : local.y;
    const double cross_extent = object.attribute_axis_extent();
    if (cross_extent > 0.0) {
      const auto attrs = static_cast<double>(object.num_attributes());
      // Clamped in double before the cast, like the row.
      const double idx = std::floor(cross / cross_extent * attrs);
      out.attribute = idx > 0.0 ? static_cast<std::size_t>(
                                      std::min(idx, attrs - 1.0))
                                : 0;
    }
  }
  return out;
}

double TuplesPerPosition(std::int64_t n, double extent_cm,
                         double positions_per_cm) {
  if (n <= 0 || extent_cm <= 0.0 || positions_per_cm <= 0.0) {
    return 1.0;
  }
  const double positions = extent_cm * positions_per_cm;
  return std::max(1.0, static_cast<double>(n) / positions);
}

}  // namespace dbtouch::touch
