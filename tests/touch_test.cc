// Unit and property tests for the view system and touch->tuple mapping.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "touch/data_object_view.h"
#include "touch/touch_mapper.h"
#include "touch/view.h"

namespace dbtouch::touch {
namespace {

using sim::PointCm;

TEST(RectTest, ContainsEdgesInclusive) {
  const RectCm r{1.0, 2.0, 3.0, 4.0};
  EXPECT_TRUE(r.Contains(PointCm{1.0, 2.0}));
  EXPECT_TRUE(r.Contains(PointCm{4.0, 6.0}));
  EXPECT_TRUE(r.Contains(PointCm{2.0, 3.0}));
  EXPECT_FALSE(r.Contains(PointCm{0.9, 3.0}));
  EXPECT_FALSE(r.Contains(PointCm{2.0, 6.1}));
}

TEST(ViewTest, AddChildSetsParent) {
  View root("root", RectCm{0, 0, 20, 15});
  View* child = root.AddChild(
      std::make_unique<View>("child", RectCm{2, 3, 5, 5}));
  EXPECT_EQ(child->parent(), &root);
  EXPECT_EQ(root.children().size(), 1u);
}

TEST(ViewTest, RemoveChildReturnsOwnership) {
  View root("root", RectCm{0, 0, 20, 15});
  View* child = root.AddChild(
      std::make_unique<View>("child", RectCm{2, 3, 5, 5}));
  auto removed = root.RemoveChild(child);
  ASSERT_NE(removed, nullptr);
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_TRUE(root.children().empty());
  EXPECT_EQ(root.RemoveChild(child), nullptr);  // Already gone.
}

TEST(ViewTest, HitTestFindsDeepestView) {
  View root("root", RectCm{0, 0, 20, 15});
  View* mid = root.AddChild(
      std::make_unique<View>("mid", RectCm{5, 5, 10, 8}));
  View* inner = mid->AddChild(
      std::make_unique<View>("inner", RectCm{2, 2, 3, 3}));
  EXPECT_EQ(root.HitTest(PointCm{1, 1}), &root);
  EXPECT_EQ(root.HitTest(PointCm{6, 6}), mid);
  EXPECT_EQ(root.HitTest(PointCm{8, 8}), inner);
  EXPECT_EQ(root.HitTest(PointCm{25, 5}), nullptr);
}

TEST(ViewTest, HitTestTopmostSiblingWins) {
  View root("root", RectCm{0, 0, 20, 15});
  root.AddChild(std::make_unique<View>("below", RectCm{2, 2, 6, 6}));
  View* above = root.AddChild(
      std::make_unique<View>("above", RectCm{4, 4, 6, 6}));
  EXPECT_EQ(root.HitTest(PointCm{5, 5}), above);  // Overlap region.
}

TEST(ViewTest, CoordinateRoundTrip) {
  View root("root", RectCm{0, 0, 20, 15});
  View* mid = root.AddChild(
      std::make_unique<View>("mid", RectCm{5, 5, 10, 8}));
  View* inner = mid->AddChild(
      std::make_unique<View>("inner", RectCm{2, 2, 3, 3}));
  const PointCm screen{8.5, 9.0};
  const PointCm local = inner->ScreenToLocal(screen);
  EXPECT_DOUBLE_EQ(local.x, 1.5);
  EXPECT_DOUBLE_EQ(local.y, 2.0);
  const PointCm back = inner->LocalToScreen(local);
  EXPECT_DOUBLE_EQ(back.x, screen.x);
  EXPECT_DOUBLE_EQ(back.y, screen.y);
}

TEST(DataObjectViewTest, ColumnObjectProperties) {
  DataObjectView col("c", RectCm{1, 1, 2, 10}, ObjectKind::kColumn, 1000000,
                     1);
  EXPECT_EQ(col.kind(), ObjectKind::kColumn);
  EXPECT_EQ(col.tuple_count(), 1000000);
  EXPECT_DOUBLE_EQ(col.tuple_axis_extent(), 10.0);
  EXPECT_DOUBLE_EQ(col.attribute_axis_extent(), 2.0);
}

TEST(DataObjectViewTest, FlipOrientationSwapsAxes) {
  DataObjectView col("c", RectCm{1, 1, 2, 10}, ObjectKind::kColumn, 100, 1);
  col.FlipOrientation();
  EXPECT_EQ(col.orientation(), Orientation::kHorizontal);
  EXPECT_DOUBLE_EQ(col.tuple_axis_extent(), 10.0);  // Still 10 along x now.
  EXPECT_DOUBLE_EQ(col.frame().width, 10.0);
  EXPECT_DOUBLE_EQ(col.frame().height, 2.0);
  col.FlipOrientation();
  EXPECT_EQ(col.orientation(), Orientation::kVertical);
}

TEST(DataObjectViewTest, ZoomScalesAboutCenter) {
  DataObjectView col("c", RectCm{4, 2, 2, 10}, ObjectKind::kColumn, 100, 1);
  const PointCm before = col.frame().center();
  col.ApplyZoom(2.0, 0.5, 40.0);
  const PointCm after = col.frame().center();
  EXPECT_NEAR(before.x, after.x, 1e-9);
  EXPECT_NEAR(before.y, after.y, 1e-9);
  EXPECT_DOUBLE_EQ(col.frame().height, 20.0);
  EXPECT_DOUBLE_EQ(col.frame().width, 4.0);
}

TEST(DataObjectViewTest, ZoomClampsToBounds) {
  DataObjectView col("c", RectCm{4, 2, 2, 10}, ObjectKind::kColumn, 100, 1);
  col.ApplyZoom(100.0, 0.5, 25.0);
  EXPECT_DOUBLE_EQ(col.frame().height, 25.0);
  col.ApplyZoom(0.0001, 0.5, 25.0);
  EXPECT_DOUBLE_EQ(col.frame().width, 0.5);
}

TEST(DataObjectViewTest, Binding) {
  DataObjectView v("v", RectCm{0, 0, 2, 10}, ObjectKind::kColumn, 100, 1);
  v.BindColumn("sky", 3);
  EXPECT_EQ(v.table_name(), "sky");
  ASSERT_TRUE(v.column_index().has_value());
  EXPECT_EQ(*v.column_index(), 3u);
  v.BindTable("sky");
  EXPECT_FALSE(v.column_index().has_value());
}

TEST(TouchMapperTest, RuleOfThreeMatchesPaperFormula) {
  // id = n * t / o (paper Section 2.4).
  EXPECT_EQ(MapPositionToRow(5.0, 10.0, 10'000'000), 5'000'000);
  EXPECT_EQ(MapPositionToRow(0.0, 10.0, 1000), 0);
  EXPECT_EQ(MapPositionToRow(2.5, 10.0, 1000), 250);
}

TEST(TouchMapperTest, ClampsToValidRows) {
  EXPECT_EQ(MapPositionToRow(10.0, 10.0, 1000), 999);   // Bottom edge.
  EXPECT_EQ(MapPositionToRow(11.0, 10.0, 1000), 999);   // Past the edge.
  EXPECT_EQ(MapPositionToRow(-1.0, 10.0, 1000), 0);     // Above the top.
  EXPECT_EQ(MapPositionToRow(5.0, 0.0, 1000), 0);       // Degenerate size.
  EXPECT_EQ(MapPositionToRow(5.0, 10.0, 0), 0);         // Empty column.
}

// A slide that began on an object may move to any coordinate: the row
// and the attribute clamp in double, before any cast.
TEST(TouchMapperTest, FarTouchesClampBeforeTheCast) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(MapPositionToRow(1e300, 10.0, 1000), 999);
  EXPECT_EQ(MapPositionToRow(inf, 10.0, 1000), 999);
  EXPECT_EQ(MapPositionToRow(-1e300, 10.0, 1000), 0);
  EXPECT_EQ(MapPositionToRow(std::nan(""), 10.0, 1000), 0);
  EXPECT_EQ(MapPositionToRow(5.0, std::nan(""), 1000), 0);
  DataObjectView table("t", RectCm{0, 0, 8, 10}, ObjectKind::kTable, 1000,
                       4);
  EXPECT_EQ(MapTouch(table, PointCm{1e300, 5.0}).attribute, 3u);
  EXPECT_EQ(MapTouch(table, PointCm{-1e300, 5.0}).attribute, 0u);
  EXPECT_EQ(MapTouch(table, PointCm{3.0, 1e300}).row, 999);
}

TEST(TouchMapperTest, RowToPositionInvertsWithinOnePosition) {
  const std::int64_t n = 10'000'000;
  const double o = 10.0;
  for (const storage::RowId row : {0L, 123'456L, 5'000'000L, 9'999'999L}) {
    const double t = RowToPosition(row, o, n);
    EXPECT_EQ(MapPositionToRow(t, o, n), row);
  }
}

TEST(TouchMapperTest, VerticalColumnUsesY) {
  DataObjectView col("c", RectCm{0, 0, 2, 10}, ObjectKind::kColumn, 1000, 1);
  const TouchMapping m = MapTouch(col, PointCm{1.0, 2.5});
  EXPECT_EQ(m.row, 250);
  EXPECT_EQ(m.attribute, 0u);
}

TEST(TouchMapperTest, HorizontalColumnUsesX) {
  DataObjectView col("c", RectCm{0, 0, 2, 10}, ObjectKind::kColumn, 1000, 1);
  col.FlipOrientation();  // Now 10 wide, 2 tall.
  const TouchMapping m = MapTouch(col, PointCm{2.5, 1.0});
  EXPECT_EQ(m.row, 250);
}

TEST(TouchMapperTest, TableMapsAttributeFromCrossAxis) {
  // 4-attribute table, 8cm wide: each attribute band is 2cm.
  DataObjectView table("t", RectCm{0, 0, 8, 10}, ObjectKind::kTable, 1000,
                       4);
  EXPECT_EQ(MapTouch(table, PointCm{0.5, 5.0}).attribute, 0u);
  EXPECT_EQ(MapTouch(table, PointCm{3.0, 5.0}).attribute, 1u);
  EXPECT_EQ(MapTouch(table, PointCm{7.9, 5.0}).attribute, 3u);
  EXPECT_EQ(MapTouch(table, PointCm{3.0, 5.0}).row, 500);
}

TEST(TouchMapperTest, RotatedTableKeepsMappingConsistent) {
  // Paper: "when we rotate an object ... touches and identifiers
  // calculated relative to the object view are not affected."
  DataObjectView table("t", RectCm{0, 0, 8, 10}, ObjectKind::kTable, 1000,
                       4);
  const storage::RowId row_before = MapTouch(table, PointCm{3.0, 5.0}).row;
  table.FlipOrientation();  // Now 10 wide, 8 tall; x is the tuple axis.
  const TouchMapping after = MapTouch(table, PointCm{5.0, 3.0});
  EXPECT_EQ(after.row, row_before);
  EXPECT_EQ(after.attribute, 1u);
}

TEST(TouchMapperTest, TuplesPerPosition) {
  // 10^7 tuples on a 10cm object at 52 positions/cm: ~19231 tuples/touch.
  const double tpp = TuplesPerPosition(10'000'000, 10.0, 52.0);
  EXPECT_NEAR(tpp, 19230.8, 1.0);
  // Small data on a large object: every tuple addressable -> 1.
  EXPECT_DOUBLE_EQ(TuplesPerPosition(100, 10.0, 52.0), 1.0);
}

// Property sweep: mapping is monotonic in touch position and covers the
// full row range, for several object sizes and tuple counts.
class MapperPropertyTest
    : public testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(MapperPropertyTest, MonotonicAndCovering) {
  const auto [extent, n] = GetParam();
  storage::RowId prev = -1;
  const int steps = 500;
  for (int i = 0; i <= steps; ++i) {
    const double t = extent * static_cast<double>(i) / steps;
    const storage::RowId row = MapPositionToRow(t, extent, n);
    EXPECT_GE(row, prev) << "mapping must be monotonic";
    EXPECT_GE(row, 0);
    EXPECT_LT(row, n);
    prev = row;
  }
  EXPECT_EQ(MapPositionToRow(0.0, extent, n), 0);
  EXPECT_EQ(MapPositionToRow(extent, extent, n), n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MapperPropertyTest,
    testing::Combine(testing::Values(1.5, 10.0, 24.0),
                     testing::Values<std::int64_t>(10, 1000, 10'000'000)));

}  // namespace
}  // namespace dbtouch::touch
