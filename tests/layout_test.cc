// Unit tests for incremental layout rotation and schema restructuring.

#include <gtest/gtest.h>

#include <memory>

#include "layout/restructure.h"
#include "layout/rotation.h"
#include "storage/catalog.h"
#include "storage/datagen.h"

namespace dbtouch::layout {
namespace {

using storage::Catalog;
using storage::Column;
using storage::MajorOrder;
using storage::RowId;
using storage::Table;

std::shared_ptr<Table> MakeTable(std::int64_t rows, MajorOrder order) {
  std::vector<Column> cols;
  cols.push_back(storage::GenSequenceInt64("id", rows, 0, 1));
  cols.push_back(storage::GenUniformInt32("a", rows, 0, 999, 1));
  cols.push_back(storage::GenGaussianDouble("b", rows, 5.0, 1.0, 2));
  auto t = Table::FromColumns("t", std::move(cols), order);
  return std::move(t).value();
}

TEST(RotatorTest, NoopWhenAlreadyInTargetOrder) {
  auto t = MakeTable(100, MajorOrder::kColumnMajor);
  IncrementalRotator rotator(t.get(), MajorOrder::kColumnMajor, 10);
  EXPECT_TRUE(rotator.IsNoop());
  EXPECT_TRUE(rotator.done());
  EXPECT_TRUE(rotator.Finish().ok());
  EXPECT_EQ(t->layout(), MajorOrder::kColumnMajor);
}

TEST(RotatorTest, StepsConvertBoundedChunks) {
  auto t = MakeTable(1000, MajorOrder::kColumnMajor);
  IncrementalRotator rotator(t.get(), MajorOrder::kRowMajor, 100);
  EXPECT_FALSE(rotator.done());
  rotator.Step();
  EXPECT_EQ(rotator.rows_converted(), 100);
  EXPECT_NEAR(rotator.progress(), 0.1, 1e-9);
  // Reads still come from the old layout mid-conversion.
  EXPECT_EQ(t->layout(), MajorOrder::kColumnMajor);
  EXPECT_EQ(t->GetValue(999, 0)->AsInt(), 999);
}

TEST(RotatorTest, FinishBeforeDoneFails) {
  auto t = MakeTable(1000, MajorOrder::kColumnMajor);
  IncrementalRotator rotator(t.get(), MajorOrder::kRowMajor, 100);
  rotator.Step();
  EXPECT_EQ(rotator.Finish().code(), StatusCode::kFailedPrecondition);
}

TEST(RotatorTest, CompleteRotationPreservesAllData) {
  auto t = MakeTable(1234, MajorOrder::kColumnMajor);
  // Record the table contents before rotation.
  std::vector<std::int64_t> ids;
  std::vector<double> bs;
  for (RowId r = 0; r < t->row_count(); ++r) {
    ids.push_back(t->GetValue(r, 0)->AsInt());
    bs.push_back(t->GetValue(r, 2)->AsDouble());
  }
  IncrementalRotator rotator(t.get(), MajorOrder::kRowMajor, 100);
  int steps = 0;
  while (!rotator.Step()) {
    ++steps;
  }
  EXPECT_GE(steps, 11);  // 1234/100 chunks.
  ASSERT_TRUE(rotator.Finish().ok());
  EXPECT_EQ(t->layout(), MajorOrder::kRowMajor);
  for (RowId r = 0; r < t->row_count(); ++r) {
    EXPECT_EQ(t->GetValue(r, 0)->AsInt(), ids[static_cast<std::size_t>(r)]);
    EXPECT_DOUBLE_EQ(t->GetValue(r, 2)->AsDouble(),
                     bs[static_cast<std::size_t>(r)]);
  }
}

TEST(RotatorTest, DoubleFinishFails) {
  auto t = MakeTable(50, MajorOrder::kColumnMajor);
  IncrementalRotator rotator(t.get(), MajorOrder::kRowMajor, 100);
  rotator.Step();
  ASSERT_TRUE(rotator.Finish().ok());
  EXPECT_EQ(rotator.Finish().code(), StatusCode::kFailedPrecondition);
}

TEST(RotatorTest, RoundTripRotationIsIdentity) {
  auto t = MakeTable(500, MajorOrder::kColumnMajor);
  const double before = t->GetValue(250, 2)->AsDouble();
  for (const MajorOrder target :
       {MajorOrder::kRowMajor, MajorOrder::kColumnMajor}) {
    IncrementalRotator rotator(t.get(), target, 64);
    while (!rotator.Step()) {
    }
    ASSERT_TRUE(rotator.Finish().ok());
  }
  EXPECT_EQ(t->layout(), MajorOrder::kColumnMajor);
  EXPECT_DOUBLE_EQ(t->GetValue(250, 2)->AsDouble(), before);
}

TEST(RotateMonolithicTest, ConvertsInOneCall) {
  auto t = MakeTable(300, MajorOrder::kRowMajor);
  ASSERT_TRUE(RotateMonolithic(t.get(), MajorOrder::kColumnMajor).ok());
  EXPECT_EQ(t->layout(), MajorOrder::kColumnMajor);
  EXPECT_EQ(t->GetValue(299, 0)->AsInt(), 299);
  EXPECT_TRUE(RotateMonolithic(nullptr, MajorOrder::kColumnMajor)
                  .IsInvalidArgument());
}

TEST(RestructureTest, ExtractColumnToTable) {
  Catalog catalog;
  auto t = MakeTable(100, MajorOrder::kColumnMajor);
  ASSERT_TRUE(catalog.Register(t).ok());
  const auto extracted =
      ExtractColumnToTable(&catalog, *t, 2, "t_b");
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_TRUE(catalog.Contains("t_b"));
  EXPECT_EQ((*extracted)->schema().num_fields(), 1u);
  EXPECT_EQ((*extracted)->row_count(), 100);
  EXPECT_DOUBLE_EQ((*extracted)->GetValue(42, 0)->AsDouble(),
                   t->GetValue(42, 2)->AsDouble());
}

TEST(RestructureTest, ExtractRejectsBadColumn) {
  Catalog catalog;
  auto t = MakeTable(10, MajorOrder::kColumnMajor);
  EXPECT_TRUE(ExtractColumnToTable(&catalog, *t, 99, "x")
                  .status()
                  .IsOutOfRange());
}

TEST(RestructureTest, GroupTablesCombinesColumns) {
  Catalog catalog;
  std::vector<Column> a;
  a.push_back(Column::FromInt32("x", {1, 2, 3}));
  ASSERT_TRUE(catalog.Register(*Table::FromColumns("ta", std::move(a))).ok());
  std::vector<Column> b;
  b.push_back(Column::FromDouble("y", {0.1, 0.2, 0.3}));
  ASSERT_TRUE(catalog.Register(*Table::FromColumns("tb", std::move(b))).ok());
  const auto grouped = GroupTables(&catalog, {"ta", "tb"}, "tc");
  ASSERT_TRUE(grouped.ok()) << grouped.status();
  EXPECT_EQ((*grouped)->schema().num_fields(), 2u);
  EXPECT_EQ((*grouped)->GetValue(1, 0)->AsInt(), 2);
  EXPECT_DOUBLE_EQ((*grouped)->GetValue(1, 1)->AsDouble(), 0.2);
  EXPECT_TRUE(catalog.Contains("tc"));
}

TEST(RestructureTest, GroupRejectsRaggedTables) {
  Catalog catalog;
  std::vector<Column> a;
  a.push_back(Column::FromInt32("x", {1, 2, 3}));
  ASSERT_TRUE(catalog.Register(*Table::FromColumns("ta", std::move(a))).ok());
  std::vector<Column> b;
  b.push_back(Column::FromInt32("y", {1}));
  ASSERT_TRUE(catalog.Register(*Table::FromColumns("tb", std::move(b))).ok());
  EXPECT_TRUE(GroupTables(&catalog, {"ta", "tb"}, "tc")
                  .status()
                  .IsInvalidArgument());
}

TEST(RestructureTest, GroupRejectsDuplicateColumnNames) {
  Catalog catalog;
  for (const char* name : {"ta", "tb"}) {
    std::vector<Column> cols;
    cols.push_back(Column::FromInt32("same", {1, 2}));
    ASSERT_TRUE(
        catalog.Register(*Table::FromColumns(name, std::move(cols))).ok());
  }
  EXPECT_TRUE(GroupTables(&catalog, {"ta", "tb"}, "tc")
                  .status()
                  .IsInvalidArgument());
}

TEST(RestructureTest, GroupRejectsMissingTable) {
  Catalog catalog;
  EXPECT_TRUE(
      GroupTables(&catalog, {"ghost"}, "tc").status().IsNotFound());
}

}  // namespace
}  // namespace dbtouch::layout
