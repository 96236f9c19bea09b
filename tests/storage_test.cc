// Unit tests for src/storage: types, values, dictionary, columns, matrices
// (both major orders), tables, catalog and data generators.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/datagen.h"
#include "storage/dictionary.h"
#include "storage/matrix.h"
#include "storage/paged_column.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/types.h"
#include "storage/value.h"

namespace dbtouch::storage {
namespace {

TEST(TypesTest, WidthsAreFixed) {
  EXPECT_EQ(TypeWidth(DataType::kInt32), 4u);
  EXPECT_EQ(TypeWidth(DataType::kInt64), 8u);
  EXPECT_EQ(TypeWidth(DataType::kFloat), 4u);
  EXPECT_EQ(TypeWidth(DataType::kDouble), 8u);
  EXPECT_EQ(TypeWidth(DataType::kString), 4u);  // dictionary code
}

TEST(TypesTest, Names) {
  EXPECT_EQ(DataTypeName(DataType::kInt32), "int32");
  EXPECT_EQ(DataTypeName(DataType::kString), "string");
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_FALSE(IsNumeric(DataType::kString));
}

TEST(ValueTest, IntRoundTrip) {
  const Value v(std::int64_t{42});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.AsInt(), 42);
  EXPECT_DOUBLE_EQ(v.ToDouble(), 42.0);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, DoubleRoundTrip) {
  const Value v(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(ValueTest, StringRoundTrip) {
  const Value v(std::string("hi"));
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hi");
  EXPECT_EQ(v.ToString(), "hi");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value(std::int64_t{1}), Value(std::int64_t{1}));
  EXPECT_FALSE(Value(std::int64_t{1}) == Value(1.0));
}

TEST(DictionaryTest, InternAssignsDenseCodes) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.Intern("b"), 1);
  EXPECT_EQ(dict.Intern("a"), 0);  // Idempotent.
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.Lookup(1), "b");
}

TEST(DictionaryTest, FindDoesNotInsert) {
  Dictionary dict;
  EXPECT_EQ(dict.Find("missing"), -1);
  EXPECT_EQ(dict.size(), 0);
  dict.Intern("x");
  EXPECT_EQ(dict.Find("x"), 0);
}

TEST(SchemaTest, OffsetsAndWidth) {
  const Schema s({{"a", DataType::kInt32},
                  {"b", DataType::kDouble},
                  {"c", DataType::kInt64}});
  EXPECT_EQ(s.num_fields(), 3u);
  EXPECT_EQ(s.row_width(), 20u);
  EXPECT_EQ(s.field_offset(0), 0u);
  EXPECT_EQ(s.field_offset(1), 4u);
  EXPECT_EQ(s.field_offset(2), 12u);
}

TEST(SchemaTest, FieldIndexLookup) {
  const Schema s({{"x", DataType::kInt32}, {"y", DataType::kFloat}});
  ASSERT_TRUE(s.FieldIndex("y").ok());
  EXPECT_EQ(s.FieldIndex("y").value(), 1u);
  EXPECT_TRUE(s.FieldIndex("z").status().IsNotFound());
}

TEST(SchemaTest, Project) {
  const Schema s({{"a", DataType::kInt32},
                  {"b", DataType::kDouble},
                  {"c", DataType::kInt64}});
  const Schema p = s.Project({2, 0});
  ASSERT_EQ(p.num_fields(), 2u);
  EXPECT_EQ(p.field(0).name, "c");
  EXPECT_EQ(p.field(1).name, "a");
  EXPECT_EQ(p.row_width(), 12u);
}

TEST(SchemaTest, ToStringListsFields) {
  const Schema s({{"a", DataType::kInt32}});
  EXPECT_EQ(s.ToString(), "(a:int32)");
}

TEST(ColumnTest, TypedAppendAndRead) {
  Column c("c", DataType::kInt32);
  c.AppendInt32(7);
  c.AppendInt32(-3);
  EXPECT_EQ(c.row_count(), 2);
  const ColumnView v = c.View();
  EXPECT_EQ(v.GetInt32(0), 7);
  EXPECT_EQ(v.GetInt32(1), -3);
  EXPECT_DOUBLE_EQ(v.GetAsDouble(1), -3.0);
}

TEST(ColumnTest, FromVectors) {
  const Column a = Column::FromInt64("a", {1, 2, 3});
  EXPECT_EQ(a.View().GetInt64(2), 3);
  const Column d = Column::FromDouble("d", {1.5, 2.5});
  EXPECT_DOUBLE_EQ(d.View().GetDouble(0), 1.5);
  const Column f = Column::FromFloat("f", {0.5f});
  EXPECT_FLOAT_EQ(f.View().GetFloat(0), 0.5f);
}

TEST(ColumnTest, StringColumnDictEncodes) {
  const Column c = Column::FromStrings("s", {"x", "y", "x", "z"});
  EXPECT_EQ(c.row_count(), 4);
  EXPECT_EQ(c.dictionary()->size(), 3);
  const ColumnView v = c.View();
  EXPECT_EQ(v.GetInt32(0), v.GetInt32(2));  // Same code for "x".
  EXPECT_EQ(v.GetValue(1).AsString(), "y");
}

TEST(ColumnTest, AppendValueChecksType) {
  Column c("c", DataType::kDouble);
  c.AppendValue(Value(1.25));
  c.AppendValue(Value(std::int64_t{2}));  // Int coerces into double column.
  EXPECT_DOUBLE_EQ(c.View().GetDouble(0), 1.25);
  EXPECT_DOUBLE_EQ(c.View().GetDouble(1), 2.0);
}

TEST(ColumnViewTest, SliceWindows) {
  const Column c = Column::FromInt32("c", {10, 20, 30, 40, 50});
  const ColumnView s = c.View().Slice(1, 3);
  EXPECT_EQ(s.row_count(), 3);
  EXPECT_EQ(s.GetInt32(0), 20);
  EXPECT_EQ(s.GetInt32(2), 40);
}

TEST(ColumnViewTest, InRange) {
  const Column c = Column::FromInt32("c", {1, 2});
  EXPECT_TRUE(c.View().InRange(0));
  EXPECT_TRUE(c.View().InRange(1));
  EXPECT_FALSE(c.View().InRange(2));
  EXPECT_FALSE(c.View().InRange(-1));
}

class MatrixOrderTest : public testing::TestWithParam<MajorOrder> {};

TEST_P(MatrixOrderTest, AppendAndGetCells) {
  const Schema schema({{"i", DataType::kInt32}, {"d", DataType::kDouble}});
  Matrix m(schema, GetParam());
  for (int r = 0; r < 100; ++r) {
    m.AppendRow({Value(std::int64_t{r}), Value(r * 0.5)});
  }
  EXPECT_EQ(m.row_count(), 100);
  EXPECT_EQ(m.GetCell(42, 0).AsInt(), 42);
  EXPECT_DOUBLE_EQ(m.GetCell(42, 1).AsDouble(), 21.0);
}

TEST_P(MatrixOrderTest, ColumnViewReadsMatchCells) {
  const Schema schema({{"i", DataType::kInt32},
                       {"l", DataType::kInt64},
                       {"d", DataType::kDouble}});
  Matrix m(schema, GetParam());
  for (int r = 0; r < 257; ++r) {  // Crosses growth boundaries.
    m.AppendRow({Value(std::int64_t{r}), Value(std::int64_t{r * 10}),
                 Value(r * 0.25)});
  }
  const ColumnView c0 = m.ColumnAt(0);
  const ColumnView c1 = m.ColumnAt(1);
  const ColumnView c2 = m.ColumnAt(2);
  for (RowId r = 0; r < 257; ++r) {
    EXPECT_EQ(c0.GetInt32(r), r);
    EXPECT_EQ(c1.GetInt64(r), r * 10);
    EXPECT_DOUBLE_EQ(c2.GetDouble(r), r * 0.25);
  }
}

TEST_P(MatrixOrderTest, SetCellOverwrites) {
  const Schema schema({{"i", DataType::kInt32}});
  Matrix m(schema, GetParam());
  m.AppendRow({Value(std::int64_t{1})});
  m.SetCell(0, 0, Value(std::int64_t{99}));
  EXPECT_EQ(m.GetCell(0, 0).AsInt(), 99);
}

TEST_P(MatrixOrderTest, ToOrderPreservesData) {
  const Schema schema({{"i", DataType::kInt32}, {"d", DataType::kDouble}});
  Matrix m(schema, GetParam());
  for (int r = 0; r < 50; ++r) {
    m.AppendRow({Value(std::int64_t{r}), Value(r * 1.5)});
  }
  const MajorOrder other = GetParam() == MajorOrder::kRowMajor
                               ? MajorOrder::kColumnMajor
                               : MajorOrder::kRowMajor;
  const Matrix t = m.ToOrder(other);
  EXPECT_EQ(t.order(), other);
  for (RowId r = 0; r < 50; ++r) {
    EXPECT_EQ(t.GetCell(r, 0).AsInt(), m.GetCell(r, 0).AsInt());
    EXPECT_DOUBLE_EQ(t.GetCell(r, 1).AsDouble(), m.GetCell(r, 1).AsDouble());
  }
}

TEST_P(MatrixOrderTest, ColumnStrideMatchesOrder) {
  const Schema schema({{"i", DataType::kInt32}, {"d", DataType::kDouble}});
  const Matrix m(schema, GetParam());
  if (GetParam() == MajorOrder::kColumnMajor) {
    EXPECT_EQ(m.column_stride(0), 4u);
    EXPECT_EQ(m.column_stride(1), 8u);
  } else {
    EXPECT_EQ(m.column_stride(0), 12u);
    EXPECT_EQ(m.column_stride(1), 12u);
  }
}

INSTANTIATE_TEST_SUITE_P(BothOrders, MatrixOrderTest,
                         testing::Values(MajorOrder::kColumnMajor,
                                         MajorOrder::kRowMajor),
                         [](const auto& info) {
                           return info.param == MajorOrder::kColumnMajor
                                      ? "ColumnMajor"
                                      : "RowMajor";
                         });

TEST(MatrixTest, AppendRowsColumnarBulkLoads) {
  const Schema schema({{"a", DataType::kInt32}, {"b", DataType::kInt64}});
  Matrix m(schema, MajorOrder::kColumnMajor);
  const std::vector<std::int32_t> a{1, 2, 3};
  const std::vector<std::int64_t> b{10, 20, 30};
  m.AppendRowsColumnar(
      {reinterpret_cast<const std::byte*>(a.data()),
       reinterpret_cast<const std::byte*>(b.data())},
      3);
  EXPECT_EQ(m.row_count(), 3);
  EXPECT_EQ(m.GetCell(2, 1).AsInt(), 30);
}

TEST(TableTest, FromColumnsBuildsAndReads) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("id", {1, 2, 3}));
  cols.push_back(Column::FromDouble("v", {0.1, 0.2, 0.3}));
  const auto table = Table::FromColumns("t", std::move(cols));
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->row_count(), 3);
  EXPECT_EQ((*table)->GetValue(1, 0)->AsInt(), 2);
  EXPECT_DOUBLE_EQ((*table)->GetValue(2, 1)->AsDouble(), 0.3);
}

TEST(TableTest, FromColumnsRejectsRaggedColumns) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("a", {1, 2}));
  cols.push_back(Column::FromInt32("b", {1}));
  EXPECT_TRUE(Table::FromColumns("t", std::move(cols))
                  .status()
                  .IsInvalidArgument());
}

TEST(TableTest, FromColumnsRejectsEmpty) {
  EXPECT_TRUE(
      Table::FromColumns("t", {}).status().IsInvalidArgument());
}

TEST(TableTest, AppendRowWithStringsInterns) {
  Table t("t", Schema({{"host", DataType::kString},
                       {"ms", DataType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(std::string("web-1")), Value(1.5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(std::string("web-2")), Value(2.5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(std::string("web-1")), Value(3.5)}).ok());
  EXPECT_EQ(t.row_count(), 3);
  EXPECT_EQ(t.GetValue(2, 0)->AsString(), "web-1");
  EXPECT_EQ(t.dictionary(0)->size(), 2);
}

TEST(TableTest, AppendRowValidatesArityAndTypes) {
  Table t("t", Schema({{"a", DataType::kInt32}}));
  EXPECT_TRUE(t.AppendRow({}).IsInvalidArgument());
  EXPECT_TRUE(
      t.AppendRow({Value(std::string("not a number"))}).IsInvalidArgument());
}

TEST(TableTest, ColumnViewByName) {
  Table t("t", Schema({{"a", DataType::kInt32}, {"b", DataType::kInt32}}));
  ASSERT_TRUE(
      t.AppendRow({Value(std::int64_t{1}), Value(std::int64_t{2})}).ok());
  const auto view = t.ColumnViewByName("b");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->GetInt32(0), 2);
  EXPECT_TRUE(t.ColumnViewByName("zzz").status().IsNotFound());
}

TEST(TableTest, ExtractColumnDeepCopies) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("id", {5, 6}));
  cols.push_back(Column::FromStrings("tag", {"p", "q"}));
  auto table = *Table::FromColumns("t", std::move(cols));
  const Result<Column> extracted = table->ExtractColumn(1);
  ASSERT_TRUE(extracted.ok()) << extracted.status();
  EXPECT_EQ(extracted->row_count(), 2);
  EXPECT_EQ(extracted->GetValue(0).AsString(), "p");
  EXPECT_EQ(extracted->GetValue(1).AsString(), "q");
}

TEST(TableTest, ReplaceStorageSwapsLayout) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("a", {1, 2, 3}));
  auto table = *Table::FromColumns("t", std::move(cols));
  EXPECT_EQ(table->layout(), MajorOrder::kColumnMajor);
  Matrix rotated = table->storage().ToOrder(MajorOrder::kRowMajor);
  ASSERT_TRUE(table->ReplaceStorage(std::move(rotated)).ok());
  EXPECT_EQ(table->layout(), MajorOrder::kRowMajor);
  EXPECT_EQ(table->GetValue(2, 0)->AsInt(), 3);
}

TEST(TableTest, ReplaceStorageRejectsMismatch) {
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("a", {1, 2, 3}));
  auto table = *Table::FromColumns("t", std::move(cols));
  Matrix wrong(Schema({{"b", DataType::kInt64}}), MajorOrder::kRowMajor);
  EXPECT_TRUE(
      table->ReplaceStorage(std::move(wrong)).IsInvalidArgument());
}

TEST(CatalogTest, RegisterGetDrop) {
  Catalog catalog;
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("a", {1}));
  ASSERT_TRUE(catalog.Register(*Table::FromColumns("t1", std::move(cols)))
                  .ok());
  EXPECT_TRUE(catalog.Contains("t1"));
  EXPECT_EQ(catalog.size(), 1u);
  ASSERT_TRUE(catalog.Get("t1").ok());
  EXPECT_TRUE(catalog.Get("nope").status().IsNotFound());
  ASSERT_TRUE(catalog.Drop("t1").ok());
  EXPECT_TRUE(catalog.Drop("t1").IsNotFound());
}

TEST(CatalogTest, RejectsDuplicatesAndNull) {
  Catalog catalog;
  std::vector<Column> cols;
  cols.push_back(Column::FromInt32("a", {1}));
  auto t = *Table::FromColumns("t", std::move(cols));
  ASSERT_TRUE(catalog.Register(t).ok());
  EXPECT_TRUE(catalog.Register(t).code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.Register(nullptr).IsInvalidArgument());
}

TEST(CatalogTest, ListIsSorted) {
  Catalog catalog;
  for (const char* name : {"zeta", "alpha", "mid"}) {
    std::vector<Column> cols;
    cols.push_back(Column::FromInt32("a", {1}));
    ASSERT_TRUE(
        catalog.Register(*Table::FromColumns(name, std::move(cols))).ok());
  }
  const auto names = catalog.List();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[2], "zeta");
}

TEST(DatagenTest, UniformRespectsBounds) {
  const Column c = GenUniformInt32("u", 10000, -50, 50, 1);
  const ColumnView v = c.View();
  for (RowId r = 0; r < v.row_count(); ++r) {
    EXPECT_GE(v.GetInt32(r), -50);
    EXPECT_LE(v.GetInt32(r), 50);
  }
}

TEST(DatagenTest, DeterministicAcrossCalls) {
  const Column a = GenUniformInt32("a", 100, 0, 1000, 99);
  const Column b = GenUniformInt32("b", 100, 0, 1000, 99);
  for (RowId r = 0; r < 100; ++r) {
    EXPECT_EQ(a.View().GetInt32(r), b.View().GetInt32(r));
  }
}

TEST(DatagenTest, SequenceIsMonotonic) {
  const Column c = GenSequenceInt64("seq", 100, 1000, 3);
  EXPECT_EQ(c.View().GetInt64(0), 1000);
  EXPECT_EQ(c.View().GetInt64(99), 1000 + 99 * 3);
}

TEST(DatagenTest, SegmentedMeansDiffer) {
  const Column c = GenSegmentedDouble("seg", 4000, {0.0, 100.0}, 1.0, 5);
  const ColumnView v = c.View();
  double first_half = 0.0;
  double second_half = 0.0;
  for (RowId r = 0; r < 2000; ++r) {
    first_half += v.GetDouble(r);
    second_half += v.GetDouble(r + 2000);
  }
  EXPECT_NEAR(first_half / 2000, 0.0, 1.0);
  EXPECT_NEAR(second_half / 2000, 100.0, 1.0);
}

TEST(DatagenTest, OutliersPlantedAtReportedRows) {
  Column c = GenGaussianDouble("g", 5000, 0.0, 1.0, 7);
  const auto rows = InjectOutliers(c, 0.01, 500.0, 8);
  EXPECT_GT(rows.size(), 10u);
  const ColumnView v = c.View();
  for (const RowId r : rows) {
    EXPECT_GT(std::abs(v.GetDouble(r)), 400.0);
  }
  // Sorted and unique.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1], rows[i]);
  }
}

TEST(DatagenTest, PaperEvalColumnShape) {
  const Column c = MakePaperEvalColumn(1000);
  EXPECT_EQ(c.row_count(), 1000);
  EXPECT_EQ(c.type(), DataType::kInt32);
}

TEST(DatagenTest, SkyTableSchemaAndTransients) {
  std::vector<RowId> transients;
  const auto sky = MakeSkyTable(10000, 3, &transients);
  EXPECT_EQ(sky->schema().num_fields(), 4u);
  EXPECT_EQ(sky->row_count(), 10000);
  EXPECT_FALSE(transients.empty());
  const auto brightness = sky->ColumnViewByName("brightness");
  ASSERT_TRUE(brightness.ok());
  for (const RowId r : transients) {
    EXPECT_GT(std::abs(brightness->GetDouble(r)), 20.0);
  }
}

TEST(DatagenTest, MonitoringTableSchema) {
  std::vector<RowId> spikes;
  const auto mon = MakeMonitoringTable(5000, 4, &spikes);
  EXPECT_EQ(mon->schema().num_fields(), 4u);
  EXPECT_EQ(mon->GetValue(0, 1)->is_string(), true);
  EXPECT_FALSE(spikes.empty());
}

TEST(DatagenTest, ZipfSkewsLowRanks) {
  const Column c = GenZipfInt32("z", 20000, 100, 1.2, 6);
  const ColumnView v = c.View();
  std::int64_t low = 0;
  for (RowId r = 0; r < v.row_count(); ++r) {
    if (v.GetInt32(r) < 5) {
      ++low;
    }
  }
  // With skew 1.2 the top 5 of 100 ranks should take well over a third.
  EXPECT_GT(low, v.row_count() / 3);
}

TEST(PagedColumnTest, GeometryCoversTailBlock) {
  const Column c = GenSequenceInt64("v", 257, 0, 1);
  const auto source = c.PagedSource(100);
  EXPECT_EQ(source->num_blocks(), 3);
  EXPECT_EQ(source->BlockFirstRow(2), 200);
  EXPECT_EQ(source->BlockRowCount(0), 100);
  EXPECT_EQ(source->BlockRowCount(2), 57);
  EXPECT_EQ(source->BlockFor(199), 1);
  EXPECT_EQ(source->BlockFor(200), 2);
}

TEST(PagedColumnTest, PinnedSlicesMatchTheColumn) {
  const Column c = GenSequenceInt64("v", 257, 10, 3);
  const auto source = c.PagedSource(100);
  const ColumnView whole = c.View();
  for (std::int64_t b = 0; b < source->num_blocks(); ++b) {
    auto pin = source->PinBlock(b);
    ASSERT_TRUE(pin.ok());
    EXPECT_EQ(pin->first_row(), b * 100);
    for (std::int64_t i = 0; i < pin->view().row_count(); ++i) {
      EXPECT_EQ(pin->view().GetInt64(i), whole.GetInt64(pin->first_row() + i));
    }
  }
  EXPECT_FALSE(source->PinBlock(3).ok());  // Past the end.
}

TEST(PagedColumnTest, CursorReadsAcrossBlockBoundaries) {
  const Column c = GenSequenceInt64("v", 1'000, 0, 1);
  PagedColumnCursor cursor(c.PagedSource(64));
  EXPECT_TRUE(cursor.InRange(999));
  EXPECT_FALSE(cursor.InRange(1'000));
  // Forward, backward, and random jumps all cross block boundaries.
  for (RowId r = 0; r < 1'000; r += 7) {
    EXPECT_EQ(cursor.GetAsDouble(r), static_cast<double>(r));
  }
  for (RowId r = 999; r >= 0; r -= 13) {
    EXPECT_EQ(cursor.GetAsDouble(r), static_cast<double>(r));
  }
}

TEST(PagedColumnTest, ScanVisitsEachRowOnceInOrder) {
  const Column c = GenSequenceInt64("v", 330, 0, 1);
  PagedColumnCursor cursor(c.PagedSource(100));
  std::vector<RowId> seen;
  cursor.Scan(50, 284, [&seen](const ColumnView& rows, RowId first_row) {
    for (std::int64_t i = 0; i < rows.row_count(); ++i) {
      seen.push_back(first_row + i);
      EXPECT_EQ(rows.GetInt64(i), first_row + i);
    }
  });
  ASSERT_EQ(seen.size(), 235u);
  EXPECT_EQ(seen.front(), 50);
  EXPECT_EQ(seen.back(), 284);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i - 1] + 1);
  }
  // Out-of-range bounds clamp instead of faulting.
  std::int64_t clamped = 0;
  cursor.Scan(-5, 1'000'000, [&clamped](const ColumnView& rows, RowId) {
    clamped += rows.row_count();
  });
  EXPECT_EQ(clamped, 330);
}

TEST(PagedColumnTest, TablePagedColumnWorksInBothLayouts) {
  for (const MajorOrder order :
       {MajorOrder::kColumnMajor, MajorOrder::kRowMajor}) {
    std::vector<Column> cols;
    cols.push_back(GenSequenceInt64("a", 120, 0, 1));
    cols.push_back(GenSequenceInt64("b", 120, 1'000, 2));
    auto table = Table::FromColumns("t", std::move(cols), order);
    ASSERT_TRUE(table.ok());
    // A pool source over the resident table: the provider copies each
    // 32-row block out of either layout (a strided gather when
    // row-major).
    cache::BufferManagerConfig config;
    config.rows_per_block = 32;
    cache::BufferManager pool(config);
    const auto source = pool.ColumnSource(*table, 1);
    ASSERT_TRUE(source.ok()) << source.status();
    PagedColumnCursor cursor(*source);
    for (RowId r = 0; r < 120; ++r) {
      EXPECT_EQ(cursor.GetAsDouble(r), static_cast<double>(1'000 + 2 * r));
    }
  }
}

TEST(PagedColumnTest, CursorDecodesStringsThroughDictionary) {
  const Column c = Column::FromStrings("s", {"ok", "warn", "ok", "crit"});
  PagedColumnCursor cursor(c.PagedSource(2));
  EXPECT_EQ(cursor.GetValue(1).AsString(), "warn");
  EXPECT_EQ(cursor.GetValue(3).AsString(), "crit");
}

}  // namespace
}  // namespace dbtouch::storage
