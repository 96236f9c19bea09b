// Unit tests for the CSV loader: type inference, quoting, malformed
// input diagnostics, and round-tripping through TableToCsv.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "storage/csv_loader.h"

namespace dbtouch::storage {
namespace {

TEST(CsvLoaderTest, LoadsTypedColumnsWithHeader) {
  const std::string csv =
      "id,price,name\n"
      "1,9.5,apple\n"
      "2,3.25,banana\n"
      "3,12,cherry\n";
  const auto table = LoadCsv(csv, "fruit");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->row_count(), 3);
  const Schema& s = (*table)->schema();
  EXPECT_EQ(s.field(0).type, DataType::kInt64);
  EXPECT_EQ(s.field(1).type, DataType::kDouble);
  EXPECT_EQ(s.field(2).type, DataType::kString);
  EXPECT_EQ((*table)->GetValue(1, 2)->AsString(), "banana");
  EXPECT_DOUBLE_EQ((*table)->GetValue(2, 1)->AsDouble(), 12.0);
}

TEST(CsvLoaderTest, HeaderlessGetsGeneratedNames) {
  CsvOptions options;
  options.has_header = false;
  const auto table = LoadCsv("1,2\n3,4\n", "t", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->schema().field(0).name, "c0");
  EXPECT_EQ((*table)->schema().field(1).name, "c1");
  EXPECT_EQ((*table)->row_count(), 2);
}

TEST(CsvLoaderTest, IntWidensToDoubleThenString) {
  // Column starts integer, later holds a float -> double for all rows.
  const auto doubles = LoadCsv("v\n1\n2.5\n3\n", "t");
  ASSERT_TRUE(doubles.ok());
  EXPECT_EQ((*doubles)->schema().field(0).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ((*doubles)->GetValue(0, 0)->AsDouble(), 1.0);
  // A stray word widens everything to string.
  const auto strings = LoadCsv("v\n1\n2.5\nN/A\n", "t");
  ASSERT_TRUE(strings.ok());
  EXPECT_EQ((*strings)->schema().field(0).type, DataType::kString);
  EXPECT_EQ((*strings)->GetValue(2, 0)->AsString(), "N/A");
}

TEST(CsvLoaderTest, QuotedFieldsKeepDelimitersAndQuotes) {
  const std::string csv =
      "name,note\n"
      "\"Doe, Jane\",\"said \"\"hi\"\"\"\n";
  const auto table = LoadCsv(csv, "t");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->GetValue(0, 0)->AsString(), "Doe, Jane");
  EXPECT_EQ((*table)->GetValue(0, 1)->AsString(), "said \"hi\"");
}

TEST(CsvLoaderTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '\t';
  const auto table = LoadCsv("a\tb\n1\t2\n", "t", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->GetValue(0, 1)->AsInt(), 2);
}

TEST(CsvLoaderTest, RejectsEmptyAndHeaderOnly) {
  EXPECT_TRUE(LoadCsv("", "t").status().IsInvalidArgument());
  EXPECT_TRUE(LoadCsv("a,b\n", "t").status().IsInvalidArgument());
}

TEST(CsvLoaderTest, RejectsRaggedRowsWithLineNumber) {
  const auto r = LoadCsv("a,b\n1,2\n3\n", "t");
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos);
}

TEST(CsvLoaderTest, RejectsTypeMismatchBeyondInferenceSample) {
  // Inference samples only the first row; the bad value at line 4 is
  // caught during the load with a precise diagnostic.
  CsvOptions options;
  options.inference_rows = 1;
  const auto r = LoadCsv("v\n1\n2\noops\n", "t", options);
  ASSERT_TRUE(r.status().IsInvalidArgument());
  EXPECT_NE(r.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(r.status().message().find("not an integer"),
            std::string::npos);
}

TEST(CsvLoaderTest, HandlesCrlfAndBlankLines) {
  const auto table = LoadCsv("a\r\n1\r\n\r\n2\r\n", "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 2);
}

TEST(CsvLoaderTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/dbtouch_csv_test.csv";
  {
    std::ofstream out(path);
    out << "x,y\n1,hello\n2,world\n";
  }
  const auto table = LoadCsvFile(path, "t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->row_count(), 2);
  EXPECT_TRUE(LoadCsvFile("/nonexistent.csv", "t").status().IsNotFound());
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, ExportImportRoundTrip) {
  const std::string csv =
      "id,ratio,label\n"
      "1,0.5,alpha\n"
      "2,1.5,\"beta, gamma\"\n";
  const auto original = LoadCsv(csv, "t");
  ASSERT_TRUE(original.ok());
  const Result<std::string> exported = TableToCsv(**original);
  ASSERT_TRUE(exported.ok()) << exported.status();
  const auto reloaded = LoadCsv(*exported, "t2");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ASSERT_EQ((*reloaded)->row_count(), (*original)->row_count());
  for (RowId r = 0; r < (*original)->row_count(); ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ((*reloaded)->GetValue(r, c)->ToString(),
                (*original)->GetValue(r, c)->ToString());
    }
  }
}

TEST(CsvLoaderTest, LoadedTableWorksWithColumnViews) {
  const auto table = LoadCsv("v\n10\n20\n30\n", "t");
  ASSERT_TRUE(table.ok());
  const auto view = (*table)->ColumnViewByName("v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->GetInt64(2), 30);
  EXPECT_DOUBLE_EQ(view->GetAsDouble(1), 20.0);
}

}  // namespace
}  // namespace dbtouch::storage
