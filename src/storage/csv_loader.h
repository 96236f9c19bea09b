// CSV loading: the path real data takes into a dbTouch catalog. The
// paper's lineage (NoDB, adaptive loading [24, 4]) assumes analysts start
// from raw files; this loader parses delimited text into fixed-width
// tables, inferring column types when no schema is given.

#ifndef DBTOUCH_STORAGE_CSV_LOADER_H_
#define DBTOUCH_STORAGE_CSV_LOADER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dbtouch::storage {

struct CsvOptions {
  char delimiter = ',';
  /// First line holds column names. Without it, columns are named c0..cN.
  bool has_header = true;
  /// Rows sampled for type inference (int64 -> double -> string, widened
  /// per column until every sampled value fits).
  std::int64_t inference_rows = 1000;
  /// Physical layout of the loaded table.
  MajorOrder order = MajorOrder::kColumnMajor;
};

/// Parses CSV text into a table named `table_name`. Types are inferred;
/// malformed rows (wrong arity, unparsable field for the inferred type)
/// yield InvalidArgument with the line number.
Result<std::shared_ptr<Table>> LoadCsv(const std::string& text,
                                       const std::string& table_name,
                                       const CsvOptions& options = {});

/// Reads `path` and delegates to LoadCsv.
Result<std::shared_ptr<Table>> LoadCsvFile(const std::string& path,
                                           const std::string& table_name,
                                           const CsvOptions& options = {});

/// Serialises a table back to CSV (header + rows) — the export side. A
/// cell that cannot be read (a damaged spill file) is the returned Status.
Result<std::string> TableToCsv(const Table& table, char delimiter = ',');

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_CSV_LOADER_H_
