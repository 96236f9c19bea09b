#include "layout/restructure.h"

#include <unordered_set>

#include "common/macros.h"

namespace dbtouch::layout {

using storage::Catalog;
using storage::Column;
using storage::Table;

Result<std::shared_ptr<Table>> ExtractColumnToTable(
    Catalog* catalog, const Table& source, std::size_t column_index,
    const std::string& new_table_name) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("null catalog");
  }
  if (column_index >= source.schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column_index) +
                              " out of range for table '" + source.name() +
                              "'");
  }
  DBTOUCH_ASSIGN_OR_RETURN(Column column, source.ExtractColumn(column_index));
  std::vector<Column> columns;
  columns.push_back(std::move(column));
  DBTOUCH_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::FromColumns(new_table_name, std::move(columns)));
  DBTOUCH_RETURN_IF_ERROR(catalog->Register(table));
  return table;
}

Result<std::shared_ptr<Table>> GroupTables(
    Catalog* catalog, const std::vector<std::string>& table_names,
    const std::string& new_table_name, storage::MajorOrder order) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("null catalog");
  }
  if (table_names.empty()) {
    return Status::InvalidArgument("no tables to group");
  }
  std::vector<Column> columns;
  std::unordered_set<std::string> names_seen;
  std::int64_t rows = -1;
  for (const std::string& name : table_names) {
    DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog->Get(name));
    if (rows < 0) {
      rows = t->row_count();
    } else if (t->row_count() != rows) {
      return Status::InvalidArgument(
          "table '" + name + "' has " + std::to_string(t->row_count()) +
          " rows; expected " + std::to_string(rows));
    }
    for (std::size_t c = 0; c < t->schema().num_fields(); ++c) {
      const std::string& col_name = t->schema().field(c).name;
      if (!names_seen.insert(col_name).second) {
        return Status::InvalidArgument("duplicate column name '" + col_name +
                                       "' while grouping");
      }
      DBTOUCH_ASSIGN_OR_RETURN(Column column, t->ExtractColumn(c));
      columns.push_back(std::move(column));
    }
  }
  DBTOUCH_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> table,
      Table::FromColumns(new_table_name, std::move(columns), order));
  DBTOUCH_RETURN_IF_ERROR(catalog->Register(table));
  return table;
}

}  // namespace dbtouch::layout
