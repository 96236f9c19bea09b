#include "storage/table.h"

#include <mutex>
#include <utility>

#include "common/macros.h"

namespace dbtouch::storage {

Table::Table(std::string name, Schema schema, MajorOrder order)
    : name_(std::move(name)),
      schema_(schema),
      storage_(schema, order),
      dictionaries_(schema_.num_fields()) {
  for (std::size_t c = 0; c < schema_.num_fields(); ++c) {
    if (schema_.field(c).type == DataType::kString) {
      dictionaries_[c] = std::make_shared<Dictionary>();
    }
  }
}

Result<std::shared_ptr<Table>> Table::FromColumns(std::string name,
                                                  std::vector<Column> columns,
                                                  MajorOrder order) {
  if (columns.empty()) {
    return Status::InvalidArgument("table needs at least one column");
  }
  const std::int64_t rows = columns[0].row_count();
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (const Column& c : columns) {
    if (c.row_count() != rows) {
      return Status::InvalidArgument(
          "column '" + c.name() + "' has " + std::to_string(c.row_count()) +
          " rows, expected " + std::to_string(rows));
    }
    fields.push_back(Field{c.name(), c.type()});
  }
  auto table =
      std::make_shared<Table>(std::move(name), Schema(std::move(fields)),
                              order);
  std::vector<const std::byte*> field_data;
  field_data.reserve(columns.size());
  for (const Column& c : columns) {
    field_data.push_back(c.raw_data());
  }
  table->storage_.AppendRowsColumnar(field_data, rows);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].type() == DataType::kString) {
      table->dictionaries_[c] = columns[c].dictionary();
    }
  }
  return table;
}

Status Table::AppendRow(const std::vector<Value>& row) {
  // The gate covers the whole append: a reclaim cannot free the matrix
  // between the released check and the mutation.
  const std::shared_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "table '" + name_ + "' is spilled and frozen; cannot append");
  }
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_fields()));
  }
  // Intern strings first so AppendRow sees only fixed-width values.
  std::vector<Value> encoded;
  encoded.reserve(row.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    const DataType t = schema_.field(c).type;
    if (t == DataType::kString) {
      if (!row[c].is_string()) {
        return Status::InvalidArgument("field " + std::to_string(c) +
                                       " expects a string value");
      }
      encoded.push_back(Value(static_cast<std::int64_t>(
          dictionaries_[c]->Intern(row[c].AsString()))));
    } else if (row[c].is_string()) {
      return Status::InvalidArgument("field " + std::to_string(c) +
                                     " is numeric but got a string");
    } else {
      encoded.push_back(row[c]);
    }
  }
  storage_.AppendRow(encoded);
  return Status::OK();
}

Result<Value> Table::GetValue(RowId row, std::size_t col) const {
  {
    const std::shared_lock<std::shared_mutex> lock(raw_mu_);
    if (!raw_released_.load(std::memory_order_acquire)) {
      const Value raw = storage_.GetCell(row, col);
      if (schema_.field(col).type == DataType::kString &&
          dictionaries_[col] != nullptr) {
        return Value(dictionaries_[col]->Lookup(
            static_cast<std::int32_t>(raw.AsInt())));
      }
      return raw;
    }
  }
  // Released: pin the covering block through the paged tier. The view
  // carries the provider's dictionary, so strings decode as before.
  PagedColumnSource& source = *paged_sources_[col];
  DBTOUCH_ASSIGN_OR_RETURN(const BlockPin pin,
                           source.PinBlock(source.BlockFor(row), row));
  return pin.view().GetValue(row - pin.first_row());
}

ColumnView Table::ColumnViewAt(std::size_t col) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  // Raw views escape any lock scope, so they cannot exist at all once the
  // matrix may be freed; every surviving caller reads under WithRawColumn
  // or through PagedColumnAt.
  DBTOUCH_CHECK(!raw_released());
  return storage_.ColumnAt(col, dictionaries_[col].get());
}

Result<ColumnView> Table::ColumnViewByName(const std::string& name) const {
  DBTOUCH_ASSIGN_OR_RETURN(const std::size_t idx, schema_.FieldIndex(name));
  return ColumnViewAt(idx);
}

Status Table::WithRawColumn(
    std::size_t col,
    const std::function<Status(const ColumnView&)>& fn) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  const std::shared_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "raw storage of table '" + name_ +
        "' was released after a spill; read the paged tier instead");
  }
  return fn(storage_.ColumnAt(col, dictionaries_[col].get()));
}

Status Table::ReadColumn(
    std::size_t col,
    const std::function<Status(PagedColumnSource&)>& read) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  {
    const std::shared_lock<std::shared_mutex> lock(raw_mu_);
    if (!raw_released_.load(std::memory_order_acquire)) {
      UnpagedColumnSource source(
          storage_.ColumnAt(col, dictionaries_[col].get()));
      return read(source);
    }
  }
  return read(*paged_sources_[col]);
}

namespace {

/// Appends every row of `rows` to `out`, decoding string codes through
/// `dictionary`.
void AppendRows(const ColumnView& rows, const Dictionary* dictionary,
                Column* out) {
  for (RowId r = 0; r < rows.row_count(); ++r) {
    switch (out->type()) {
      case DataType::kInt32:
        out->AppendInt32(rows.GetInt32(r));
        break;
      case DataType::kInt64:
        out->AppendInt64(rows.GetInt64(r));
        break;
      case DataType::kFloat:
        out->AppendFloat(rows.GetFloat(r));
        break;
      case DataType::kDouble:
        out->AppendDouble(rows.GetDouble(r));
        break;
      case DataType::kString:
        // Codes are interned in row order, matching the original column's
        // dictionary order for first occurrences.
        out->AppendString(dictionary->Lookup(rows.GetInt32(r)));
        break;
    }
  }
}

}  // namespace

Result<Column> Table::ExtractColumn(std::size_t col) const {
  DBTOUCH_CHECK(col < schema_.num_fields());
  const Field& f = schema_.field(col);
  Column out(f.name, f.type);
  out.Reserve(row_count());
  const Dictionary* dictionary = dictionaries_[col].get();
  DBTOUCH_RETURN_IF_ERROR(ReadColumn(col, [&](PagedColumnSource& source) {
    return ScanBlocks(source, 0, row_count() - 1,
                      [&](const ColumnView& rows, RowId) {
                        AppendRows(rows, dictionary, &out);
                      });
  }));
  return out;
}

Status Table::ReplaceStorage(Matrix replacement) {
  const std::unique_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "table '" + name_ +
        "' is spilled; its layout lives in the block files");
  }
  if (!(replacement.schema() == schema_)) {
    return Status::InvalidArgument("replacement schema mismatch");
  }
  if (replacement.row_count() != storage_.row_count()) {
    return Status::InvalidArgument("replacement row count mismatch");
  }
  storage_ = std::move(replacement);
  return Status::OK();
}

Status Table::ReleaseRaw(
    std::vector<std::shared_ptr<PagedColumnSource>> paged) {
  if (paged.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        "release needs one paged source per column: got " +
        std::to_string(paged.size()) + ", want " +
        std::to_string(schema_.num_fields()));
  }
  for (std::size_t c = 0; c < paged.size(); ++c) {
    if (paged[c] == nullptr) {
      return Status::InvalidArgument("null paged source for column " +
                                     std::to_string(c));
    }
    if (paged[c]->row_count() != row_count() ||
        paged[c]->type() != schema_.field(c).type) {
      return Status::InvalidArgument(
          "paged source geometry mismatch for column " + std::to_string(c) +
          " of table '" + name_ + "'");
    }
  }
  // Exclusive lock: every raw reader in flight (GetValue's matrix branch,
  // WithRawColumn, under which pool fills copy their blocks out) drains
  // first, and every later one observes the released state. Pool readers
  // hold copies, never a pointer into the matrix, so nothing dangles.
  const std::unique_lock<std::shared_mutex> lock(raw_mu_);
  if (raw_released_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("raw storage of table '" + name_ +
                                      "' already released");
  }
  // Sources first, flag second: a lock-free reader that sees the flag
  // (raw_released()) also sees the sources.
  paged_sources_ = std::move(paged);
  raw_released_.store(true, std::memory_order_seq_cst);
  storage_.ReleaseStorage();
  return Status::OK();
}

}  // namespace dbtouch::storage
