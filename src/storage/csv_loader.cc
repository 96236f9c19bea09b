#include "storage/csv_loader.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace dbtouch::storage {
namespace {

/// Splits one CSV record. Minimal quoting support: a field wrapped in
/// double quotes may contain the delimiter; "" inside quotes is a literal
/// quote.
std::vector<std::string> SplitRecord(const std::string& line,
                                     char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (in_quotes) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += ch;
      }
    } else if (ch == '"' && current.empty()) {
      in_quotes = true;
    } else if (ch == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

bool ParseInt64(const std::string& s, std::int64_t* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

/// Narrowest type that fits the value: int64 < double < string.
DataType TypeOfField(const std::string& s) {
  std::int64_t i;
  if (ParseInt64(s, &i)) {
    return DataType::kInt64;
  }
  double d;
  if (ParseDouble(s, &d)) {
    return DataType::kDouble;
  }
  return DataType::kString;
}

DataType Widen(DataType a, DataType b) {
  if (a == b) {
    return a;
  }
  if (a == DataType::kString || b == DataType::kString) {
    return DataType::kString;
  }
  return DataType::kDouble;  // int64 + double.
}

}  // namespace

Result<std::shared_ptr<Table>> LoadCsv(const std::string& text,
                                       const std::string& table_name,
                                       const CsvOptions& options) {
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!StripWhitespace(line).empty()) {
      lines.push_back(line);
    }
  }
  if (lines.empty()) {
    return Status::InvalidArgument("empty CSV input");
  }

  std::vector<std::string> names;
  std::size_t first_data = 0;
  if (options.has_header) {
    names = SplitRecord(lines[0], options.delimiter);
    first_data = 1;
    if (lines.size() == 1) {
      return Status::InvalidArgument("CSV has a header but no data rows");
    }
  } else {
    const std::size_t arity =
        SplitRecord(lines[0], options.delimiter).size();
    for (std::size_t c = 0; c < arity; ++c) {
      names.push_back("c" + std::to_string(c));
    }
  }
  const std::size_t arity = names.size();

  // Type inference over a sample of rows.
  std::vector<DataType> types(arity, DataType::kInt64);
  std::vector<bool> seen(arity, false);
  const std::size_t inference_end = std::min(
      lines.size(),
      first_data + static_cast<std::size_t>(options.inference_rows));
  for (std::size_t i = first_data; i < inference_end; ++i) {
    const auto fields = SplitRecord(lines[i], options.delimiter);
    if (fields.size() != arity) {
      return Status::InvalidArgument(
          "line " + std::to_string(i + 1) + ": expected " +
          std::to_string(arity) + " fields, got " +
          std::to_string(fields.size()));
    }
    for (std::size_t c = 0; c < arity; ++c) {
      const DataType t = TypeOfField(fields[c]);
      types[c] = seen[c] ? Widen(types[c], t) : t;
      seen[c] = true;
    }
  }

  std::vector<Field> schema_fields;
  for (std::size_t c = 0; c < arity; ++c) {
    schema_fields.push_back(Field{names[c], types[c]});
  }
  auto table = std::make_shared<Table>(table_name,
                                       Schema(std::move(schema_fields)),
                                       options.order);

  for (std::size_t i = first_data; i < lines.size(); ++i) {
    const auto fields = SplitRecord(lines[i], options.delimiter);
    if (fields.size() != arity) {
      return Status::InvalidArgument(
          "line " + std::to_string(i + 1) + ": expected " +
          std::to_string(arity) + " fields, got " +
          std::to_string(fields.size()));
    }
    std::vector<Value> row;
    row.reserve(arity);
    for (std::size_t c = 0; c < arity; ++c) {
      switch (types[c]) {
        case DataType::kInt64: {
          std::int64_t v;
          if (!ParseInt64(fields[c], &v)) {
            return Status::InvalidArgument(
                "line " + std::to_string(i + 1) + ", column '" + names[c] +
                "': '" + fields[c] + "' is not an integer");
          }
          row.push_back(Value(v));
          break;
        }
        case DataType::kDouble: {
          double v;
          if (!ParseDouble(fields[c], &v)) {
            return Status::InvalidArgument(
                "line " + std::to_string(i + 1) + ", column '" + names[c] +
                "': '" + fields[c] + "' is not numeric");
          }
          row.push_back(Value(v));
          break;
        }
        default:
          row.push_back(Value(fields[c]));
          break;
      }
    }
    DBTOUCH_RETURN_IF_ERROR(table->AppendRow(row));
  }
  return table;
}

Result<std::shared_ptr<Table>> LoadCsvFile(const std::string& path,
                                           const std::string& table_name,
                                           const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadCsv(buf.str(), table_name, options);
}

Result<std::string> TableToCsv(const Table& table, char delimiter) {
  std::ostringstream out;
  const Schema& schema = table.schema();
  for (std::size_t c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) {
      out << delimiter;
    }
    out << schema.field(c).name;
  }
  out << "\n";
  for (RowId r = 0; r < table.row_count(); ++r) {
    for (std::size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) {
        out << delimiter;
      }
      DBTOUCH_ASSIGN_OR_RETURN(const Value v, table.GetValue(r, c));
      const std::string s = v.ToString();
      // Quote fields containing the delimiter or quotes.
      if (s.find(delimiter) != std::string::npos ||
          s.find('"') != std::string::npos) {
        out << '"';
        for (const char ch : s) {
          if (ch == '"') {
            out << '"';
          }
          out << ch;
        }
        out << '"';
      } else {
        out << s;
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace dbtouch::storage
