#include "storage/column.h"

#include "common/macros.h"

namespace dbtouch::storage {

Value ColumnView::GetValue(RowId row) const {
  switch (type_) {
    case DataType::kInt32:
      return Value(static_cast<std::int64_t>(GetInt32(row)));
    case DataType::kInt64:
      return Value(GetInt64(row));
    case DataType::kFloat:
      return Value(static_cast<double>(GetFloat(row)));
    case DataType::kDouble:
      return Value(GetDouble(row));
    case DataType::kString: {
      const std::int32_t code = GetInt32(row);
      if (dictionary_ != nullptr) {
        return Value(dictionary_->Lookup(code));
      }
      return Value(static_cast<std::int64_t>(code));
    }
  }
  return Value();
}

ColumnView ColumnView::Slice(RowId first, std::int64_t count) const {
  DBTOUCH_CHECK(first >= 0 && count >= 0 && first + count <= row_count_);
  return ColumnView(type_, data_ + static_cast<std::size_t>(first) * stride_,
                    stride_, count, dictionary_);
}

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type), width_(TypeWidth(type)) {
  if (type_ == DataType::kString) {
    dictionary_ = std::make_shared<Dictionary>();
  }
}

Column Column::FromInt32(std::string name,
                         const std::vector<std::int32_t>& v) {
  Column c(std::move(name), DataType::kInt32);
  c.Reserve(static_cast<std::int64_t>(v.size()));
  for (const auto x : v) {
    c.AppendInt32(x);
  }
  return c;
}

Column Column::FromInt64(std::string name,
                         const std::vector<std::int64_t>& v) {
  Column c(std::move(name), DataType::kInt64);
  c.Reserve(static_cast<std::int64_t>(v.size()));
  for (const auto x : v) {
    c.AppendInt64(x);
  }
  return c;
}

Column Column::FromDouble(std::string name, const std::vector<double>& v) {
  Column c(std::move(name), DataType::kDouble);
  c.Reserve(static_cast<std::int64_t>(v.size()));
  for (const auto x : v) {
    c.AppendDouble(x);
  }
  return c;
}

Column Column::FromFloat(std::string name, const std::vector<float>& v) {
  Column c(std::move(name), DataType::kFloat);
  c.Reserve(static_cast<std::int64_t>(v.size()));
  for (const auto x : v) {
    c.AppendFloat(x);
  }
  return c;
}

Column Column::FromStrings(std::string name,
                           const std::vector<std::string>& v) {
  Column c(std::move(name), DataType::kString);
  c.Reserve(static_cast<std::int64_t>(v.size()));
  for (const auto& s : v) {
    c.AppendString(s);
  }
  return c;
}

void Column::Reserve(std::int64_t rows) {
  data_.reserve(static_cast<std::size_t>(rows) * width_);
  tracked_.Update(data_.capacity());
}

void Column::AppendString(std::string_view s) {
  DBTOUCH_CHECK(type_ == DataType::kString);
  const std::int32_t code = dictionary_->Intern(s);
  AppendStrided(&code, sizeof(code), 0, 1);
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kInt32:
      AppendInt32(static_cast<std::int32_t>(v.AsInt()));
      return;
    case DataType::kInt64:
      AppendInt64(v.AsInt());
      return;
    case DataType::kFloat:
      AppendFloat(static_cast<float>(v.ToDouble()));
      return;
    case DataType::kDouble:
      AppendDouble(v.ToDouble());
      return;
    case DataType::kString:
      AppendString(v.AsString());
      return;
  }
}

namespace {

/// Copies `count` fields of kWidth bytes from `src` (one every `stride`
/// bytes) to `dst`, densely. A fixed width lets each copy compile to one
/// load and one store.
template <std::size_t kWidth>
void CopyStrided(const std::byte* src, std::size_t stride, std::int64_t count,
                 std::byte* dst) {
  for (std::int64_t i = 0; i < count; ++i) {
    std::memcpy(dst, src, kWidth);
    src += stride;
    dst += kWidth;
  }
}

}  // namespace

void Column::AppendStrided(const void* src, std::size_t width,
                           std::size_t stride, std::int64_t count) {
  DBTOUCH_CHECK(width == width_);
  DBTOUCH_CHECK(count >= 0);
  const std::size_t old = data_.size();
  data_.resize(old + static_cast<std::size_t>(count) * width);
  const auto* from = static_cast<const std::byte*>(src);
  std::byte* to = data_.data() + old;
  if (width == 8) {
    CopyStrided<8>(from, stride, count, to);
  } else {
    CopyStrided<4>(from, stride, count, to);
  }
  tracked_.Update(data_.capacity());
}

}  // namespace dbtouch::storage
