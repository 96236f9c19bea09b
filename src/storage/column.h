// Column (owning, growable) and ColumnView (non-owning, strided).
//
// ColumnView is the read path every operator consumes: it abstracts over
// column-major storage (stride == field width), row-major storage
// (stride == row width) and sample copies, so the same operator code runs
// against any layout — which is what lets the rotate gesture change layout
// without touching the executor.

#ifndef DBTOUCH_STORAGE_COLUMN_H_
#define DBTOUCH_STORAGE_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "storage/dictionary.h"
#include "storage/memory_tracker.h"
#include "storage/types.h"
#include "storage/value.h"

namespace dbtouch::storage {

/// Non-owning view over `row_count` fixed-width fields starting at `data`,
/// `stride` bytes apart. The typed getters CHECK type in debug via asserts
/// in callers; reads use memcpy so unaligned row-major access is defined.
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(DataType type, const std::byte* data, std::size_t stride,
             std::int64_t row_count, const Dictionary* dictionary = nullptr)
      : type_(type),
        data_(data),
        stride_(stride),
        row_count_(row_count),
        dictionary_(dictionary) {}

  DataType type() const { return type_; }
  std::int64_t row_count() const { return row_count_; }
  std::size_t stride() const { return stride_; }
  const std::byte* data() const { return data_; }
  const Dictionary* dictionary() const { return dictionary_; }

  bool InRange(RowId row) const { return row >= 0 && row < row_count_; }

  /// True when fields are densely packed (stride == field width) — the
  /// layout the span kernels can iterate as a typed array.
  bool contiguous() const { return stride_ == TypeWidth(type_); }

  /// Typed pointer to the packed fields, or nullptr when the view is
  /// strided (row-major), the requested width does not match the field
  /// width, or the storage is not naturally aligned for T. Callers fall
  /// back to the per-row getters on nullptr; a non-null result is valid
  /// for direct indexing p[0..row_count).
  template <typename T>
  const T* TypedData() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!contiguous() || sizeof(T) != TypeWidth(type_)) {
      return nullptr;
    }
    if (reinterpret_cast<std::uintptr_t>(data_) % alignof(T) != 0) {
      return nullptr;
    }
    return reinterpret_cast<const T*>(data_);
  }

  std::int32_t GetInt32(RowId row) const { return Load<std::int32_t>(row); }
  std::int64_t GetInt64(RowId row) const { return Load<std::int64_t>(row); }
  float GetFloat(RowId row) const { return Load<float>(row); }
  double GetDouble(RowId row) const { return Load<double>(row); }

  /// Numeric value of the field as double; string fields yield their
  /// dictionary code (the only numeric view a string has).
  double GetAsDouble(RowId row) const {
    switch (type_) {
      case DataType::kInt32:
        return static_cast<double>(Load<std::int32_t>(row));
      case DataType::kInt64:
        return static_cast<double>(Load<std::int64_t>(row));
      case DataType::kFloat:
        return static_cast<double>(Load<float>(row));
      case DataType::kDouble:
        return Load<double>(row);
      case DataType::kString:
        return static_cast<double>(Load<std::int32_t>(row));
    }
    return 0.0;
  }

  /// Boxed value; string fields are decoded through the dictionary when one
  /// is attached, otherwise surfaced as their integer code.
  Value GetValue(RowId row) const;

  /// A sub-view of rows [first, first + count).
  ColumnView Slice(RowId first, std::int64_t count) const;

 private:
  template <typename T>
  T Load(RowId row) const {
    T out;
    std::memcpy(&out, data_ + static_cast<std::size_t>(row) * stride_,
                sizeof(T));
    return out;
  }

  DataType type_ = DataType::kInt32;
  const std::byte* data_ = nullptr;
  std::size_t stride_ = 0;
  std::int64_t row_count_ = 0;
  const Dictionary* dictionary_ = nullptr;
};

/// An owning, densely packed, growable column of fixed-width fields.
/// This is the unit data generators produce and the sample hierarchy copies.
class Column {
 public:
  Column(std::string name, DataType type);

  /// Convenience constructors from typed vectors.
  static Column FromInt32(std::string name, const std::vector<std::int32_t>& v);
  static Column FromInt64(std::string name, const std::vector<std::int64_t>& v);
  static Column FromDouble(std::string name, const std::vector<double>& v);
  static Column FromFloat(std::string name, const std::vector<float>& v);
  /// Builds a dictionary-encoded string column (creates the dictionary).
  static Column FromStrings(std::string name,
                            const std::vector<std::string>& v);

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  std::size_t width() const { return width_; }
  std::int64_t row_count() const {
    return static_cast<std::int64_t>(data_.size() / width_);
  }

  void Reserve(std::int64_t rows);

  void AppendInt32(std::int32_t v) { AppendStrided(&v, sizeof(v), 0, 1); }
  void AppendInt64(std::int64_t v) { AppendStrided(&v, sizeof(v), 0, 1); }
  void AppendFloat(float v) { AppendStrided(&v, sizeof(v), 0, 1); }
  void AppendDouble(double v) { AppendStrided(&v, sizeof(v), 0, 1); }
  /// Appends `count` fields of `width` bytes (which must be this column's
  /// width), the i-th copied exactly from `src + i * stride`: one resize
  /// and one tracker update for the whole run.
  void AppendStrided(const void* src, std::size_t width, std::size_t stride,
                     std::int64_t count);
  /// Interns into this column's dictionary (string columns only).
  void AppendString(std::string_view s);
  /// Appends a boxed value; must match the column type.
  void AppendValue(const Value& v);

  ColumnView View() const {
    return ColumnView(type_, data_.data(), width_, row_count(),
                      dictionary_.get());
  }

  /// Paged access over this column's storage: zero-copy block slices (an
  /// UnpagedColumnSource).
  /// Declared here, defined in paged_column.cc to keep headers acyclic.
  std::shared_ptr<class PagedColumnSource> PagedSource(
      std::int64_t rows_per_block = 0) const;

  Value GetValue(RowId row) const { return View().GetValue(row); }

  const std::shared_ptr<Dictionary>& dictionary() const { return dictionary_; }

  /// Raw bytes (for bulk copies into matrices and samples).
  const std::byte* raw_data() const { return data_.data(); }
  std::size_t raw_size() const { return data_.size(); }

 private:
  std::string name_;
  DataType type_;
  std::size_t width_;
  std::vector<std::byte> data_;
  TrackedBytes tracked_{MemoryCategory::kColumn};
  std::shared_ptr<Dictionary> dictionary_;  // non-null iff type == kString
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_COLUMN_H_
