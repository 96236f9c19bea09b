// Matrix: the paper's storage structure — "the underlying storage layout
// used in our current dbTouch is matrixes. Each matrix may contain one or
// more columns and each column contains fixed-width fields. The matrixes
// are dense" (Section 2.6).
//
// A Matrix stores its cells either column-major (column store: each
// attribute contiguous) or row-major (row store: each tuple contiguous).
// The rotate gesture flips the major order (Section 2.8); layout/ performs
// that incrementally across two matrices.

#ifndef DBTOUCH_STORAGE_MATRIX_H_
#define DBTOUCH_STORAGE_MATRIX_H_

#include <cstddef>
#include <cstring>
#include <vector>

#include "storage/column.h"
#include "storage/memory_tracker.h"
#include "storage/schema.h"
#include "storage/types.h"
#include "storage/value.h"

namespace dbtouch::storage {

enum class MajorOrder : std::uint8_t {
  kColumnMajor = 0,  // column store
  kRowMajor = 1,     // row store
};

const char* MajorOrderName(MajorOrder order);

class Matrix {
 public:
  /// An empty matrix with the given shape. String fields store int32
  /// dictionary codes; dictionaries live in Table.
  Matrix(Schema schema, MajorOrder order);

  const Schema& schema() const { return schema_; }
  MajorOrder order() const { return order_; }
  std::int64_t row_count() const { return row_count_; }
  std::size_t num_columns() const { return schema_.num_fields(); }

  void Reserve(std::int64_t rows);

  /// Appends one tuple given raw per-field values (numerics and dictionary
  /// codes boxed in Value; string Values are not accepted here).
  void AppendRow(const std::vector<Value>& row);

  /// Appends `count` rows copied from field-wise source pointers (bulk
  /// load). `field_data[i]` must point at `count` densely packed fields of
  /// column i's width.
  void AppendRowsColumnar(const std::vector<const std::byte*>& field_data,
                          std::int64_t count);

  /// Raw cell access.
  const std::byte* CellPtr(RowId row, std::size_t col) const;
  std::byte* MutableCellPtr(RowId row, std::size_t col);

  /// Boxed cell value (string fields yield their int32 code).
  Value GetCell(RowId row, std::size_t col) const;
  void SetCell(RowId row, std::size_t col, const Value& v);

  /// Strided view of column `col`. Works in both orders; in row-major the
  /// stride is the full row width. This is what makes every operator
  /// layout-agnostic.
  ColumnView ColumnAt(std::size_t col,
                      const Dictionary* dictionary = nullptr) const;

  /// Bytes between consecutive fields of one column.
  std::size_t column_stride(std::size_t col) const;

  /// Full copy in the requested order (monolithic transpose — the baseline
  /// the incremental rotation of layout/ is measured against).
  Matrix ToOrder(MajorOrder order) const;

  /// Total bytes of cell storage.
  std::size_t byte_size() const { return data_.size(); }

  /// Frees the cell buffer — the spill tier's reclamation step: once every
  /// column reads its spill file through the paged tier (see
  /// Table::ReleaseRaw), keeping the matrix resident would defeat the
  /// buffer pool's byte budget. Shape metadata (schema, row count)
  /// survives so geometry queries keep answering; any cell access
  /// afterwards is a programmer error and CHECK-fails.
  void ReleaseStorage();
  bool storage_released() const { return released_; }

 private:
  std::size_t CellOffset(RowId row, std::size_t col) const;
  /// In column-major order, growth may require spreading columns out;
  /// this re-packs the buffer for a new capacity.
  void GrowCapacity(std::int64_t at_least_rows);

  Schema schema_;
  MajorOrder order_;
  std::int64_t row_count_ = 0;
  std::int64_t row_capacity_ = 0;
  bool released_ = false;
  std::vector<std::byte> data_;
  TrackedBytes tracked_{MemoryCategory::kMatrix};
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_MATRIX_H_
