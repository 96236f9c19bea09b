// Table: a named relation backed by a fixed-width Matrix plus the
// dictionaries of its string attributes. The table owns its layout
// (row-store or column-store); the rotate gesture swaps it.
//
// Out-of-core state: after a verified spill (storage::TableSpiller +
// core::SharedState::SpillTable with reclamation), ReleaseRaw() frees the
// matrix's cell storage, and point reads and whole-column reads go
// through per-column PagedColumnSource handles instead — GetValue pins
// the covering block, the raw ColumnView accessors become programmer
// errors, and the table's resident footprint drops to schema +
// dictionaries. That is what makes "base
// tables exceed RAM" literal: the BufferManager's byte budget bounds the
// only copies of base data left in memory. Readers of a resident table
// never keep a pointer into the matrix: kernel data objects and operators
// read pool blocks that cache::TableBlockProvider copies out under the
// release gate, and whole-column builds (sample hierarchies, zone maps,
// ExtractColumn) read inside ReadColumn, under the same gate, so neither
// a reclaim nor a layout rotation's ReplaceStorage can free memory under
// them.

#ifndef DBTOUCH_STORAGE_TABLE_H_
#define DBTOUCH_STORAGE_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/matrix.h"
#include "storage/paged_column.h"
#include "storage/schema.h"

namespace dbtouch::storage {

class Table {
 public:
  Table(std::string name, Schema schema,
        MajorOrder order = MajorOrder::kColumnMajor);

  /// Bulk-builds a table from equal-length columns (the generator path).
  /// Dictionaries are taken over from the string columns.
  static Result<std::shared_ptr<Table>> FromColumns(
      std::string name, std::vector<Column> columns,
      MajorOrder order = MajorOrder::kColumnMajor);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  std::int64_t row_count() const { return storage_.row_count(); }
  MajorOrder layout() const { return storage_.order(); }

  /// Appends one tuple; string Values are interned into the column's
  /// dictionary. Returns InvalidArgument on arity/type mismatch and
  /// FailedPrecondition after ReleaseRaw (spilled tables are frozen).
  Status AppendRow(const std::vector<Value>& row);

  /// Cell with string decoding. Released tables serve this through the
  /// paged tier (one block pin per read); a pin that fails past its
  /// bounded retries (a damaged spill file) is the returned Status.
  Result<Value> GetValue(RowId row, std::size_t col) const;

  /// Strided view over column `col` with its dictionary attached.
  /// CHECK-fails on a released table — raw views cannot outlive the
  /// matrix; whole-column readers go through ReadColumn.
  ColumnView ColumnViewAt(std::size_t col) const;
  Result<ColumnView> ColumnViewByName(const std::string& name) const;

  /// Runs `fn` over column `col`'s raw view while holding the release
  /// lock shared, so ReleaseRaw cannot free the matrix mid-read. Returns
  /// FailedPrecondition once the raw storage is gone — the caller's cue
  /// to fail the read cleanly (cache::TableBlockProvider turns it into a
  /// permanent fetch error).
  Status WithRawColumn(
      std::size_t col, const std::function<Status(const ColumnView&)>& fn) const;

  /// The one whole-column read: hands `read` a block-at-a-time source of
  /// column `col` and returns its Status. While the table is resident that
  /// is a zero-copy source over the raw column, and the release gate is
  /// held shared for the whole call, so neither a reclaim nor a rotation's
  /// swap frees the matrix under it; it makes no buffer-pool lookup. Once
  /// the table is reclaimed it is the column's pool source, set by
  /// ReleaseRaw (block reads of the spill). Sample hierarchy and base zone map
  /// builds and ExtractColumn read through here with storage::ScanBlocks,
  /// so a block that cannot be read fails the build with its Status.
  Status ReadColumn(
      std::size_t col,
      const std::function<Status(PagedColumnSource&)>& read) const;

  const std::shared_ptr<Dictionary>& dictionary(std::size_t col) const {
    return dictionaries_[col];
  }

  /// Deep-copies column `col` out of the table (the paper's "drag a column
  /// out of a fat table" gesture produces one of these), through
  /// ReadColumn.
  Result<Column> ExtractColumn(std::size_t col) const;

  /// Direct storage access for the layout manager.
  Matrix& mutable_storage() { return storage_; }
  const Matrix& storage() const { return storage_; }

  /// Swaps in a replacement matrix (must have the same schema and row
  /// count); used when a layout rotation completes. FailedPrecondition on
  /// a released table (its data lives in the spill files; there is no
  /// matrix to rotate).
  Status ReplaceStorage(Matrix replacement);

  // ---- Spill reclamation ---------------------------------------------------

  /// Frees the matrix's cell storage; from then on GetValue and
  /// ReadColumn read `paged` (one source per column, same order as the
  /// schema; geometries must match the table). SharedState::SpillTable
  /// passes pool sources of the column bindings, and publishes the spill
  /// into those bindings before it calls this, so every pool source
  /// already reads the spill when the matrix goes. Raw readers racing the
  /// release (GetValue's matrix branch, WithRawColumn, ReadColumn) hold
  /// the gate shared, which this takes exclusively: they drain first.
  /// After the flip, raw reads fail cleanly. A second call is
  /// FailedPrecondition.
  Status ReleaseRaw(std::vector<std::shared_ptr<PagedColumnSource>> paged);

  /// True once ReleaseRaw has run.
  bool raw_released() const {
    return raw_released_.load(std::memory_order_acquire);
  }

  /// Bytes of raw cell storage still resident (0 after ReleaseRaw) — the
  /// number tests assert drops when a spill reclaims.
  std::int64_t resident_raw_bytes() const {
    return static_cast<std::int64_t>(storage_.byte_size());
  }

 private:
  std::string name_;
  Schema schema_;
  Matrix storage_;
  std::vector<std::shared_ptr<Dictionary>> dictionaries_;

  /// Release gate: raw readers (GetValue's matrix branch, WithRawColumn,
  /// ReadColumn) hold it shared for the duration of each access;
  /// ReleaseRaw and ReplaceStorage hold it exclusive while freeing, so
  /// they wait for active readers instead of freeing under them.
  mutable std::shared_mutex raw_mu_;
  std::atomic<bool> raw_released_{false};
  /// Per-column paged sources, set once by ReleaseRaw and immutable after
  /// (readers see them only behind the acquire-load of raw_released_).
  std::vector<std::shared_ptr<PagedColumnSource>> paged_sources_;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_TABLE_H_
