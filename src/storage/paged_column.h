// Paged column access: the read path for data that may not be resident.
//
// The paper's kernel reads columns through raw whole-column pointers, which
// assumes every column fits in memory. The paged path splits a column into
// fixed-size blocks and hands out per-block ColumnView slices through an
// abstract PagedColumnSource, so the same operator code runs against
//
//   - UnpagedColumnSource: zero-copy slices of an in-memory column (the
//     classic single-user setup, no cache involved), or
//   - cache::BufferManager sources: blocks pinned in a bounded block cache
//     and faulted in from a BlockProvider (base table or remote store).
//
// A BlockPin is the RAII pin token: while it lives, the block's bytes stay
// valid; its destructor returns the block to the source. PagedColumnCursor
// wraps a source with a one-block working buffer for row-at-a-time reads —
// a slide that stays inside one block re-pins nothing.

#ifndef DBTOUCH_STORAGE_PAGED_COLUMN_H_
#define DBTOUCH_STORAGE_PAGED_COLUMN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/result.h"
#include "storage/column.h"
#include "storage/types.h"

namespace dbtouch::storage {

class PagedColumnSource;

/// Typed contiguous window over one pinned block: `data[i]` is base row
/// `first_row + i`, for i in [0, rows). `data` is null when the block
/// cannot be exposed as a packed T array (strided layout, type/width
/// mismatch, misalignment) — callers fall back to per-row view() reads.
/// The pointer borrows the pin's storage: it is valid only while the
/// BlockPin that produced it lives.
template <typename T>
struct BlockSpan {
  const T* data = nullptr;
  RowId first_row = 0;
  std::int64_t rows = 0;

  explicit operator bool() const { return data != nullptr; }
};

/// RAII pin over one block of a paged column. While valid, `view()` reads
/// the block's fields (rows local to the block); destruction unpins.
class BlockPin {
 public:
  BlockPin() = default;
  BlockPin(PagedColumnSource* source, std::int64_t block, ColumnView view,
           RowId first_row)
      : source_(source), block_(block), view_(view), first_row_(first_row) {}

  BlockPin(const BlockPin&) = delete;
  BlockPin& operator=(const BlockPin&) = delete;
  BlockPin(BlockPin&& other) noexcept { *this = std::move(other); }
  BlockPin& operator=(BlockPin&& other) noexcept {
    if (this != &other) {
      Release();
      source_ = std::exchange(other.source_, nullptr);
      block_ = other.block_;
      view_ = other.view_;
      first_row_ = other.first_row_;
    }
    return *this;
  }
  ~BlockPin() { Release(); }

  bool valid() const { return source_ != nullptr; }
  /// Rows in the view are block-local: base row r maps to r - first_row().
  const ColumnView& view() const { return view_; }
  /// The source this pin holds a block of (callers juggling pins over
  /// several sources — the kernel's multi-column table probe — need it to
  /// tell same-index blocks of different columns apart).
  PagedColumnSource* source() const { return source_; }
  std::int64_t block() const { return block_; }
  RowId first_row() const { return first_row_; }
  RowId last_row() const { return first_row_ + view_.row_count() - 1; }
  bool Covers(RowId row) const {
    return valid() && row >= first_row_ && row <= last_row();
  }

  /// The block as a typed contiguous span (see BlockSpan). Span lifetime
  /// is this pin's lifetime.
  template <typename T>
  BlockSpan<T> Span() const {
    BlockSpan<T> span;
    span.data = view_.TypedData<T>();
    span.first_row = first_row_;
    span.rows = view_.row_count();
    return span;
  }

  void Release();

 private:
  PagedColumnSource* source_ = nullptr;
  std::int64_t block_ = 0;
  ColumnView view_;
  RowId first_row_ = 0;
};

/// A column readable block-at-a-time. Implementations decide where block
/// bytes live (in place, in a buffer pool, behind a network).
class PagedColumnSource {
 public:
  virtual ~PagedColumnSource() = default;

  virtual DataType type() const = 0;
  virtual const Dictionary* dictionary() const { return nullptr; }
  virtual std::int64_t row_count() const = 0;
  virtual std::int64_t rows_per_block() const = 0;

  /// Residency-sharing identity: two sources with equal tokens pin the
  /// same underlying blocks (same block index -> same backing bytes), so
  /// a caller holding a pin from one may treat that block as resident
  /// for the other. Per-column readers of one PAX multi-column block
  /// file share a token; standalone sources are their own token.
  virtual std::uintptr_t share_token() const {
    return reinterpret_cast<std::uintptr_t>(this);
  }

  std::int64_t num_blocks() const {
    const std::int64_t rpb = rows_per_block();
    return rpb == 0 ? 0 : (row_count() + rpb - 1) / rpb;
  }
  std::int64_t BlockFor(RowId row) const { return row / rows_per_block(); }
  RowId BlockFirstRow(std::int64_t block) const {
    return block * rows_per_block();
  }
  std::int64_t BlockRowCount(std::int64_t block) const;

  /// Pins `block`. `row_hint` is the base row whose touch caused the pin;
  /// caching sources feed it to their gesture-aware admission policy
  /// (pass -1 when no touch drives the read).
  ///
  /// Error contract: a non-OK result means the caller broke the source's
  /// invariants (block out of range, backing data changed underneath) or a
  /// backing-store read failed past its bounded retries. Callers that
  /// probe residency first (the kernel's pre-touch probe) surface the
  /// Status; PagedColumnCursor — which reads only pre-validated rows —
  /// still treats a pin failure as fatal.
  virtual Result<BlockPin> PinBlock(std::int64_t block,
                                    RowId row_hint = -1) = 0;

  /// Completion signal for StartFetch: OK once the block is resident (a
  /// TryPinBlock after the callback is guaranteed to hit), else the
  /// fetch's final error after bounded retries. May run on a fetcher
  /// thread; must be cheap and non-blocking.
  using FetchCompletion = std::function<void(const Status&)>;

  /// Non-blocking pin: the pin when the block is resident — or can be
  /// materialised immediately (in-memory tiers) — and nullopt when pinning
  /// would wait on a slow fetch. Pair with StartFetch to suspend instead
  /// of stalling. Default: delegate to PinBlock (nothing to wait for).
  virtual Result<std::optional<BlockPin>> TryPinBlock(std::int64_t block,
                                                      RowId row_hint = -1) {
    auto pin = PinBlock(block, row_hint);
    if (!pin.ok()) {
      return pin.status();
    }
    return std::optional<BlockPin>(std::move(*pin));
  }

  /// True when TryPinBlock can return nullopt — i.e. reads may fault from
  /// a slow tier and callers should be prepared to suspend.
  virtual bool may_block() const { return false; }

  /// Begins an asynchronous demand fetch of `block`; `done` fires when it
  /// completes (possibly inline for immediate sources). `tag` names the
  /// requesting party (the touch server passes its session id, 0 =
  /// untagged) so still-queued fetches can be cancelled when the party
  /// goes away. Returns non-OK only when the fetch cannot even be
  /// scheduled.
  virtual Status StartFetch(std::int64_t block, FetchCompletion done,
                            std::uint64_t tag = 0) {
    (void)block;
    (void)tag;
    if (done != nullptr) {
      done(Status::OK());
    }
    return Status::OK();
  }

  /// Hints that blocks [first_block, last_block] will likely be touched
  /// soon (the extrapolated slide path, Section 2.6). Low priority: demand
  /// fetches preempt. A caching source enqueues each missing stretch as
  /// one run that the fetch queue reads with one backing read. At most
  /// `max_new_blocks` blocks are actually enqueued (already-resident or
  /// already-queued blocks are free); returns how many were, so callers
  /// budget against real fetches, not no-op hints. Default: nothing to
  /// warm (immediate sources).
  virtual std::int64_t RequestPrefetchRange(std::int64_t first_block,
                                            std::int64_t last_block,
                                            std::int64_t max_new_blocks) {
    (void)first_block;
    (void)last_block;
    (void)max_new_blocks;
    return 0;
  }

  /// The gesture driving reads of this column paused — a caching source
  /// re-enables admission for it. No-op for sources without a policy.
  virtual void OnGesturePause() {}

 protected:
  friend class BlockPin;
  /// Called exactly once when a pin handed out by PinBlock releases.
  virtual void UnpinBlock(std::int64_t block) = 0;
};

/// Zero-copy source over an in-memory ColumnView: blocks are slices of the
/// backing storage, pinning is free. `rows_per_block` 0 = the whole column
/// as one block.
class UnpagedColumnSource final : public PagedColumnSource {
 public:
  explicit UnpagedColumnSource(ColumnView column,
                               std::int64_t rows_per_block = 0);

  DataType type() const override { return column_.type(); }
  const Dictionary* dictionary() const override {
    return column_.dictionary();
  }
  std::int64_t row_count() const override { return column_.row_count(); }
  std::int64_t rows_per_block() const override { return rows_per_block_; }
  Result<BlockPin> PinBlock(std::int64_t block, RowId row_hint = -1) override;

 protected:
  void UnpinBlock(std::int64_t block) override;

 private:
  ColumnView column_;
  std::int64_t rows_per_block_;
};

/// Row-at-a-time reads over a paged source, holding the current block
/// pinned as a working buffer. Move-only (owns a pin).
class PagedColumnCursor {
 public:
  PagedColumnCursor() = default;
  explicit PagedColumnCursor(std::shared_ptr<PagedColumnSource> source)
      : source_(std::move(source)) {}
  /// Convenience: wraps an in-memory column in an UnpagedColumnSource.
  explicit PagedColumnCursor(ColumnView column)
      : source_(std::make_shared<UnpagedColumnSource>(column)) {}

  bool valid() const { return source_ != nullptr; }
  DataType type() const { return source_->type(); }
  std::int64_t row_count() const { return source_->row_count(); }
  bool InRange(RowId row) const {
    return row >= 0 && row < source_->row_count();
  }

  /// Point reads; the caller guarantees InRange. Crossing a block boundary
  /// swaps the working pin. The in-range fast path is two compares against
  /// the cached span bounds — no per-row residency probe.
  double GetAsDouble(RowId row) {
    return Ensure(row).GetAsDouble(row - span_first_);
  }
  Value GetValue(RowId row);

  /// Typed point reads (the caller guarantees the type, as with
  /// ColumnView): what lets paged readers copy fields bit-exactly — the
  /// sample-hierarchy build path over a spilled base must produce the same
  /// bytes it produced from the raw matrix.
  std::int32_t GetInt32(RowId row) {
    return Ensure(row).GetInt32(row - span_first_);
  }
  std::int64_t GetInt64(RowId row) {
    return Ensure(row).GetInt64(row - span_first_);
  }
  float GetFloat(RowId row) {
    return Ensure(row).GetFloat(row - span_first_);
  }
  double GetDouble(RowId row) {
    return Ensure(row).GetDouble(row - span_first_);
  }

  /// Block-at-a-time scan of base rows [first, last], both clamped to the
  /// column. `fn` sees each overlapping block's slice (rows local to the
  /// slice) with the base row its first entry maps to. Rows are visited in
  /// ascending order, each exactly once.
  void Scan(RowId first, RowId last,
            const std::function<void(const ColumnView& rows,
                                     RowId first_row)>& fn);

  /// Drops the working pin (returns the block to its cache).
  void ReleasePin() {
    pin_ = BlockPin();
    span_view_ = ColumnView();
    span_first_ = 0;
    span_last_ = -1;
  }

  const std::shared_ptr<PagedColumnSource>& source() const { return source_; }

 private:
  /// The view over the block covering `row`. Fast path: `row` is inside
  /// the cached span of the working pin, no call leaves the header.
  const ColumnView& Ensure(RowId row) {
    if (row < span_first_ || row > span_last_) {
      return EnsureSlow(row);
    }
    return span_view_;
  }

  /// Pins the block covering `row` and refreshes the cached span bounds.
  const ColumnView& EnsureSlow(RowId row);

  std::shared_ptr<PagedColumnSource> source_;
  BlockPin pin_;
  // Cached bounds + view of the working pin: [span_first_, span_last_]
  // (empty when span_last_ < span_first_). Mirrors pin_; invalidated by
  // ReleasePin.
  ColumnView span_view_;
  RowId span_first_ = 0;
  RowId span_last_ = -1;
};

}  // namespace dbtouch::storage

#endif  // DBTOUCH_STORAGE_PAGED_COLUMN_H_
