// Remote processing (paper Section 4): "the server may store the base data
// and the big samples, while the touch device may store only small
// samples. Then, during query processing dbTouch may use both local and
// remote data ... use local data to feed partial answers, while in the
// mean time more fine-grained answers are produced and delivered by the
// server."
//
// RemoteServer is the server side of that split: it holds the base column
// and answers range reads with the rows' field bytes. The device side is
// cache::RemoteBlockProvider, which faults blocks through these reads into
// the buffer pool; the touch server's partial answers (answer from the
// resident sample level now, refine when the block lands) implement the
// local-coarse / remote-refine behaviour on top of it.

#ifndef DBTOUCH_REMOTE_REMOTE_STORE_H_
#define DBTOUCH_REMOTE_REMOTE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"

namespace dbtouch::remote {

/// The cloud side: the base column and the handler for range-read
/// requests. Not thread-safe; callers serialise requests.
class RemoteServer {
 public:
  /// Serves `base`, which must outlive the server.
  explicit RemoteServer(storage::ColumnView base);

  /// Serves rows [first, first + count), clipped to the column, as their
  /// fields packed back to back at the column's width (string columns
  /// ship their dictionary codes).
  std::vector<std::byte> ReadRange(storage::RowId first, std::int64_t count);

  /// The served column.
  const storage::ColumnView& base() const { return base_; }
  std::int64_t requests_served() const { return requests_served_; }

  /// Failure injection for transport-error testing: the next `n` ReadRange
  /// calls return an empty payload (a dropped response on the wire), which
  /// block consumers classify as a transient short read and retry.
  void FailNextReads(int n) { fail_next_reads_ = n; }
  /// Steady-state flakiness: every `n`th ReadRange drops its response
  /// (0 = reliable).
  void set_fail_every(int n) { fail_every_ = n; }

 private:
  storage::ColumnView base_;
  std::int64_t requests_served_ = 0;
  int fail_next_reads_ = 0;
  int fail_every_ = 0;
};

}  // namespace dbtouch::remote

#endif  // DBTOUCH_REMOTE_REMOTE_STORE_H_
