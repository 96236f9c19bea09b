#include "remote/remote_store.h"

#include <algorithm>
#include <cstring>

namespace dbtouch::remote {

RemoteServer::RemoteServer(storage::ColumnView base) : base_(base) {}

std::vector<std::byte> RemoteServer::ReadRange(storage::RowId first,
                                               std::int64_t count) {
  ++requests_served_;
  if (fail_next_reads_ > 0 ||
      (fail_every_ > 0 && requests_served_ % fail_every_ == 0)) {
    // Injected transport failure: the response never arrives.
    if (fail_next_reads_ > 0) {
      --fail_next_reads_;
    }
    return {};
  }
  const storage::RowId begin = std::max<storage::RowId>(first, 0);
  const storage::RowId end =
      std::min<storage::RowId>(first + count, base_.row_count());
  if (end <= begin) {
    return {};
  }
  // Gather: the base may be a row-major view, whose fields sit `stride`
  // bytes apart; the wire carries them packed.
  const std::size_t width = storage::TypeWidth(base_.type());
  std::vector<std::byte> out(static_cast<std::size_t>(end - begin) * width);
  const std::byte* src =
      base_.data() + static_cast<std::size_t>(begin) * base_.stride();
  for (std::byte* dst = out.data(); dst != out.data() + out.size();
       dst += width, src += base_.stride()) {
    std::memcpy(dst, src, width);
  }
  return out;
}

}  // namespace dbtouch::remote
