#include "core/result_stream.h"

#include <cstddef>

namespace dbtouch::core {

const char* ResultKindName(ResultKind kind) {
  switch (kind) {
    case ResultKind::kValue:
      return "value";
    case ResultKind::kTuple:
      return "tuple";
    case ResultKind::kAggregate:
      return "aggregate";
    case ResultKind::kSummary:
      return "summary";
    case ResultKind::kFilterMatch:
      return "filter-match";
    case ResultKind::kJoinMatch:
      return "join-match";
    case ResultKind::kGroupUpdate:
      return "group-update";
  }
  return "?";
}

void ResultStream::KeepNewest(std::size_t keep) {
  if (items_.size() <= keep) {
    return;
  }
  const std::size_t drop = items_.size() - keep;
  items_.erase(items_.begin(),
               items_.begin() + static_cast<std::ptrdiff_t>(drop));
  dropped_ += static_cast<std::int64_t>(drop);
}

std::vector<VisibleResult> ResultStream::VisibleAt(sim::Micros now) const {
  std::vector<VisibleResult> out;
  for (const ResultItem& item : items_) {
    if (item.timestamp_us > now) {
      continue;  // Not yet produced.
    }
    const sim::Micros age = now - item.timestamp_us;
    if (age >= fade_us()) {
      continue;  // Fully faded.
    }
    VisibleResult v;
    v.item = &item;
    v.opacity = 1.0 - static_cast<double>(age) /
                          static_cast<double>(fade_us());
    out.push_back(v);
  }
  return out;
}

std::int64_t ResultStream::CountKind(ResultKind kind) const {
  std::int64_t n = 0;
  for (const ResultItem& item : items_) {
    if (item.kind == kind) {
      ++n;
    }
  }
  return n;
}

}  // namespace dbtouch::core
