#include "server/api.h"

namespace dbtouch::server::api {

// The first WireCode block mirrors StatusCode numerically so the mapping
// below is the identity; pin the pairing so neither enum can drift
// without this file noticing.
static_assert(static_cast<int>(WireCode::kOk) ==
              static_cast<int>(StatusCode::kOk));
static_assert(static_cast<int>(WireCode::kInvalidArgument) ==
              static_cast<int>(StatusCode::kInvalidArgument));
static_assert(static_cast<int>(WireCode::kNotFound) ==
              static_cast<int>(StatusCode::kNotFound));
static_assert(static_cast<int>(WireCode::kAlreadyExists) ==
              static_cast<int>(StatusCode::kAlreadyExists));
static_assert(static_cast<int>(WireCode::kOutOfRange) ==
              static_cast<int>(StatusCode::kOutOfRange));
static_assert(static_cast<int>(WireCode::kFailedPrecondition) ==
              static_cast<int>(StatusCode::kFailedPrecondition));
static_assert(static_cast<int>(WireCode::kUnimplemented) ==
              static_cast<int>(StatusCode::kUnimplemented));
static_assert(static_cast<int>(WireCode::kResourceExhausted) ==
              static_cast<int>(StatusCode::kResourceExhausted));
static_assert(static_cast<int>(WireCode::kDeadlineExceeded) ==
              static_cast<int>(StatusCode::kDeadlineExceeded));
static_assert(static_cast<int>(WireCode::kAborted) ==
              static_cast<int>(StatusCode::kAborted));
static_assert(static_cast<int>(WireCode::kInternal) ==
              static_cast<int>(StatusCode::kInternal));

std::string_view WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      return "Ok";
    case WireCode::kInvalidArgument:
      return "InvalidArgument";
    case WireCode::kNotFound:
      return "NotFound";
    case WireCode::kAlreadyExists:
      return "AlreadyExists";
    case WireCode::kOutOfRange:
      return "OutOfRange";
    case WireCode::kFailedPrecondition:
      return "FailedPrecondition";
    case WireCode::kUnimplemented:
      return "Unimplemented";
    case WireCode::kResourceExhausted:
      return "ResourceExhausted";
    case WireCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case WireCode::kAborted:
      return "Aborted";
    case WireCode::kInternal:
      return "Internal";
    case WireCode::kUnsupportedVersion:
      return "UnsupportedVersion";
    case WireCode::kMalformedFrame:
      return "MalformedFrame";
    case WireCode::kBackpressure:
      return "Backpressure";
  }
  return "Unknown";
}

WireCode WireCodeFromStatus(const Status& status) {
  return static_cast<WireCode>(status.code());
}

Status StatusFromWire(WireCode code, std::string message) {
  switch (code) {
    case WireCode::kUnsupportedVersion:
    case WireCode::kMalformedFrame:
      return Status(StatusCode::kInvalidArgument, std::move(message));
    case WireCode::kBackpressure:
      return Status(StatusCode::kResourceExhausted, std::move(message));
    default:
      return Status(static_cast<StatusCode>(code), std::move(message));
  }
}

WireTouchEvent ToWire(const sim::TouchEvent& event) {
  WireTouchEvent wire;
  wire.timestamp_us = event.timestamp_us;
  wire.finger_id = event.finger_id;
  wire.phase = static_cast<std::uint8_t>(event.phase);
  wire.x_cm = event.position.x;
  wire.y_cm = event.position.y;
  return wire;
}

sim::TouchEvent FromWire(const WireTouchEvent& event) {
  sim::TouchEvent out;
  out.timestamp_us = event.timestamp_us;
  out.finger_id = event.finger_id;
  out.phase = static_cast<sim::TouchPhase>(event.phase);
  out.position = sim::PointCm{event.x_cm, event.y_cm};
  return out;
}

std::vector<WireTouchEvent> ToWire(const sim::GestureTrace& trace) {
  std::vector<WireTouchEvent> events;
  events.reserve(trace.events.size());
  for (const sim::TouchEvent& event : trace.events) {
    events.push_back(ToWire(event));
  }
  return events;
}

WireAction ToWire(const core::ActionConfig& action) {
  WireAction wire;
  wire.kind = static_cast<std::uint8_t>(action.kind);
  wire.agg = static_cast<std::uint8_t>(action.agg);
  wire.summary_k = action.summary_k;
  if (action.predicate.has_value()) {
    wire.has_predicate = true;
    wire.predicate_op = static_cast<std::uint8_t>(action.predicate->op());
    wire.predicate_lo = action.predicate->lo();
    wire.predicate_hi = action.predicate->hi();
  }
  wire.use_zone_map = action.use_zone_map;
  wire.group_key_attribute =
      static_cast<std::uint32_t>(action.group_key_attribute);
  wire.group_value_attribute =
      static_cast<std::uint32_t>(action.group_value_attribute);
  return wire;
}

Result<core::ActionConfig> FromWire(const WireAction& wire) {
  if (wire.kind > static_cast<std::uint8_t>(core::ActionKind::kGroupBy)) {
    return Status::InvalidArgument("unknown action kind " +
                                   std::to_string(wire.kind));
  }
  if (wire.agg > static_cast<std::uint8_t>(exec::AggKind::kStdDev)) {
    return Status::InvalidArgument("unknown aggregate kind " +
                                   std::to_string(wire.agg));
  }
  core::ActionConfig action;
  action.kind = static_cast<core::ActionKind>(wire.kind);
  action.agg = static_cast<exec::AggKind>(wire.agg);
  action.summary_k = wire.summary_k;
  if (wire.has_predicate) {
    if (wire.predicate_op >
        static_cast<std::uint8_t>(exec::CompareOp::kBetween)) {
      return Status::InvalidArgument("unknown predicate op " +
                                     std::to_string(wire.predicate_op));
    }
    const auto op = static_cast<exec::CompareOp>(wire.predicate_op);
    action.predicate =
        op == exec::CompareOp::kBetween
            ? exec::Predicate(wire.predicate_lo, wire.predicate_hi)
            : exec::Predicate(op, wire.predicate_lo);
  }
  action.use_zone_map = wire.use_zone_map;
  action.group_key_attribute = wire.group_key_attribute;
  action.group_value_attribute = wire.group_value_attribute;
  return action;
}

}  // namespace dbtouch::server::api
