// server::api — the versioned request/response surface of the touch
// server.
//
// Every way into the server, in-process or over the gateway's binary
// wire protocol, goes through the structs in this header and the one
// TouchServer::Call overload per request type. That makes the API a
// *contract*: each request/response is a plain serialisable struct with
// fixed-width fields, and a stable wire error-code enum replaces raw
// common::Status on the boundary. The gateway is a pure codec: it decodes
// a frame into one of these structs, calls the same entry point an
// in-process caller would, and encodes the response (src/gateway/wire.h
// owns the byte layout). In-process callers build the request fields
// from kernel and simulator types with the ToWire overloads below.
//
// Versioning policy (see src/gateway/README.md for the wire half):
//   - kApiVersion names the request/response *shape* set. Additive
//     evolution (new request types, new trailing fields with defaults)
//     does not bump it; removing or reinterpreting a field does.
//   - WireCode values are append-only: codes are never renumbered or
//     reused, because clients persist and compare them.

#ifndef DBTOUCH_SERVER_API_H_
#define DBTOUCH_SERVER_API_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/action.h"
#include "sim/touch_event.h"

namespace dbtouch::server::api {

/// Version of the request/response struct set (and of the wire payload
/// encodings derived from it).
inline constexpr std::uint16_t kApiVersion = 1;

using SessionId = std::int64_t;
using ObjectId = std::int64_t;

// ---- Wire error codes ------------------------------------------------------

/// Stable error space of the server boundary. The first block mirrors
/// common::StatusCode one-to-one (same numeric values, so the mapping
/// table cannot drift silently — api.cc static_asserts the pairing);
/// codes from 64 up are protocol-level conditions that have no
/// in-process Status ancestor. Append-only: never renumber.
enum class WireCode : std::uint16_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kResourceExhausted = 7,
  kDeadlineExceeded = 8,
  kAborted = 9,
  kInternal = 10,
  // -- Protocol-level codes (no StatusCode ancestor). --
  /// Frame carried a protocol version this server does not speak.
  kUnsupportedVersion = 64,
  /// Frame failed structural validation (bad magic, truncated payload,
  /// length over the limit, unknown message type).
  kMalformedFrame = 65,
  /// The connection's write queue overflowed; the server is closing it
  /// rather than buffering unboundedly for a slow reader.
  kBackpressure = 66,
};

std::string_view WireCodeName(WireCode code);

/// Status -> wire mapping. OK maps to kOk; every StatusCode has a wire
/// twin by construction.
WireCode WireCodeFromStatus(const Status& status);

/// Wire -> Status mapping for client-side reconstruction. Protocol-level
/// codes (which have no StatusCode twin) map to the closest canonical
/// code: kUnsupportedVersion/kMalformedFrame -> kInvalidArgument,
/// kBackpressure -> kResourceExhausted.
Status StatusFromWire(WireCode code, std::string message);

// ---- Plain serialisable mirrors of internal types --------------------------

/// touch::RectCm without the touch/ dependency: the api layer speaks
/// only to fixed-width serialisable fields.
struct WireRect {
  double x = 0.0;
  double y = 0.0;
  double width = 0.0;
  double height = 0.0;

  friend bool operator==(const WireRect&, const WireRect&) = default;
};

/// What a gesture on the object computes — core::ActionConfig flattened
/// to wire-stable scalars (the optional exec::Predicate becomes
/// has_predicate + op/lo/hi).
struct WireAction {
  /// core::ActionKind value (scan/aggregate/summary/filter/group-by).
  std::uint8_t kind = 0;
  /// exec::AggKind value.
  std::uint8_t agg = 0;
  std::int64_t summary_k = 10;
  bool has_predicate = false;
  /// exec::CompareOp value; lo/hi are the predicate constants
  /// ([lo, hi] for between, lo == hi otherwise).
  std::uint8_t predicate_op = 0;
  double predicate_lo = 0.0;
  double predicate_hi = 0.0;
  bool use_zone_map = false;
  std::uint32_t group_key_attribute = 0;
  std::uint32_t group_value_attribute = 0;

  friend bool operator==(const WireAction&, const WireAction&) = default;
};

WireAction ToWire(const core::ActionConfig& action);
/// The validating decode: an unknown action kind, aggregate kind or
/// predicate op is InvalidArgument. The kernel checks the rest when the
/// action is set on an object.
Result<core::ActionConfig> FromWire(const WireAction& action);

/// One touch sample as it crosses the wire. Timestamps are
/// gesture-relative micros (the batch carries the pacing epoch).
struct WireTouchEvent {
  std::int64_t timestamp_us = 0;
  std::int32_t finger_id = 0;
  /// sim::TouchPhase value.
  std::uint8_t phase = 0;
  double x_cm = 0.0;
  double y_cm = 0.0;

  friend bool operator==(const WireTouchEvent&,
                         const WireTouchEvent&) = default;
};

WireTouchEvent ToWire(const sim::TouchEvent& event);
sim::TouchEvent FromWire(const WireTouchEvent& event);
/// The trace's events, in order, as one SubmitBatchReq carries them.
std::vector<WireTouchEvent> ToWire(const sim::GestureTrace& trace);

// ---- Requests / responses --------------------------------------------------
//
// Each request type has a fixed MessageType tag (src/gateway/wire.h) and
// a response struct. Field order is the wire order.

struct OpenSessionReq {
  friend bool operator==(const OpenSessionReq&,
                         const OpenSessionReq&) = default;
};

struct OpenSessionResp {
  SessionId session = 0;

  friend bool operator==(const OpenSessionResp&,
                         const OpenSessionResp&) = default;
};

struct CloseSessionReq {
  SessionId session = 0;

  friend bool operator==(const CloseSessionReq&,
                         const CloseSessionReq&) = default;
};

struct CloseSessionResp {
  friend bool operator==(const CloseSessionResp&,
                         const CloseSessionResp&) = default;
};

/// Creates a data object in the session. kind 0 = column object (table +
/// column name), kind 1 = fat table object (column ignored).
struct CreateObjectReq {
  SessionId session = 0;
  std::uint8_t kind = 0;
  std::string table;
  std::string column;
  WireRect frame;

  friend bool operator==(const CreateObjectReq&,
                         const CreateObjectReq&) = default;
};

struct CreateObjectResp {
  ObjectId object = 0;

  friend bool operator==(const CreateObjectResp&,
                         const CreateObjectResp&) = default;
};

struct SetActionReq {
  SessionId session = 0;
  ObjectId object = 0;
  WireAction action;

  friend bool operator==(const SetActionReq&, const SetActionReq&) = default;
};

struct SetActionResp {
  friend bool operator==(const SetActionResp&,
                         const SetActionResp&) = default;
};

/// A batch of touch events for one session — the feed. Timestamps are
/// relative to the batch's first event; `paced` releases each event on
/// that timeline (replay at gesture speed, so a miss means the server
/// fell behind a live user), otherwise everything is released
/// immediately (flood; deadlines keep their timeline-relative values, so
/// EDF still orders the backlog). A batch with a timestamp more than an
/// hour from the first event's, or a non-finite coordinate, is refused
/// whole (InvalidArgument). Batching is the unit of wire amortisation: a
/// client sends one frame per display frame, not one per touch sample
/// (the paper's warning about per-touch RPC costs, Section 4).
struct SubmitBatchReq {
  SessionId session = 0;
  bool paced = true;
  std::vector<WireTouchEvent> events;

  friend bool operator==(const SubmitBatchReq&,
                         const SubmitBatchReq&) = default;
};

struct SubmitBatchResp {
  /// Events admitted to the session's queue.
  std::int64_t accepted = 0;
  /// Events rejected at admission (session queue at its bound) — the
  /// protocol's backpressure signal to a flooding client.
  std::int64_t rejected = 0;

  friend bool operator==(const SubmitBatchResp&,
                         const SubmitBatchResp&) = default;
};

struct StatsReq {
  friend bool operator==(const StatsReq&, const StatsReq&) = default;
};

/// Server-wide scalar roll-up: the headline numbers of
/// ServerStatsSnapshot without the histograms and per-session maps
/// (those stay in-process; ToJson serves postmortems).
struct StatsResp {
  std::int64_t sessions_active = 0;
  std::int64_t submitted = 0;
  std::int64_t executed = 0;
  std::int64_t dropped_quanta = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t p50_latency_us = 0;
  std::int64_t p99_latency_us = 0;
  std::int64_t suspended_quanta = 0;
  std::int64_t buffer_hits = 0;
  std::int64_t buffer_lookups = 0;

  /// True once every submitted quantum has executed or been shed — the
  /// poll target wire clients drain against.
  bool idle() const {
    return executed + dropped_quanta >= submitted;
  }

  friend bool operator==(const StatsResp&, const StatsResp&) = default;
};

struct SessionSnapshotReq {
  SessionId session = 0;
  /// Results from the tail of the session's stream to include (0 = only
  /// the count). A session retains a bounded tail of its stream: once it
  /// holds 8,192 results it drops all but the newest 4,096, so the
  /// response carries the newest min(max_results, retained) results while
  /// result_count still counts every result the session produced.
  std::int64_t max_results = 0;

  friend bool operator==(const SessionSnapshotReq&,
                         const SessionSnapshotReq&) = default;
};

/// One data object's view state inside a SessionSnapshotResp.
struct ObjectInfo {
  ObjectId object = 0;
  /// touch::ObjectKind value (0 column, 1 table).
  std::uint8_t kind = 0;
  /// touch::Orientation value (0 vertical, 1 horizontal).
  std::uint8_t orientation = 0;
  std::string table;
  /// Bound column index, or -1 for table objects.
  std::int64_t column = -1;
  WireRect frame;
  std::int64_t tuple_count = 0;

  friend bool operator==(const ObjectInfo&, const ObjectInfo&) = default;
};

/// One produced result inside a SessionSnapshotResp tail.
struct ResultInfo {
  ObjectId object = 0;
  /// core::ResultKind value.
  std::uint8_t kind = 0;
  std::int64_t row = 0;
  double value = 0.0;
  bool approximate = false;
  /// Partial-answer protocol: true while this entry is a coarse answer
  /// awaiting refinement; refine_seq counts refinement passes (0 = the
  /// initial answer). Encoded as trailing per-result arrays AFTER the v1
  /// results vector on the wire — old decoders simply stop early and see
  /// the defaults (append-only protocol evolution).
  bool partial = false;
  std::int64_t refine_seq = 0;

  friend bool operator==(const ResultInfo&, const ResultInfo&) = default;
};

/// Typed read-only view of one session: its objects (view state), kernel
/// counters and result stream.
struct SessionSnapshotResp {
  SessionId session = 0;
  std::vector<ObjectInfo> objects;
  // Kernel counters (core::KernelStats subset).
  std::int64_t touch_events = 0;
  std::int64_t gesture_events = 0;
  std::int64_t entries_returned = 0;
  std::int64_t rows_scanned = 0;
  std::int64_t rows_pruned = 0;
  std::int64_t suspensions = 0;
  std::int64_t fetch_errors = 0;
  // Session scheduling state.
  std::int64_t shed_levels = 0;
  // Result stream: every result ever produced, plus an optional tail of
  // the retained ones (see SessionSnapshotReq::max_results).
  std::int64_t result_count = 0;
  std::vector<ResultInfo> results;
  // Partial-answer kernel counters. Trailing fields on the wire (appended
  // after `results`): absent on old peers, zero-defaulted on decode.
  std::int64_t partial_answers = 0;
  std::int64_t refinements = 0;

  friend bool operator==(const SessionSnapshotResp&,
                         const SessionSnapshotResp&) = default;
};

}  // namespace dbtouch::server::api

#endif  // DBTOUCH_SERVER_API_H_
